package main

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// timing wraps a handler from outside and records one span per request.
// The parent is named by the request number that leads every body the
// load generator sends ({"id":N,...}), offset by parentBase: a handler
// the client calls directly parents to the client span, a replica
// behind the coordinator to the coordinator's span. With a nil tracer it
// only passes requests through.
type timing struct {
	tr         *tracer
	next       http.Handler
	name       string // span name prefix, e.g. "serve" or "replica"
	parentBase uint64
	selfBase   uint64 // 0: reserve span IDs from the tracer

	mu   sync.Mutex
	seen map[string]bool // model versions this handler has answered with
}

func newTiming(tr *tracer, next http.Handler, name string, parentBase, selfBase uint64) *timing {
	return &timing{tr: tr, next: next, name: name, parentBase: parentBase, selfBase: selfBase, seen: make(map[string]bool)}
}

func (m *timing) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if m.tr == nil {
		m.next.ServeHTTP(w, r)
		return
	}
	var ref int64 = -1
	if r.Body != nil {
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err == nil {
			ref = leadingID(body)
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	start := time.Now()
	m.next.ServeHTTP(w, r)
	end := time.Now()

	var id, parent uint64
	if ref >= 0 {
		parent = m.parentBase + uint64(ref)
		if m.selfBase != 0 {
			id = m.selfBase + uint64(ref)
		}
	}
	if id == 0 {
		id = m.tr.id()
	}
	m.tr.add(id, parent, ref, m.name+"."+r.URL.Path, start, end)

	// The first request each model version answers is its cold path:
	// anything built lazily after a swap lands here.
	if v := w.Header().Get("X-Model-Version"); v != "" && r.URL.Path == "/recommend" {
		m.mu.Lock()
		first := !m.seen[v]
		m.seen[v] = true
		m.mu.Unlock()
		if first {
			m.tr.add(m.tr.id(), 0, ref, m.name+".first_request", start, end)
		}
	}
}

// leadingID parses the request number from a body that starts with
// {"id":N; -1 when there is none.
func leadingID(body []byte) int64 {
	const prefix = `{"id":`
	if !bytes.HasPrefix(body, []byte(prefix)) {
		return -1
	}
	rest := body[len(prefix):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return -1
	}
	n, err := strconv.ParseInt(string(rest[:end]), 10, 64)
	if err != nil {
		return -1
	}
	return n
}
