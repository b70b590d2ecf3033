package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"testing/iotest"

	"profitmining/internal/feedback"
)

// TestReadSized pins the sized read: a declared length within presize
// reads into a slice of exactly that length; one past presize grows to
// exactly that length as bytes arrive; a short body is an error; and a
// body past the bound fails with *http.MaxBytesError, before any read
// when its length is declared and at the bound when it is not.
func TestReadSized(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789"), 10)
	for _, tc := range []struct {
		name      string
		r         io.Reader
		declared  int64
		limit     int64
		presize   int64
		want      []byte
		wantErr   error // compared with errors.Is
		wantLarge bool
	}{
		{name: "declared", r: bytes.NewReader(body), declared: 100, limit: 100, presize: 100, want: body},
		{name: "declared past presize", r: iotest.HalfReader(bytes.NewReader(body)), declared: 100, limit: 100, presize: 16, want: body},
		{name: "declared empty", r: bytes.NewReader(nil), declared: 0, limit: 100, presize: 100, want: []byte{}},
		{name: "undeclared", r: iotest.HalfReader(bytes.NewReader(body)), declared: -1, limit: 100, presize: 16, want: body},
		{name: "short", r: bytes.NewReader(body[:60]), declared: 100, limit: 100, presize: 100, wantErr: io.ErrUnexpectedEOF},
		{name: "short past presize", r: bytes.NewReader(body[:60]), declared: 100, limit: 100, presize: 16, wantErr: io.ErrUnexpectedEOF},
		{name: "declared past the bound", r: iotest.ErrReader(errors.New("read a body declared too large")), declared: 101, limit: 100, presize: 100, wantLarge: true},
		{name: "undeclared past the bound", r: bytes.NewReader(body), declared: -1, limit: 99, presize: 100, wantLarge: true},
	} {
		got, err := readSized(tc.r, tc.declared, tc.limit, tc.presize)
		var tooLarge *http.MaxBytesError
		switch {
		case tc.wantLarge:
			if !errors.As(err, &tooLarge) || tooLarge.Limit != tc.limit {
				t.Errorf("%s: err %v, want *http.MaxBytesError at %d", tc.name, err, tc.limit)
			}
		case tc.wantErr != nil:
			if !errors.Is(err, tc.wantErr) {
				t.Errorf("%s: err %v, want %v", tc.name, err, tc.wantErr)
			}
		case err != nil || !bytes.Equal(got, tc.want) || (tc.declared >= 0 && cap(got) != int(tc.declared)):
			t.Errorf("%s: read %d bytes (cap %d), err %v; want %d", tc.name, len(got), cap(got), err, len(tc.want))
		}
	}
}

// TestSegmentIntakeAllocatesAsBytesArrive: a POST /cluster/segment that
// declares maxShippedSegment bytes and sends none is a 400, and the
// coordinator allocates about peerPresize for it, not what it declared;
// a sender must send bytes to make the coordinator hold them.
func TestSegmentIntakeAllocatesAsBytesArrive(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h := coord.Handler()
	req := httptest.NewRequest(http.MethodPost, "/cluster/segment", bytes.NewReader(nil))
	req.ContentLength = maxShippedSegment
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("a declared but unsent segment answered %d %s, want 400", rec.Code, rec.Body)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("a segment declaring %d bytes and sending none allocated %d B, want at most 1 MiB", int64(maxShippedSegment), got)
	}
}

// TestModelPullBounded: a replica refuses an image whose declared
// length is past maxModelImage, and a truncated image, and takes a
// chunked one within the bound.
func TestModelPullBounded(t *testing.T) {
	image := testModel(t)
	for _, tc := range []struct {
		name    string
		handler http.HandlerFunc
		ok      bool
	}{
		{name: "declared past the bound", handler: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(maxModelImage+1))
			w.WriteHeader(http.StatusOK)
		}},
		{name: "truncated", handler: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(len(image)))
			w.WriteHeader(http.StatusOK)
			w.Write(image[:len(image)/2])
		}},
		{name: "chunked", ok: true, handler: func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			w.Write(image[:len(image)/2])
			w.(http.Flusher).Flush()
			w.Write(image[len(image)/2:])
		}},
	} {
		ts := httptest.NewServer(tc.handler)
		st := newStack(t, ts.URL, feedback.WALOptions{})
		changed, err := st.rep.SyncModel(context.Background())
		ts.Close()
		if tc.ok != (err == nil) || tc.ok != changed {
			t.Errorf("%s: sync changed %v, err %v", tc.name, changed, err)
		}
		if !tc.ok && st.reg.Active() != nil {
			t.Errorf("%s: the replica promoted a refused image", tc.name)
		}
	}
}
