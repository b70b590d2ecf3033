package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"profitmining/internal/feedback"
	"profitmining/internal/registry"
	"profitmining/internal/serve"
)

// node is one in-process serve stack on loopback: a feedback collector
// journaling to an on-disk WAL with an fsync on every append (the
// profitserve default), a registry that promotes on submit, and the
// serve handler behind the timing middleware.
type node struct {
	walDir string
	fb     *feedback.Collector
	reg    *registry.Registry
	ts     *httptest.Server
}

// newNode opens the collector and registry; start puts the handler on a
// listener once a model is loaded.
func newNode(dir, name string) (*node, error) {
	walDir := filepath.Join(dir, name+"-wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, err
	}
	fb, _, err := feedback.Open(feedback.Config{Dir: walDir, WAL: feedback.WALOptions{SyncEvery: 1}})
	if err != nil {
		return nil, fmt.Errorf("opening feedback log: %w", err)
	}
	reg, err := registry.New(registry.Options{
		OnPromote: func(snap *registry.Snapshot) { serve.RegisterSnapshot(fb, snap) },
	})
	if err != nil {
		fb.Close()
		return nil, err
	}
	return &node{walDir: walDir, fb: fb, reg: reg}, nil
}

// start serves the node's registry on a loopback listener.
func (n *node) start(tr *tracer, reload serve.Reloader, name string, parentBase uint64) {
	n.ts = httptest.NewServer(newTiming(tr, serve.NewRegistry(n.reg, reload, n.fb).Handler(), name, parentBase, 0))
}

// close stops the listener, waits for in-flight requests and closes the
// collector.
func (n *node) close() {
	if n.ts != nil {
		n.ts.Close()
	}
	n.fb.Close()
}

// checkOutcomes verifies that every acked outcome is counted once in the
// node's /feedback/stats and journaled in its WAL. acked holds the
// requestIDs of every outcome this node acked.
func (n *node) checkOutcomes(acked []string) error {
	if err := n.fb.Sync(); err != nil {
		return fmt.Errorf("syncing feedback log: %w", err)
	}
	var stats struct {
		Outcomes int64 `json:"outcomes"`
	}
	if err := getJSON(n.ts.URL+"/feedback/stats?limit=1", &stats); err != nil {
		return err
	}
	if stats.Outcomes != int64(len(acked)) {
		return fmt.Errorf("/feedback/stats counts %d outcomes, %d were acked", stats.Outcomes, len(acked))
	}
	journaled, err := replayOutcomes(n.walDir)
	if err != nil {
		return err
	}
	return sameSet(journaled, acked)
}

// replayOutcomes returns the requestIDs of every outcome record in a WAL
// directory.
func replayOutcomes(dir string) ([]string, error) {
	var ids []string
	_, err := feedback.Replay(dir, func(payload []byte) error {
		var rec struct {
			Kind      string `json:"kind"`
			RequestID string `json:"requestID"`
		}
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		if rec.Kind == "outcome" {
			ids = append(ids, rec.RequestID)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("replaying feedback log: %w", err)
	}
	return ids, nil
}

// sameSet reports whether got holds exactly the IDs of want, each once.
func sameSet(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("WAL replay holds %d outcomes, %d were acked", len(got), len(want))
	}
	g := append([]string(nil), got...)
	w := append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("WAL replay holds outcome %q where %q was acked", g[i], w[i])
		}
	}
	return nil
}

func getJSON(url string, v any) error {
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// openLoopRef reports whether a span's request number belongs to one of
// the n events of the measured open loop or to the outcome reported for
// one, rather than to warm-up, a probe or serve's closed loop, whose
// request numbers start at n.
func openLoopRef(ref, n int64) bool {
	return ref >= 0 && ref < n || ref >= outcomeIDBase && ref < outcomeIDBase+n
}

// servingLayers fills the per-layer metrics every serving workload
// shares from the spans of the n events of its measured open loop, the
// same requests the end-to-end latencies come from, and from the
// client-side results.
func servingLayers(layer map[string]float64, spans []span, handler string, lr *loadResult, n int64) {
	var rec, batch, outcome []float64
	var measured []span
	for _, s := range spans {
		if !openLoopRef(s.Ref, n) {
			continue
		}
		measured = append(measured, s)
		switch s.Name {
		case handler + "./recommend":
			rec = append(rec, s.dur().Seconds()*1e6)
		case handler + "./recommend/batch":
			batch = append(batch, s.dur().Seconds()*1e6)
		case handler + "./outcome":
			outcome = append(outcome, s.dur().Seconds()*1e6)
		}
	}
	layer["serve.recommend_us_p50"] = percentile(rec, 0.50)
	layer["serve.recommend_us_p95"] = percentile(rec, 0.95)
	layer["serve.batch_us_p50"] = percentile(batch, 0.50)
	layer["serve.outcome_us_p50"] = percentile(outcome, 0.50)
	// The client span's only child is the handler span: its self time is
	// the network and client share of the request.
	layer["net.recommend_us_p50"] = percentile(selfTimes(measured, "loadgen./recommend"), 0.50) * 1e6

	var first []float64
	for _, s := range spans {
		if s.Name == handler+".first_request" && openLoopRef(s.Ref, n) {
			first = append(first, ms(s.dur()))
		}
	}
	layer["serve.first_request_ms"] = median(first)
	clientLayers(layer, lr)
}

// clientLayers fills the load generator's own metrics and the
// client-side latencies that only the serving workloads have.
func clientLayers(layer map[string]float64, lr *loadResult) {
	layer["loadgen.late_ratio"] = ratio(float64(lr.late), float64(len(lr.lagUS)))
	layer["loadgen.send_lag_us_p95"] = percentile(lr.lagUS, 0.95)
	layer["client.recommend_n"] = float64(len(lr.recommend))
	layer["client.outcome_p50_ms"] = percentile(lr.outcome, 0.50)
	layer["client.outcome_p95_ms"] = percentile(lr.outcome, 0.95)
	layer["client.outcome_n"] = float64(len(lr.outcome))
	layer["client.batch_p50_ms"] = percentile(lr.batch, 0.50)
	layer["client.batch_p95_ms"] = percentile(lr.batch, 0.95)
	layer["client.batch_n"] = float64(len(lr.batch))
	layer["serve.recommend_p99_ms"] = percentile(lr.recommend, 0.99)
	layer["serve.recommend_max_ms"] = percentile(lr.recommend, 1)
	layer["feedback.outcomes_acked"] = float64(len(lr.acked))
}
