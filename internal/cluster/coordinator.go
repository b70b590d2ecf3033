package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"profitmining/internal/feedback"
	"profitmining/internal/modelio"
	"profitmining/internal/serve"
)

// Request-body caps, mirroring the serve package's intake discipline so
// the coordinator rejects oversized requests before fanning them out.
const (
	maxRecommendBody = 1 << 20
	maxBatchBody     = 8 << 20
	maxOutcomeBody   = 64 << 10
	maxBatchBaskets  = 1024
)

// Coordinator timing.
const (
	// healthEvery is the health-check cadence, and the backoff after a
	// 503 that carries no Retry-After.
	healthEvery = time.Second

	// attemptTimeout bounds each proxied request attempt and each health
	// probe.
	attemptTimeout = 5 * time.Second

	// hedgeAfter is how long a recommend route waits on one replica
	// before racing a second attempt against the next: hedging is how a
	// stalled replica is survived without burning the whole attempt
	// timeout.
	hedgeAfter = 250 * time.Millisecond
)

// CoordinatorConfig wires a Coordinator.
type CoordinatorConfig struct {
	// Replicas are the base URLs of the replica fleet
	// (e.g. "http://10.0.0.1:8080").
	Replicas []string

	// SpoolDir persists shipped segments ("" = memory only).
	SpoolDir string

	// Drift tunes the cluster-wide Page-Hinkley detector.
	Drift feedback.DriftConfig

	// OnDrift fires once per cluster drift episode (keyed by the model
	// content key in the aggregated stream), from its own goroutine —
	// the hook that triggers the single delta refresh.
	OnDrift func()

	// Model, when non-empty, is the initial sealed model image
	// distributed to replicas via /cluster/model; NewCoordinator fails
	// on anything else. It is kept as SetModel keeps its image, so the
	// caller must not modify it afterwards.
	Model []byte

	// Logf receives operational log lines (nil discards).
	Logf func(format string, args ...any)
}

// replicaState tracks one replica's routing eligibility. healthy is
// maintained by the health loop; skipUntil implements Retry-After
// backoff so a draining replica is not hot-looped.
type replicaState struct {
	name      string
	healthy   atomic.Bool
	skipUntil atomic.Int64 // unix nanos; 0 = no backoff
}

func (rs *replicaState) usable(now time.Time) bool {
	return rs.healthy.Load() && now.UnixNano() >= rs.skipUntil.Load()
}

func (rs *replicaState) backoff(d time.Duration) {
	rs.skipUntil.Store(time.Now().Add(d).UnixNano())
}

// modelBlob is the currently distributed model image.
type modelBlob struct {
	data []byte
	hash string
}

// Coordinator is the cluster front: stateless request routing over the
// replica fleet plus the stateful segment spool that makes it the
// single place cluster-wide drift is decided.
type Coordinator struct {
	cfg    CoordinatorConfig
	client *http.Client
	logf   func(string, ...any)
	spool  *Spool

	mu       sync.Mutex // guards replicas swaps and drift episodes
	replicas []*replicaState
	lastKey  string // model key of the last drift episode already fired

	// Each single-object route rotates its own attempt order, so a
	// client alternating /recommend and /outcome spreads both.
	recommendTurn, outcomeTurn atomic.Uint64

	model atomic.Pointer[modelBlob]

	proxied       atomic.Int64 // requests routed to replicas
	hedges        atomic.Int64 // extra attempts launched because the current one was slow
	failovers     atomic.Int64 // extra attempts launched because the current one failed
	hedgeWins     atomic.Int64 // forwarded requests won by a non-primary attempt
	replicaErrors atomic.Int64 // attempts that failed
	outcomes      atomic.Int64 // outcome reports proxied
	skews         atomic.Int64 // batch fan-outs that observed >1 model version
}

// NewCoordinator builds a coordinator over the given fleet. The health
// loop (Run) and at least one replica are required for routing, but a
// coordinator with an empty fleet still aggregates segments.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	spool, err := NewSpool(cfg.SpoolDir, cfg.Drift)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:    cfg,
		client: &http.Client{Timeout: attemptTimeout},
		logf:   logf,
		spool:  spool,
	}
	c.SetReplicas(cfg.Replicas)
	if len(cfg.Model) > 0 && c.SetModel(cfg.Model) == "" {
		return nil, fmt.Errorf("cluster: the initial model is not a sealed image (%d bytes)", len(cfg.Model))
	}
	return c, nil
}

// SetReplicas swaps the fleet. Known replicas keep their health state;
// new ones start optimistic (healthy) so they are routable before the
// first health pass — failover covers a wrong guess.
func (c *Coordinator) SetReplicas(names []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := make(map[string]*replicaState, len(c.replicas))
	for _, rs := range c.replicas {
		old[rs.name] = rs
	}
	states := make([]*replicaState, 0, len(names))
	for _, name := range names {
		name = strings.TrimRight(name, "/")
		if rs, ok := old[name]; ok {
			states = append(states, rs)
			continue
		}
		rs := &replicaState{name: name}
		rs.healthy.Store(true)
		states = append(states, rs)
	}
	c.replicas = states
}

// SetModel publishes a new sealed model image for replica pull and
// returns its identity, the image's embedded digest: replicas compare
// it against their active snapshot and pull only when it changes.
// Anything but a sealed image is refused (nothing is published, and
// the result is "").
//
// The coordinator keeps data itself, not a copy, and serves it until
// the next SetModel: the caller must not modify it afterwards. A
// sealed image handed out by core is never modified, and replicas
// verify every image they pull.
func (c *Coordinator) SetModel(data []byte) string {
	hash := modelio.ContentHash(data)
	if hash == "" {
		c.logf("cluster: refusing to distribute a model that is not a sealed image (%d bytes)", len(data))
		return ""
	}
	blob := &modelBlob{data: data, hash: hash}
	c.model.Store(blob)
	c.logf("cluster: distributing model %.8s (%d bytes)", blob.hash, len(blob.data))
	return blob.hash
}

// ModelHash returns the hash of the currently distributed model ("" if
// none).
func (c *Coordinator) ModelHash() string {
	if b := c.model.Load(); b != nil {
		return b.hash
	}
	return ""
}

// Spool exposes the segment spool (for tests and benches).
func (c *Coordinator) Spool() *Spool { return c.spool }

// Run drives the health loop until ctx is done. The first pass runs
// immediately.
func (c *Coordinator) Run(ctx context.Context) {
	ticker := time.NewTicker(healthEvery)
	defer ticker.Stop()
	for {
		c.CheckHealth(ctx)
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// CheckHealth performs one health pass over the fleet. A 503 marks the
// replica down and honors its Retry-After; any other failure marks it
// down until the next pass.
func (c *Coordinator) CheckHealth(ctx context.Context) {
	c.mu.Lock()
	replicas := c.replicas
	c.mu.Unlock()
	var wg sync.WaitGroup
	for _, rs := range replicas {
		wg.Add(1)
		go func(rs *replicaState) {
			defer wg.Done()
			reqCtx, cancel := context.WithTimeout(ctx, attemptTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, rs.name+"/healthz", nil)
			if err != nil {
				rs.healthy.Store(false)
				return
			}
			resp, err := c.client.Do(req)
			if err != nil {
				if rs.healthy.Load() {
					c.logf("cluster: replica %s unhealthy: %v", rs.name, err)
				}
				rs.healthy.Store(false)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch {
			case resp.StatusCode == http.StatusOK:
				if !rs.healthy.Load() {
					c.logf("cluster: replica %s healthy", rs.name)
				}
				rs.healthy.Store(true)
				rs.skipUntil.Store(0)
			case resp.StatusCode == http.StatusServiceUnavailable:
				// Draining or model-less: back off per Retry-After instead
				// of hammering it every pass.
				rs.healthy.Store(false)
				rs.backoff(retryAfter(resp, healthEvery))
			default:
				rs.healthy.Store(false)
			}
		}(rs)
	}
	wg.Wait()
}

// order returns the attempt order of one request: the usable replicas
// rotated by start, then the unusable ones in fleet order. Every
// replica holds the same sealed image and answers the same basket
// alike, so the rotation only spreads load. With no usable replica
// every replica counts as usable — a stale health verdict must not turn
// into a refused request when a replica would in fact have answered.
// usable is how many lead the order.
func (c *Coordinator) order(start uint64) (order []*replicaState, usable int) {
	c.mu.Lock()
	replicas := c.replicas
	c.mu.Unlock()
	now := time.Now()
	up := make([]*replicaState, 0, len(replicas))
	var down []*replicaState
	for _, rs := range replicas {
		if rs.usable(now) {
			up = append(up, rs)
		} else {
			down = append(down, rs)
		}
	}
	if len(up) == 0 {
		up, down = down, nil
	}
	order = make([]*replicaState, 0, len(replicas))
	for i := range up {
		order = append(order, up[(start+uint64(i))%uint64(len(up))])
	}
	return append(order, down...), len(up)
}

// proxyResult is one replica's answer to a forwarded request.
type proxyResult struct {
	status  int
	header  http.Header
	body    []byte
	replica string
}

// forward sends body to path on the replicas of order. The next
// replica is tried when the current attempt fails outright and, if
// hedge is set, also raced when the current attempt has not answered
// within hedgeAfter. The first conclusive answer (anything below 500)
// wins; 5xx and transport errors fall through to the next replica. A
// replica that answers 503 is backed off per its Retry-After. Only an
// idempotent request may hedge: a raced duplicate of a write is
// performed twice.
func (c *Coordinator) forward(ctx context.Context, method, path string, header http.Header, body []byte, order []*replicaState, hedge bool) (*proxyResult, error) {
	if len(order) == 0 {
		return nil, errors.New("no replicas configured")
	}
	type attempt struct {
		idx int // position in the attempt order; 0 is the primary
		res *proxyResult
		err error
	}
	results := make(chan attempt, len(order))
	launched := 0
	launch := func() {
		rs, idx := order[launched], launched
		launched++
		go func() {
			res, err := c.attempt(ctx, rs, method, path, header, body)
			results <- attempt{idx, res, err}
		}()
	}
	launch()
	pending := 1
	var lastErr error
	sawUnavailable := false
	// A nil channel never fires: without hedging the timer does not exist.
	var timer *time.Timer
	var slow <-chan time.Time
	if hedge {
		timer = time.NewTimer(hedgeAfter)
		defer timer.Stop()
		slow = timer.C
	}
	for pending > 0 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-slow:
			// The outstanding attempt is slow; hedge onto the next
			// replica rather than waiting out its full timeout.
			if launched < len(order) {
				c.hedges.Add(1)
				launch()
				pending++
				timer.Reset(hedgeAfter)
			}
		case a := <-results:
			pending--
			if a.err == nil && a.res.status < http.StatusInternalServerError {
				if a.idx > 0 {
					c.hedgeWins.Add(1)
				}
				return a.res, nil
			}
			c.replicaErrors.Add(1)
			if a.err != nil {
				lastErr = a.err
			} else {
				lastErr = fmt.Errorf("%s answered %d", a.res.replica, a.res.status)
				if a.res.status == http.StatusServiceUnavailable {
					sawUnavailable = true
				}
			}
			if launched < len(order) {
				c.failovers.Add(1)
				launch()
				pending++
				if timer != nil {
					if !timer.Stop() {
						select {
						case <-timer.C:
						default:
						}
					}
					timer.Reset(hedgeAfter)
				}
			}
		}
	}
	if sawUnavailable {
		return nil, fmt.Errorf("fleet unavailable: %w", lastErr)
	}
	return nil, lastErr
}

// attempt performs one forwarded request against one replica.
func (c *Coordinator) attempt(ctx context.Context, rs *replicaState, method, path string, header http.Header, body []byte) (*proxyResult, error) {
	reqCtx, cancel := context.WithTimeout(ctx, attemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, method, rs.name+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	resp, err := c.client.Do(req)
	if err != nil {
		rs.healthy.Store(false)
		return nil, fmt.Errorf("%s: %w", rs.name, err)
	}
	defer resp.Body.Close()
	data, err := readSized(resp.Body, resp.ContentLength, maxReplicaAnswer, peerPresize)
	if err != nil {
		return nil, fmt.Errorf("%s: reading response: %w", rs.name, err)
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		rs.backoff(retryAfter(resp, healthEvery))
	}
	return &proxyResult{status: resp.StatusCode, header: resp.Header, body: data, replica: rs.name}, nil
}

// Handler returns the coordinator's HTTP routes:
//
//	GET  /healthz          — fleet health, spool size, cluster drift flag
//	POST /recommend        — forward one basket (rotation, hedged)
//	POST /recommend/batch  — fan out a batch with per-basket isolation
//	POST /outcome          — forward an outcome report (rotation, never hedged)
//	GET  /feedback/stats   — deterministic cluster-wide accounting
//	GET  /metrics          — merged fleet + coordinator counters
//	GET  /version          — merged model/build view, skew detection
//	POST /cluster/segment  — replica WAL-segment shipping intake
//	GET  /cluster/model    — model image download (content-addressed)
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", c.health)
	mux.HandleFunc("/recommend", c.recommend)
	mux.HandleFunc("/recommend/batch", c.recommendBatch)
	mux.HandleFunc("/outcome", c.outcome)
	mux.HandleFunc("/feedback/stats", c.feedbackStats)
	mux.HandleFunc("/metrics", c.metrics)
	mux.HandleFunc("/version", c.version)
	mux.HandleFunc("/cluster/segment", c.ingestSegment)
	mux.HandleFunc("/cluster/model", c.serveModel)
	return mux
}

func (c *Coordinator) health(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		failJSON(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	c.mu.Lock()
	total := len(c.replicas)
	healthy := 0
	now := time.Now()
	for _, rs := range c.replicas {
		if rs.usable(now) {
			healthy++
		}
	}
	c.mu.Unlock()
	drifting, _ := c.spool.Drift()
	body := map[string]any{
		"status":   "ok",
		"role":     "coordinator",
		"replicas": total,
		"healthy":  healthy,
		"segments": c.spool.Segments(),
		"outcomes": c.spool.Outcomes(),
		"drifting": drifting,
	}
	if healthy == 0 && total > 0 {
		body["status"] = "no healthy replicas"
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// readBody enforces the shared POST intake discipline (405/413) and
// returns the raw body for forwarding.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	if r.Method != http.MethodPost {
		failJSON(w, http.StatusMethodNotAllowed, "POST only")
		return nil, false
	}
	data, err := readSized(r.Body, r.ContentLength, limit, peerPresize)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			failJSON(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return nil, false
		}
		failJSON(w, http.StatusBadRequest, "reading request: "+err.Error())
		return nil, false
	}
	return data, true
}

// proxyPost forwards one single-object POST (recommend, outcome) along
// the attempt order that starts at turn's next value, with failover,
// hedged when the request is idempotent, and relays the replica's
// status, body and model-version header. The body is forwarded as it
// arrived: the replica decodes it and reports a malformed one itself.
func (c *Coordinator) proxyPost(w http.ResponseWriter, r *http.Request, path string, limit int64, turn *atomic.Uint64, hedge bool) {
	body, ok := readBody(w, r, limit)
	if !ok {
		return
	}
	order, _ := c.order(turn.Add(1) - 1)
	header := http.Header{"Content-Type": r.Header["Content-Type"]}
	res, err := c.forward(r.Context(), http.MethodPost, path, header, body, order, hedge)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		failJSON(w, http.StatusServiceUnavailable, "no replica answered: "+err.Error())
		return
	}
	c.proxied.Add(1)
	if v := res.header.Get(versionHeader); v != "" {
		w.Header().Set(versionHeader, v)
	}
	if ra := res.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.status)
	w.Write(res.body)
}

func (c *Coordinator) recommend(w http.ResponseWriter, r *http.Request) {
	c.proxyPost(w, r, "/recommend", maxRecommendBody, &c.recommendTurn, true)
}

func (c *Coordinator) outcome(w http.ResponseWriter, r *http.Request) {
	c.outcomes.Add(1)
	c.proxyPost(w, r, "/outcome", maxOutcomeBody, &c.outcomeTurn, false)
}

// batchGroup is one replica-bound slice of a fanned-out batch: the
// baskets [lo, hi) of the request and their attempt order.
type batchGroup struct {
	order  []*replicaState
	lo, hi int
}

// recommendBatch fans a batch out over the fleet and merges the
// per-basket results back into request order. The batch is split into
// contiguous chunks across the usable replicas (every replica holds the
// full model); a failed sub-request fails over replica by replica, and
// only baskets whose every attempt failed degrade — to per-basket
// errors, never a failed batch.
func (c *Coordinator) recommendBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxBatchBody)
	if !ok {
		return
	}
	var req struct {
		Baskets []json.RawMessage `json:"baskets"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		failJSON(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	if len(req.Baskets) > maxBatchBaskets {
		failJSON(w, http.StatusBadRequest,
			fmt.Sprintf("batch holds %d baskets; the limit is %d", len(req.Baskets), maxBatchBaskets))
		return
	}

	groups := c.groupBaskets(len(req.Baskets))
	results := make([]json.RawMessage, len(req.Baskets))
	versions := make([]int, len(groups))
	var wg sync.WaitGroup
	for gi, g := range groups {
		wg.Add(1)
		go func(gi int, g batchGroup) {
			defer wg.Done()
			out := results[g.lo:g.hi]
			subBody, err := json.Marshal(map[string]any{"baskets": req.Baskets[g.lo:g.hi]})
			if err != nil {
				fillErrors(out, "encoding sub-batch: "+err.Error())
				return
			}
			header := http.Header{"Content-Type": []string{"application/json"}}
			res, err := c.forward(r.Context(), http.MethodPost, "/recommend/batch", header, subBody, g.order, true)
			if err != nil {
				fillErrors(out, "no replica answered: "+err.Error())
				return
			}
			var subResp struct {
				Results      []json.RawMessage `json:"results"`
				ModelVersion int               `json:"modelVersion"`
				Error        string            `json:"error"`
			}
			if err := json.Unmarshal(res.body, &subResp); err != nil || (res.status != http.StatusOK) {
				msg := subResp.Error
				if msg == "" {
					msg = fmt.Sprintf("replica answered %d", res.status)
				}
				fillErrors(out, msg)
				return
			}
			if len(subResp.Results) != len(out) {
				fillErrors(out, "replica returned a mis-sized batch")
				return
			}
			versions[gi] = subResp.ModelVersion
			copy(out, subResp.Results)
		}(gi, g)
	}
	wg.Wait()
	c.proxied.Add(1)

	// One model version for the envelope: the maximum across groups.
	// Replicas converge on identical bytes via content-hash sync, so a
	// spread here is transient promotion skew — counted for /metrics.
	version := 0
	distinct := map[int]bool{}
	for _, v := range versions {
		if v > 0 {
			distinct[v] = true
			if v > version {
				version = v
			}
		}
	}
	if len(distinct) > 1 {
		c.skews.Add(1)
	}

	w.Header().Set(versionHeader, strconv.Itoa(version))
	w.Header().Set("Content-Type", "application/json")
	var buf bytes.Buffer
	buf.WriteString(`{"results":[`)
	for i, res := range results {
		if i > 0 {
			buf.WriteByte(',')
		}
		if res == nil {
			buf.WriteString(`{"error":"basket was not scored"}`)
			continue
		}
		buf.Write(res)
	}
	buf.WriteString(`],"modelVersion":`)
	buf.WriteString(strconv.Itoa(version))
	buf.WriteString("}\n")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// groupBaskets splits n baskets into contiguous chunks, one per usable
// replica and at most one per basket. Group g takes the attempt order
// that starts at g, so each group leads with a different replica and
// fails over to a different backup.
func (c *Coordinator) groupBaskets(n int) []batchGroup {
	_, usable := c.order(0)
	groups := make([]batchGroup, min(usable, n))
	for g := range groups {
		order, _ := c.order(uint64(g))
		groups[g] = batchGroup{order: order, lo: g * n / len(groups), hi: (g + 1) * n / len(groups)}
	}
	return groups
}

// fillErrors degrades a group's baskets to per-basket errors.
func fillErrors(results []json.RawMessage, msg string) {
	blob, err := json.Marshal(map[string]string{"error": msg})
	if err != nil {
		blob = []byte(`{"error":"replica unavailable"}`)
	}
	for i := range results {
		results[i] = blob
	}
}

// feedbackStats serves the deterministic cluster-wide accounting: a
// pure fold over the admitted segment set in spool-key order, so the
// response bytes are identical on every coordinator that holds the
// same segments, regardless of arrival interleaving.
func (c *Coordinator) feedbackStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		failJSON(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	limit := 50
	if q := r.URL.Query().Get("limit"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			failJSON(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		limit = v
	}
	writeJSON(w, http.StatusOK, c.spool.Stats(limit))
}

// fetchJSON GETs path from every replica in parallel (health-agnostic:
// a down replica reports its error instead of vanishing from the view).
func (c *Coordinator) fetchJSON(ctx context.Context, path string) map[string]map[string]any {
	c.mu.Lock()
	replicas := c.replicas
	c.mu.Unlock()
	out := make(map[string]map[string]any, len(replicas))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, rs := range replicas {
		wg.Add(1)
		go func(rs *replicaState) {
			defer wg.Done()
			entry := map[string]any{"healthy": rs.healthy.Load()}
			res, err := c.attempt(ctx, rs, http.MethodGet, path, nil, nil)
			if err != nil {
				entry["error"] = err.Error()
			} else if res.status != http.StatusOK {
				entry["error"] = fmt.Sprintf("status %d", res.status)
			} else {
				var body map[string]any
				if err := json.Unmarshal(res.body, &body); err != nil {
					entry["error"] = "undecodable response"
				} else {
					entry["report"] = body
				}
			}
			mu.Lock()
			out[rs.name] = entry
			mu.Unlock()
		}(rs)
	}
	wg.Wait()
	return out
}

// metrics merges the fleet's /metrics with the coordinator's own
// counters and the spool state.
func (c *Coordinator) metrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		failJSON(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	perReplica := c.fetchJSON(r.Context(), "/metrics")
	var recommendations, badRequests float64
	healthy := 0
	for _, entry := range perReplica {
		rep, ok := entry["report"].(map[string]any)
		if !ok {
			continue
		}
		healthy++
		if v, ok := rep["recommendations"].(float64); ok {
			recommendations += v
		}
		if v, ok := rep["badRequests"].(float64); ok {
			badRequests += v
		}
	}
	drifting, episodeKey := c.spool.Drift()
	writeJSON(w, http.StatusOK, map[string]any{
		"fleet": map[string]any{
			"replicas":  len(perReplica),
			"reporting": healthy,
		},
		"aggregate": map[string]any{
			"recommendations": recommendations,
			"badRequests":     badRequests,
		},
		"coordinator": map[string]any{
			"proxied":       c.proxied.Load(),
			"hedges":        c.hedges.Load(),
			"hedgeWins":     c.hedgeWins.Load(),
			"failovers":     c.failovers.Load(),
			"replicaErrors": c.replicaErrors.Load(),
			"outcomes":      c.outcomes.Load(),
			"versionSkews":  c.skews.Load(),
			"segments":      c.spool.Segments(),
			"spoolOutcomes": c.spool.Outcomes(),
			"drifting":      drifting,
			"episodeKey":    episodeKey,
		},
		"replicas": perReplica,
	})
}

// version merges the fleet's /version views and flags model skew: with
// content-hash distribution every replica must converge on the same
// model hash, so a lasting spread means a replica is failing to sync.
func (c *Coordinator) version(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		failJSON(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	perReplica := c.fetchJSON(r.Context(), "/version")
	hashes := map[string]bool{}
	for _, entry := range perReplica {
		if rep, ok := entry["report"].(map[string]any); ok {
			if h, ok := rep["hash"].(string); ok && h != "" {
				hashes[h] = true
			}
		}
	}
	distinct := make([]string, 0, len(hashes))
	for h := range hashes {
		distinct = append(distinct, h)
	}
	sort.Strings(distinct)
	writeJSON(w, http.StatusOK, map[string]any{
		"coordinator": map[string]any{
			"modelHash": c.ModelHash(),
			"build":     serve.BuildInfo(),
		},
		"skew":     len(distinct) > 1,
		"hashes":   distinct,
		"replicas": perReplica,
	})
}

// ingestSegment is the shipping intake: verify, admit, and re-evaluate
// cluster drift. Admission is idempotent by spool key, so a replica
// that restarts and re-ships its whole backlog costs one hash check
// per segment, not double counting.
func (c *Coordinator) ingestSegment(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxShippedSegment)
	if !ok {
		return
	}
	claimed := r.Header.Get(segmentHashHeader)
	node := r.Header.Get(nodeIDHeader)
	seqStr := r.Header.Get(segmentSeqHeader)
	if claimed == "" || node == "" || seqStr == "" {
		failJSON(w, http.StatusBadRequest,
			segmentHashHeader+", "+nodeIDHeader+" and "+segmentSeqHeader+" are required")
		return
	}
	seq, err := strconv.Atoi(seqStr)
	if err != nil {
		failJSON(w, http.StatusBadRequest, segmentSeqHeader+" must be an integer")
		return
	}
	key, added, err := c.spool.Ingest(node, seq, claimed, body)
	if err != nil {
		failJSON(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	if added {
		c.logf("cluster: segment %.8s from %s admitted (%d bytes, %d total)", claimed, node, len(body), c.spool.Segments())
		c.evaluateDrift()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"key":      key,
		"added":    added,
		"segments": c.spool.Segments(),
		"outcomes": c.spool.Outcomes(),
	})
}

// evaluateDrift fires the cluster OnDrift hook at most once per model
// episode: the deterministic fold decides *whether* the fleet drifted,
// and the episode key (the model content key in the aggregated stream)
// decides whether this alarm was already answered — so N replicas
// shipping the same bad news trigger exactly one delta refresh.
func (c *Coordinator) evaluateDrift() {
	drifting, key := c.spool.Drift()
	if !drifting || key == "" {
		return
	}
	c.mu.Lock()
	fire := key != c.lastKey
	if fire {
		c.lastKey = key
	}
	c.mu.Unlock()
	if !fire {
		return
	}
	c.logf("cluster: cluster-wide drift detected (model episode %.8s)", key)
	if c.cfg.OnDrift != nil {
		//lint:allow leakcheck -- fire-and-forget by documented contract, mirroring the collector's OnDrift: the refresh owner serializes and bounds its own work, and segment ingestion must not block on it
		go c.cfg.OnDrift()
	}
}

// serveModel distributes the current model image. Conditional by
// content hash: a replica that already serves these bytes gets 304 and
// no body.
func (c *Coordinator) serveModel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		failJSON(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	blob := c.model.Load()
	if blob == nil {
		w.Header().Set("Retry-After", "1")
		failJSON(w, http.StatusServiceUnavailable, "no model published yet")
		return
	}
	w.Header().Set(modelHashHeader, blob.hash)
	if r.Header.Get("If-None-Match") == blob.hash || r.URL.Query().Get("have") == blob.hash {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob.data)))
	w.WriteHeader(http.StatusOK)
	if r.Method == http.MethodGet {
		w.Write(blob.data)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	data, err := json.Marshal(v)
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":"internal encoding error"}`))
		return
	}
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

func failJSON(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
