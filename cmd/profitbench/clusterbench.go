package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"profitmining"
	"profitmining/internal/cluster"
	"profitmining/internal/core"
	"profitmining/internal/feedback"
	"profitmining/internal/registry"
	"profitmining/internal/serve"
)

// clusterReport is the schema of the -clusterbench JSON artifact
// (BENCH_cluster.json) consumed by CI. It runs a whole fleet in one
// process — three replica serve stacks plus a coordinator, all over
// real HTTP — and enforces the distributed tier's three acceptance
// gates: model-hash agreement plus bit-identical stats replay, bounded
// coordinator overhead, and zero dropped outcomes through a replica
// kill.
type clusterReport struct {
	Dataset    string  `json:"dataset"`
	Txns       int     `json:"txns"`
	Items      int     `json:"items"`
	MinSupport float64 `json:"minSupport"`
	Rules      int     `json:"rules"`
	Replicas   int     `json:"replicas"`

	HashAgreement bool `json:"hashAgreement"`

	BatchBaskets  int     `json:"batchBaskets"`
	BatchRequests int     `json:"batchRequests"`
	SingleP50Ms   float64 `json:"singleP50Ms"`
	SingleP99Ms   float64 `json:"singleP99Ms"`
	CoordP50Ms    float64 `json:"coordP50Ms"`
	CoordP99Ms    float64 `json:"coordP99Ms"`
	P99Ratio      float64 `json:"p99Ratio"`
	MaxP99Ratio   float64 `json:"maxP99Ratio"`

	OutcomesAcked      int64 `json:"outcomesAcked"`
	OutcomesAggregated int64 `json:"outcomesAggregated"`
	DroppedOutcomes    int64 `json:"droppedOutcomes"`

	ReplayIdentical bool `json:"replayIdentical"`

	GatesPassed bool `json:"gatesPassed"`
}

// clusterReplicas is the fleet size the bench stands up.
const clusterReplicas = 3

// benchStack is one in-process replica: the ordinary serve stack with a
// durable WAL plus its cluster shipping/sync client.
type benchStack struct {
	walDir string
	fb     *feedback.Collector
	reg    *registry.Registry
	ts     *httptest.Server
	rep    *cluster.Replica
	killed bool
}

// runClusterBench stands up the fleet, runs the three phases, writes
// BENCH_cluster.json, and exits non-zero if any gate fails.
func runClusterBench(name string, txns, items int, minsup float64, maxLen int, seed int64, requests int, maxRatio float64, out string) {
	ctx := context.Background()
	ds := genDataset(name, txns, items, seed)
	rec, err := profitmining.Build(ds, profitmining.Options{MinSupport: minsup, MaxBodyLen: maxLen})
	if err != nil {
		fail(err)
	}

	// Coordinator first: replicas need its URL to join.
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Drift: feedback.DriftConfig{},
	})
	if err != nil {
		fail(err)
	}
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()
	coord.SetModel(rec.Sealed().Bytes())

	stacks := make([]*benchStack, clusterReplicas)
	urls := make([]string, clusterReplicas)
	for i := range stacks {
		stacks[i] = newBenchStack(cts.URL)
		urls[i] = stacks[i].ts.URL
		defer os.RemoveAll(stacks[i].walDir)
		defer stacks[i].ts.Close()
	}
	coord.SetReplicas(urls)
	for _, st := range stacks {
		if _, err := st.rep.SyncModel(ctx); err != nil {
			fail(fmt.Errorf("clusterbench: model sync: %w", err))
		}
	}
	coord.CheckHealth(ctx)

	rep := clusterReport{
		Dataset:       name,
		Txns:          txns,
		Items:         items,
		MinSupport:    minsup,
		Rules:         rec.Stats().RulesFinal,
		Replicas:      clusterReplicas,
		BatchBaskets:  batchSize,
		BatchRequests: requests,
		MaxP99Ratio:   maxRatio,
	}

	// Phase 0 — hash agreement: content-hash sync must leave every
	// replica serving exactly the bytes the coordinator distributes.
	rep.HashAgreement = true
	for i, st := range stacks {
		//lint:allow atomiczone -- each iteration inspects a different replica's registry, not the same snapshot twice
		snap := st.reg.Active()
		if snap == nil || snap.Hash != coord.ModelHash() {
			rep.HashAgreement = false
			fmt.Printf("clusterbench: replica %d hash disagrees with coordinator\n", i)
		}
	}

	// Phase A — routing overhead: p99 of full batch-64 round trips,
	// single replica vs through the coordinator, both over real HTTP.
	baskets := probeBaskets(ds, 256)
	if len(baskets) == 0 {
		fail(fmt.Errorf("clusterbench: dataset produced no non-empty baskets"))
	}
	batchBody := batchPayload(ds.Catalog, baskets, batchSize)
	// Median of three interleaved rounds: with n requests per round the
	// p99 is within a sample or two of the max, so one GC pause or
	// scheduler hiccup landing in a coordinator-side sample would decide
	// the gate. A real routing overhead shows up in every round; a noise
	// spike shows up in one, and the median round discards it.
	type round struct {
		single, coord []float64
		ratio         float64
	}
	rounds := make([]round, 3)
	for i := range rounds {
		s, c := timeRequestsInterleaved(stacks[0].ts.URL+"/recommend/batch", cts.URL+"/recommend/batch", batchBody, requests)
		rounds[i] = round{single: s, coord: c, ratio: safeRatio(percentile(c, 0.99), percentile(s, 0.99))}
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i].ratio < rounds[j].ratio })
	med := rounds[len(rounds)/2]
	rep.SingleP50Ms = percentile(med.single, 0.50)
	rep.SingleP99Ms = percentile(med.single, 0.99)
	rep.CoordP50Ms = percentile(med.coord, 0.50)
	rep.CoordP99Ms = percentile(med.coord, 0.99)
	rep.P99Ratio = med.ratio

	// Phase B — kill one replica under outcome load: every /outcome the
	// coordinator acks must survive into the cluster aggregate, even the
	// ones acked by the replica that dies (its WAL outlives its socket
	// and re-ships on recovery).
	ruleID := firstRuleID(cts.URL, ds, baskets)
	const outcomeTotal = 200
	post := func(i int) {
		body := fmt.Sprintf(`{"requestID":"bench-%d","ruleID":%q,"modelVersion":1,"bought":true,"qty":1}`, i, ruleID)
		postOnce(cts.URL+"/outcome", []byte(body))
	}
	for i := 0; i < outcomeTotal/2; i++ {
		post(i)
	}
	// Kill the primary: the replica holding the most outcomes so far is
	// the one whose loss would drop data if the pipeline were lossy.
	kill := 0
	most := int64(-1)
	for i, st := range stacks {
		if n := replicaOutcomes(st.ts.URL); n > most {
			most, kill = n, i
		}
	}
	stacks[kill].ts.Close()
	stacks[kill].killed = true
	fmt.Printf("clusterbench: killed replica %d (%d outcomes acked so far) under load\n", kill, most)
	for i := outcomeTotal / 2; i < outcomeTotal; i++ {
		post(i)
	}
	rep.OutcomesAcked = outcomeTotal

	// Recovery: every replica — including the killed one, whose WAL is
	// intact — seals and ships its backlog to the coordinator.
	for i, st := range stacks {
		if _, err := st.rep.ShipNow(ctx); err != nil {
			fail(fmt.Errorf("clusterbench: replica %d ship: %w", i, err))
		}
	}
	rep.OutcomesAggregated = coord.Spool().Outcomes()
	rep.DroppedOutcomes = rep.OutcomesAcked - rep.OutcomesAggregated
	if rep.DroppedOutcomes < 0 {
		rep.DroppedOutcomes = 0
	}

	// Phase C — deterministic replay: the same segment set folded in
	// ascending and descending arrival order must produce byte-identical
	// cluster stats.
	rep.ReplayIdentical = replayBothWays(stacks)

	rep.GatesPassed = rep.HashAgreement &&
		rep.P99Ratio <= maxRatio &&
		rep.DroppedOutcomes == 0 &&
		rep.ReplayIdentical

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fail(err)
	}

	fmt.Printf("clusterbench: dataset %s |T|=%d |I|=%d minsup %g, %d rules, %d replicas\n",
		name, txns, items, minsup, rep.Rules, rep.Replicas)
	fmt.Printf("clusterbench: batch[%d] single p50 %.2fms p99 %.2fms; coordinator p50 %.2fms p99 %.2fms (ratio %.2f, max %.1f)\n",
		batchSize, rep.SingleP50Ms, rep.SingleP99Ms, rep.CoordP50Ms, rep.CoordP99Ms, rep.P99Ratio, maxRatio)
	fmt.Printf("clusterbench: outcomes acked %d, aggregated %d, dropped %d; replay identical: %v; report: %s\n",
		rep.OutcomesAcked, rep.OutcomesAggregated, rep.DroppedOutcomes, rep.ReplayIdentical, out)
	if !rep.GatesPassed {
		fail(fmt.Errorf("clusterbench: acceptance gates failed (hashAgreement=%v p99Ratio=%.2f dropped=%d replayIdentical=%v)",
			rep.HashAgreement, rep.P99Ratio, rep.DroppedOutcomes, rep.ReplayIdentical))
	}
	fmt.Println("clusterbench: all gates passed")
}

// newBenchStack builds one replica: durable-WAL collector, registry
// promoting into the collector, serve handler on a real listener, and
// the cluster client joined to the coordinator.
func newBenchStack(coordinatorURL string) *benchStack {
	walDir, err := os.MkdirTemp("", "clusterbench-wal-")
	if err != nil {
		fail(err)
	}
	fb, _, err := feedback.Open(feedback.Config{Dir: walDir})
	if err != nil {
		fail(err)
	}
	reg, err := registry.New(registry.Options{
		OnPromote: func(snap *registry.Snapshot) { serve.RegisterSnapshot(fb, snap) },
	})
	if err != nil {
		fail(err)
	}
	ts := httptest.NewServer(serve.NewRegistry(reg, nil, fb).Handler())
	rep, err := cluster.NewReplica(cluster.ReplicaConfig{
		NodeID:      ts.URL,
		Coordinator: coordinatorURL,
		Collector:   fb,
		WALDir:      walDir,
		Registry:    reg,
	})
	if err != nil {
		fail(err)
	}
	return &benchStack{walDir: walDir, fb: fb, reg: reg, ts: ts, rep: rep}
}

// timeRequestsInterleaved POSTs body n times to each of two endpoints,
// alternating request-by-request, and returns the per-request
// milliseconds for each, ascending. A short untimed warmup on both
// first establishes connections, so the percentiles measure steady
// state rather than the first TCP handshake. The interleaving matters
// for the p99 *ratio* gate: a transient load spike on the host lands in
// both distributions instead of inflating whichever side happened to be
// measured during it.
func timeRequestsInterleaved(urlA, urlB string, body []byte, n int) (a, b []float64) {
	for i := 0; i < 10; i++ {
		postOnce(urlA, body)
		postOnce(urlB, body)
	}
	timeOnce := func(url string) float64 {
		start := time.Now()
		postOnce(url, body)
		return float64(time.Since(start).Microseconds()) / 1e3
	}
	a = make([]float64, 0, n)
	b = make([]float64, 0, n)
	for i := 0; i < n; i++ {
		a = append(a, timeOnce(urlA))
		b = append(b, timeOnce(urlB))
	}
	sort.Float64s(a)
	sort.Float64s(b)
	return a, b
}

// postOnce POSTs one JSON body and fails the bench on any non-200.
func postOnce(url string, body []byte) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		fail(fmt.Errorf("clusterbench: POST %s: %w", url, err))
	}
	defer resp.Body.Close()
	//lint:allow droppederr -- best-effort diagnostic text for the failure message; the status code decides
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		fail(fmt.Errorf("clusterbench: POST %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(data)))
	}
}

// firstRuleID scores one basket through the coordinator and returns the
// top recommendation's rule ID — a real, reportable rule.
func firstRuleID(coordinatorURL string, ds *profitmining.Dataset, baskets []profitmining.Basket) string {
	for _, bk := range baskets {
		body, err := json.Marshal(toRecReq(ds.Catalog, bk, 1))
		if err != nil {
			fail(err)
		}
		resp, err := http.Post(coordinatorURL+"/recommend", "application/json", bytes.NewReader(body))
		if err != nil {
			fail(fmt.Errorf("clusterbench: recommend: %w", err))
		}
		var out struct {
			Recommendations []struct {
				RuleID string `json:"ruleID"`
			} `json:"recommendations"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err == nil && len(out.Recommendations) > 0 && out.Recommendations[0].RuleID != "" {
			return out.Recommendations[0].RuleID
		}
	}
	fail(fmt.Errorf("clusterbench: no basket produced a recommendation to report outcomes against"))
	return ""
}

// replicaOutcomes reads one replica's local outcome count from its
// /feedback/stats.
func replicaOutcomes(url string) int64 {
	resp, err := http.Get(url + "/feedback/stats")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	var body struct {
		Outcomes int64 `json:"outcomes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return -1
	}
	return body.Outcomes
}

// replayBothWays ingests every sealed segment of every replica into two
// fresh spools — ascending and descending arrival order — and reports
// whether the folded stats are byte-identical.
func replayBothWays(stacks []*benchStack) bool {
	type shipped struct {
		node string
		seq  int
		data []byte
	}
	var segs []shipped
	for _, st := range stacks {
		paths, err := feedback.SealedSegmentPaths(st.walDir)
		if err != nil {
			fail(err)
		}
		for _, p := range paths {
			seq, err := feedback.SegmentSeq(p)
			if err != nil {
				fail(err)
			}
			data, err := os.ReadFile(p)
			if err != nil {
				fail(err)
			}
			segs = append(segs, shipped{node: st.ts.URL, seq: seq, data: data})
		}
	}
	fold := func(reverse bool) []byte {
		s, err := cluster.NewSpool("", feedback.DriftConfig{})
		if err != nil {
			fail(err)
		}
		for i := range segs {
			sg := segs[i]
			if reverse {
				sg = segs[len(segs)-1-i]
			}
			if _, _, err := s.Ingest(sg.node, sg.seq, registry.HashBytes(sg.data), sg.data); err != nil {
				fail(err)
			}
		}
		out, err := json.Marshal(s.Stats(-1))
		if err != nil {
			fail(err)
		}
		return out
	}
	return bytes.Equal(fold(false), fold(true))
}

// batchSize is how many baskets each measured /recommend/batch request
// carries.
const batchSize = 64

// probeBaskets extracts up to n deterministic probe baskets (the
// non-target sales of the dataset's own transactions).
func probeBaskets(ds *profitmining.Dataset, n int) []profitmining.Basket {
	var out []profitmining.Basket
	for _, txn := range ds.Transactions {
		if len(txn.NonTarget) == 0 {
			continue
		}
		out = append(out, profitmining.Basket(txn.NonTarget))
		if len(out) == n {
			break
		}
	}
	return out
}

// saleReq / recReq / batchReq mirror the serve package's JSON request
// shapes (items by name, promotion codes by per-item index).
type saleReq struct {
	Item    string  `json:"item"`
	PromoIx int     `json:"promoIx"`
	Qty     float64 `json:"qty,omitempty"`
}

type recReq struct {
	Basket []saleReq `json:"basket"`
	K      int       `json:"k,omitempty"`
}

type batchReq struct {
	Baskets []recReq `json:"baskets"`
}

func toRecReq(cat *profitmining.Catalog, bk profitmining.Basket, k int) recReq {
	req := recReq{K: k}
	for _, sl := range bk {
		req.Basket = append(req.Basket, saleReq{
			Item:    cat.Item(sl.Item).Name,
			PromoIx: core.PromoIndex(cat, sl.Item, sl.Promo),
			Qty:     sl.Qty,
		})
	}
	return req
}

func batchPayload(cat *profitmining.Catalog, baskets []profitmining.Basket, size int) []byte {
	var req batchReq
	for i := 0; i < size; i++ {
		req.Baskets = append(req.Baskets, toRecReq(cat, baskets[i%len(baskets)], 2))
	}
	data, err := json.Marshal(req)
	if err != nil {
		fail(err)
	}
	return data
}

// percentile returns the p-quantile of ascending xs (nearest-rank).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(p * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}
