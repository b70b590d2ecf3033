package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"profitmining/internal/core"
	"profitmining/internal/datagen"
	"profitmining/internal/feedback"
	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
	"profitmining/internal/model"
	"profitmining/internal/quest"
)

// maxCoordinatorP90Ratio bounds BenchmarkCoordinatorOverhead: a batch
// routed through the coordinator may take at most this many times the
// p90 of the same batch sent straight to one replica.
const maxCoordinatorP90Ratio = 2

// BenchmarkCoordinatorOverhead gates the coordinator hop on a model big
// enough that per-basket work is not trivial next to a loopback HTTP
// hop (at toy scale the ratio would measure syscalls, not routing):
// Dataset I, 6,000 transactions over 100 items, seed 1, minimum support
// 0.4%, bodies of at most 3. Three replicas serve over real HTTP. Each
// round posts the same batch of 64 probe baskets (k = 2) 100 times to
// one replica and 100 times to the coordinator, alternating request by
// request so host noise lands on both sides, after 10 untimed posts per
// side. The gate fails if the median of three rounds' p90 ratios
// exceeds maxCoordinatorP90Ratio: a real routing overhead shows up in
// every round, a GC pause or scheduler stall in one. The p90 of 100
// posts has ten posts beyond it, so one host stall cannot decide a
// round; their p99 is their maximum, which one stall sets.
func BenchmarkCoordinatorOverhead(b *testing.B) {
	const (
		txns, items, seed = 6000, 100, 1
		minsup, maxLen    = 0.004, 3
		replicas          = 3
		batchSize         = 64
		warmup, timed     = 10, 100
		rounds            = 3
	)
	ds, err := datagen.Generate(datagen.DatasetIConfig(quest.Config{NumTransactions: txns, NumItems: items, Seed: seed}, seed+1))
	if err != nil {
		b.Fatal(err)
	}
	space, err := hierarchy.NewBuilder(ds.Catalog).Compile(hierarchy.Options{MOA: true})
	if err != nil {
		b.Fatal(err)
	}
	mined, err := mining.Mine(space, ds.Transactions, mining.Options{MinSupport: minsup, MaxBodyLen: maxLen})
	if err != nil {
		b.Fatal(err)
	}
	rec, err := core.Build(space, ds.Transactions, mined, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(rec.Stats().RulesFinal), "rules")
	_, cts, stacks := newFleet(b, replicas, CoordinatorConfig{Model: rec.Sealed().Bytes()})
	single, coord := stacks[0].ts.URL+"/recommend/batch", cts.URL+"/recommend/batch"
	body := probeBatch(b, ds, batchSize)

	// Each timed post ends after the first 4 KiB of the answer: a
	// replica and the coordinator both write a batch's results only once
	// every basket is scored, so that is the whole service time, while
	// reading the rest would time client-side buffering and the garbage
	// it makes in this process, which also hosts the servers.
	post := func(url string) time.Duration {
		start := time.Now()
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		//lint:allow droppederr -- the head of the answer, kept as diagnostic text for the failure message; the status code decides
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("POST %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(data))
		}
		return time.Since(start)
	}
	type round struct {
		single, coord []time.Duration
		ratio         float64
	}
	for n := 0; n < b.N; n++ {
		rs := make([]round, rounds)
		for i := range rs {
			for j := 0; j < warmup; j++ {
				post(single)
				post(coord)
			}
			r := &rs[i]
			for j := 0; j < timed; j++ {
				r.single = append(r.single, post(single))
				r.coord = append(r.coord, post(coord))
			}
			slices.Sort(r.single)
			slices.Sort(r.coord)
			r.ratio = float64(quantile(r.coord, 0.90)) / float64(quantile(r.single, 0.90))
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i].ratio < rs[j].ratio })
		med := rs[len(rs)/2]
		ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
		for _, q := range []struct {
			p    float64
			name string
		}{{0.50, "p50"}, {0.90, "p90"}, {0.99, "p99"}} {
			b.ReportMetric(ms(quantile(med.single, q.p)), "single-"+q.name+"-ms")
			b.ReportMetric(ms(quantile(med.coord, q.p)), "coord-"+q.name+"-ms")
		}
		b.ReportMetric(med.ratio, "p90-ratio")
		if med.ratio > maxCoordinatorP90Ratio {
			b.Fatalf("coordinator batch p90 %.2fms is %.2fx the single replica's %.2fms (bound %dx)",
				ms(quantile(med.coord, 0.90)), med.ratio, ms(quantile(med.single, 0.90)), maxCoordinatorP90Ratio)
		}
	}
}

// maxRolloutAllocRatio bounds BenchmarkModelRollout: one rollout round
// may allocate at most this many times the image it rolls out.
const maxRolloutAllocRatio = 4

// rolloutImages are the two sealed images BenchmarkModelRollout
// alternates, built once: the benchmark function runs more than once.
var (
	rolloutOnce   sync.Once
	rolloutImages [2][]byte
	rolloutErr    error
)

// BenchmarkModelRollout gates what a fleet rollout costs: O(image), not
// O(shipped history). Its two images are built like the fleet
// benchmark's: Dataset I over 200 items, seed 1, generated at 20,000
// transactions of which the first 8,000 train (the rest is that
// benchmark's held-out pool), minimum support 1%, bodies of at most 3,
// pruned at the default confidence and at 0.1 (182 and 170 rules,
// 3.5 MB each). Two replicas journal to WALs
// that fsync every append. One round publishes the other image
// (SetModel), then has each replica pull it (SyncModel), which
// journals its registration, and ship that segment to the coordinator
// (ShipNow). The gate fails when a round allocates more than
// maxRolloutAllocRatio times the image's size, counting the
// coordinator, both replicas and the HTTP between them, which all run
// in this process: each pull must read the image into one buffer of its
// size, and admitting a segment must not re-decode the spooled ones.
func BenchmarkModelRollout(b *testing.B) {
	rolloutOnce.Do(func() {
		ds, err := datagen.Generate(datagen.DatasetIConfig(quest.Config{NumTransactions: 20000, NumItems: 200, Seed: 1}, 2))
		if err != nil {
			rolloutErr = err
			return
		}
		train := ds.Transactions[:8000]
		space, err := hierarchy.NewBuilder(ds.Catalog).Compile(hierarchy.Options{MOA: true})
		if err != nil {
			rolloutErr = err
			return
		}
		mined, err := mining.Mine(space, train, mining.Options{MinSupport: 0.01, MaxBodyLen: 3})
		if err != nil {
			rolloutErr = err
			return
		}
		for i, cfg := range []core.Config{{}, {CF: 0.1}} {
			rec, err := core.Build(space, train, mined, cfg)
			if err != nil {
				rolloutErr = err
				return
			}
			rolloutImages[i] = rec.Sealed().Bytes()
		}
	})
	if rolloutErr != nil {
		b.Fatal(rolloutErr)
	}
	images := rolloutImages
	coord, err := NewCoordinator(CoordinatorConfig{Model: images[0]})
	if err != nil {
		b.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	b.Cleanup(cts.Close)
	ctx := context.Background()
	stacks := []*stack{
		newStack(b, cts.URL, feedback.WALOptions{SyncEvery: 1}),
		newStack(b, cts.URL, feedback.WALOptions{SyncEvery: 1}),
	}
	// Each replica pulls the first image and ships its registration, so
	// every timed round starts from a fully shipped log.
	for i, st := range stacks {
		if _, err := st.rep.SyncModel(ctx); err != nil {
			b.Fatalf("replica %d initial sync: %v", i, err)
		}
		if _, err := st.rep.ShipNow(ctx); err != nil {
			b.Fatalf("replica %d initial ship: %v", i, err)
		}
	}
	imageBytes := float64(len(images[0])+len(images[1])) / 2

	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		img := images[(n+1)%2]
		if coord.SetModel(img) == "" {
			b.Fatal("the coordinator refused a sealed image")
		}
		for i, st := range stacks {
			if changed, err := st.rep.SyncModel(ctx); err != nil || !changed {
				b.Fatalf("round %d, replica %d: sync changed %v, err %v", n, i, changed, err)
			}
			if acked, err := st.rep.ShipNow(ctx); err != nil || acked == 0 {
				b.Fatalf("round %d, replica %d: shipped %d segments, err %v", n, i, acked, err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perRound := float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N)
	b.ReportMetric(imageBytes, "image-B")
	b.ReportMetric(perRound/imageBytes, "alloc/image")
	if perRound > maxRolloutAllocRatio*imageBytes {
		b.Fatalf("a rollout round allocated %.1f MB, %.1fx the %.1f MB image (bound %dx)",
			perRound/(1<<20), perRound/imageBytes, imageBytes/(1<<20), maxRolloutAllocRatio)
	}
}

// probeBatch marshals a /recommend/batch body of size baskets (k = 2),
// cycling through the non-target sales of the first 256 transactions
// that have any.
func probeBatch(b *testing.B, ds *model.Dataset, size int) []byte {
	type sale struct {
		Item    string  `json:"item"`
		PromoIx int     `json:"promoIx"`
		Qty     float64 `json:"qty,omitempty"`
	}
	type basket struct {
		Basket []sale `json:"basket"`
		K      int    `json:"k,omitempty"`
	}
	var probes []basket
	for _, txn := range ds.Transactions {
		if len(txn.NonTarget) == 0 {
			continue
		}
		bk := basket{K: 2}
		for _, sl := range txn.NonTarget {
			bk.Basket = append(bk.Basket, sale{
				Item:    ds.Catalog.Item(sl.Item).Name,
				PromoIx: core.PromoIndex(ds.Catalog, sl.Item, sl.Promo),
				Qty:     sl.Qty,
			})
		}
		if probes = append(probes, bk); len(probes) == 256 {
			break
		}
	}
	if len(probes) == 0 {
		b.Fatal("the dataset has no non-empty basket")
	}
	var req struct {
		Baskets []basket `json:"baskets"`
	}
	for i := 0; i < size; i++ {
		req.Baskets = append(req.Baskets, probes[i%len(probes)])
	}
	data, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// quantile returns the nearest-rank p-quantile of ascending ds.
func quantile(ds []time.Duration, p float64) time.Duration {
	i := int(p * float64(len(ds)))
	if i >= len(ds) {
		i = len(ds) - 1
	}
	return ds[i]
}
