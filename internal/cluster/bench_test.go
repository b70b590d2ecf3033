package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"sort"
	"testing"
	"time"

	"profitmining/internal/core"
	"profitmining/internal/datagen"
	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
	"profitmining/internal/model"
	"profitmining/internal/quest"
)

// maxCoordinatorP99Ratio bounds BenchmarkCoordinatorOverhead: a batch
// routed through the coordinator may take at most this many times the
// p99 of the same batch sent straight to one replica.
const maxCoordinatorP99Ratio = 2

// BenchmarkCoordinatorOverhead gates the coordinator hop on a model big
// enough that per-basket work is not trivial next to a loopback HTTP
// hop (at toy scale the ratio would measure syscalls, not routing):
// Dataset I, 6,000 transactions over 100 items, seed 1, minimum support
// 0.4%, bodies of at most 3. Three replicas serve over real HTTP. Each
// round posts the same batch of 64 probe baskets (k = 2) 100 times to
// one replica and 100 times to the coordinator, alternating request by
// request so host noise lands on both sides, after 10 untimed posts per
// side. The gate fails if the median of three rounds' p99 ratios
// exceeds maxCoordinatorP99Ratio: a real routing overhead shows up in
// every round, a GC pause or scheduler stall in one.
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
			r.ratio = float64(quantile(r.coord, 0.99)) / float64(quantile(r.single, 0.99))
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i].ratio < rs[j].ratio })
		med := rs[len(rs)/2]
		ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
		b.ReportMetric(ms(quantile(med.single, 0.50)), "single-p50-ms")
		b.ReportMetric(ms(quantile(med.single, 0.99)), "single-p99-ms")
		b.ReportMetric(ms(quantile(med.coord, 0.50)), "coord-p50-ms")
		b.ReportMetric(ms(quantile(med.coord, 0.99)), "coord-p99-ms")
		b.ReportMetric(med.ratio, "p99-ratio")
		if med.ratio > maxCoordinatorP99Ratio {
			b.Fatalf("coordinator batch p99 %.2fms is %.2fx the single replica's %.2fms (bound %dx)",
				ms(quantile(med.coord, 0.99)), med.ratio, ms(quantile(med.single, 0.99)), maxCoordinatorP99Ratio)
		}
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
