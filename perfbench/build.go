package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"profitmining"
	"profitmining/internal/core"
	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
	"profitmining/internal/model"
	"profitmining/internal/modelio"
	"profitmining/internal/registry"
)

const setupReps = 3 // set-ups per run; setup_s is their median

// built is one model out of the build pipeline: the in-memory build and
// the sealed image opened the way it is served.
type built struct {
	space  *hierarchy.Space
	mined  *mining.Result
	heap   *core.Recommender
	image  []byte
	cat    *model.Catalog // the opened image's catalog
	sealed *core.Recommender
	dur    time.Duration // transactions in memory to a sealed model ready to serve

	mineAllocMB, coreAllocMB float64
}

// buildModel runs CompileSpace → mining.Mine → core.Build → modelio.Seal
// → open → registry.Validate, with a span around each call under one
// "build" span.
func buildModel(tr *tracer, ref int64, cat *model.Catalog, train []model.Transaction, cfg core.Config) (*built, error) {
	b := &built{}
	start := time.Now()
	err := tr.timed("build", 0, ref, func(parent uint64) error {
		if err := tr.timed("hierarchy.CompileSpace", parent, ref, func(uint64) error {
			var err error
			b.space, err = profitmining.CompileSpace(cat, nil, true)
			return err
		}); err != nil {
			return err
		}
		var err error
		b.mineAllocMB, err = allocMB(func() error {
			return tr.timed("mining.Mine", parent, ref, func(uint64) error {
				var err error
				b.mined, err = mining.Mine(b.space, train, mining.Options{MinSupport: dsMinsup, MaxBodyLen: dsMaxLen})
				return err
			})
		})
		if err != nil {
			return err
		}
		b.coreAllocMB, err = allocMB(func() error {
			return tr.timed("core.Build", parent, ref, func(uint64) error {
				var err error
				b.heap, err = core.Build(b.space, train, b.mined, cfg)
				return err
			})
		})
		if err != nil {
			return err
		}
		return b.seal(tr, parent, ref, cat)
	})
	b.dur = time.Since(start)
	return b, err
}

// seal seals the heap model, opens the image and validates the pair.
func (b *built) seal(tr *tracer, parent uint64, ref int64, cat *model.Catalog) error {
	if err := tr.timed("modelio.Seal", parent, ref, func(uint64) error {
		var err error
		b.image, err = modelio.Seal(cat, b.heap)
		return err
	}); err != nil {
		return err
	}
	if err := tr.timed("modelio.Open", parent, ref, func(uint64) error {
		var err error
		b.cat, b.sealed, err = modelio.LoadBytes(b.image)
		return err
	}); err != nil {
		return err
	}
	return tr.timed("registry.Validate", parent, ref, func(uint64) error {
		return registry.Validate(b.cat, b.sealed, nil)
	})
}

// allocMB runs fn and returns the megabytes it allocated.
func allocMB(fn func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20), err
}

// scoreHoldout scores every held-out transaction with rec and returns
// the paper's gain.
func scoreHoldout(cat *model.Catalog, rec *core.Recommender, holdout []model.Transaction) float64 {
	m := profitmining.Evaluate(cat, holdout, func(b model.Basket) (model.ItemID, model.PromoID) {
		r := rec.Recommend(b)
		return r.Item, r.Promo
	}, profitmining.EvalOptions{MOAHits: true})
	return m.Gain()
}

// sameAnswers checks that the opened sealed model answers every held-out
// basket with the bytes the in-memory model would serve.
func (b *built) sameAnswers(heapCat *model.Catalog, holdout []model.Transaction) error {
	for i, t := range holdout {
		want := wire(heapCat, b.heap, b.heap.Recommend(t.NonTarget))
		got := wire(b.cat, b.sealed, b.sealed.Recommend(t.NonTarget))
		if !bytes.Equal(want, got) {
			return fmt.Errorf("held-out basket %d: sealed model answers %s, in-memory model %s", i, got, want)
		}
	}
	return nil
}

// wire is the JSON a recommendation is served as: the blob sealed into
// the image for a sealed model, the live encoding for an in-memory one.
func wire(cat *model.Catalog, rec *core.Recommender, r core.Recommendation) []byte {
	if sm := rec.Sealed(); sm != nil {
		if r.Idx < 0 {
			return nil
		}
		return sm.Rules().Blob(r.Idx)
	}
	return core.MarshalWire(cat, rec, r)
}

// gcCounter measures garbage-collection cycles and pause time over the
// phases bracketed by its start and stop calls.
type gcCounter struct {
	cycles  uint32
	pauseNs uint64
	at      runtime.MemStats
}

func (g *gcCounter) start() { runtime.ReadMemStats(&g.at) }

func (g *gcCounter) stop() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	g.cycles += now.NumGC - g.at.NumGC
	g.pauseNs += now.PauseTotalNs - g.at.PauseTotalNs
}

func (g *gcCounter) report(layer map[string]float64) {
	layer["runtime.gc_cycles"] = float64(g.cycles)
	layer["runtime.gc_pause_ms"] = float64(g.pauseNs) / 1e6
}

// buildLayers fills the build pipeline's per-layer metrics from its
// spans and the last model built.
func buildLayers(layer map[string]float64, spans []span, b *built) {
	layer["hierarchy.compile_s"] = median(named(spans, "hierarchy.CompileSpace"))
	layer["mining.mine_s"] = median(named(spans, "mining.Mine"))
	layer["core.build_s"] = median(named(spans, "core.Build"))
	layer["modelio.seal_s"] = median(named(spans, "modelio.Seal"))
	layer["modelio.open_s"] = median(named(spans, "modelio.Open"))
	layer["registry.validate_s"] = median(named(spans, "registry.Validate"))
	st := b.heap.Stats()
	layer["mining.rules_generated"] = float64(st.RulesGenerated)
	layer["core.rules_final"] = float64(st.RulesFinal)
	layer["core.keep_ratio"] = ratio(float64(st.RulesFinal), float64(st.RulesGenerated))
	layer["modelio.sealed_mb"] = float64(len(b.image)) / (1 << 20)
	layer["mining.alloc_mb"] = b.mineAllocMB
	layer["core.alloc_mb"] = b.coreAllocMB
}

// directLayers times the recommend path's two inner layers with direct
// calls over the workload's baskets: basket expansion and top-k
// matching, in ns per call.
func directLayers(layer map[string]float64, space *hierarchy.Space, rec *core.Recommender, baskets []model.Basket) {
	const rounds = 3
	var gens []hierarchy.GenID
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		for _, b := range baskets {
			gens = space.ExpandBasketInto(gens[:0], b)
		}
	}
	layer["hierarchy.expand_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(baskets))

	var dst []core.Recommendation
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		for _, b := range baskets {
			dst = rec.RecommendTopKInto(dst[:0], b, 1)
		}
	}
	layer["core.topk_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(baskets))
}
