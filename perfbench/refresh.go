package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"profitmining"
	"profitmining/internal/core"
	"profitmining/internal/hierarchy"
	"profitmining/internal/incremental"
	"profitmining/internal/mining"
	"profitmining/internal/modelio"
	"profitmining/internal/registry"
)

// The refresh workload's windowed model: Dataset I with |I|=1,000, a
// window of 8,192 transactions sliding by 256, at 1% support. The
// refresh source holds the window plus refSourceSlides slides.
const (
	refItems  = 1000
	refWindow = 8192
	refSlide  = 256
	refMinsup = 0.01
	refCycles = 5 // refreshes per run, on a fixed cadence
	// refreshRate is the open-loop rate in scheduled events per second:
	// half of serve's, because the refreshes re-mine on the cores that
	// serve and the sender falls behind at serve's rate (README.md, Rates).
	refreshRate     = 400.0
	refSourceSlides = 16
	refTrain        = refWindow + refSourceSlides*refSlide
)

// refreshSetup is one set-up of the refresh workload.
type refreshSetup struct {
	in        *inputs
	space     *hierarchy.Space
	maint     *incremental.Maintainer
	refresher *incremental.Refresher
	node      *node
	tgt       *target
	build     time.Duration
	acked     []string
}

// setupRefresh builds the initial windowed model, submits it, serves it
// on one node and warms it up.
func setupRefresh(r *run, ix int) (*refreshSetup, error) {
	in, err := genInputs(r.seed, refItems, refTrain)
	if err != nil {
		return nil, err
	}
	n, err := newNode(r.dir, fmt.Sprintf("refresh%d", ix))
	if err != nil {
		return nil, err
	}
	s := &refreshSetup{in: in, node: n}
	t0 := time.Now()
	err = r.tr.timed("build", 0, -1, func(parent uint64) error {
		if err := r.tr.timed("hierarchy.CompileSpace", parent, -1, func(uint64) error {
			var err error
			s.space, err = profitmining.CompileSpace(in.ds.Catalog, nil, true)
			return err
		}); err != nil {
			return err
		}
		if err := r.tr.timed("incremental.New", parent, -1, func(uint64) error {
			var err error
			s.maint, err = incremental.New(s.space, in.train[:refWindow], incremental.Config{Mining: mining.Options{MinSupport: refMinsup}})
			return err
		}); err != nil {
			return err
		}
		var err error
		s.refresher, err = incremental.NewRefresher(incremental.RefreshConfig{
			Maintainer: s.maint,
			Catalog:    in.ds.Catalog,
			Source:     in.train,
			Start:      refWindow,
			Slide:      refSlide,
			Registry:   n.reg,
		})
		if err != nil {
			return err
		}
		return r.tr.timed("incremental.SubmitCurrent", parent, -1, func(uint64) error {
			_, _, err := s.refresher.SubmitCurrent("initial window")
			return err
		})
	})
	s.build = time.Since(t0)
	if err != nil {
		n.close()
		return nil, fmt.Errorf("building the initial windowed model: %w", err)
	}
	n.start(r.tr, nil, "serve", clientSpanBase)
	s.tgt = &target{base: n.ts.URL, in: in, tr: r.tr, seed: r.seed}
	if s.acked, err = warmUp(s.tgt, r.seed, batchShare); err != nil {
		n.close()
		return nil, err
	}
	return s, nil
}

// cycle is one timed refresh.
type cycle struct {
	start, end time.Time
	version    int
	outcome    registry.Outcome
	err        error
}

// runRefresh is the refresh workload: the serve request mix against a
// windowed model while refCycles refreshes slide the window and promote
// on a fixed cadence.
func runRefresh(r *run) (*report, error) {
	rep := newReport()
	var builds []float64
	s, setup, err := repeatSetup(r, func(r *run, i int) (*refreshSetup, error) {
		s, err := setupRefresh(r, i)
		if err == nil {
			builds = append(builds, s.build.Seconds())
		}
		return s, err
	}, func(s *refreshSetup) { s.node.close() })
	if err != nil {
		return nil, err
	}
	defer s.node.close()
	rep.e2e["setup_s"] = setup
	rep.layer["client.build_s"] = median(builds)
	rep.attempted += setupReps

	sched := makeSchedule(r.seed, refreshRate, r.measure, batchShare, s.in.pop, len(s.in.batches))
	changeAt := steadyPhase(r.measure)
	cadence := (r.measure - changeAt) / refCycles
	start := time.Now()
	cycles := make([]cycle, refCycles)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := range cycles {
			time.Sleep(time.Until(start.Add(changeAt + time.Duration(k)*cadence + cadence/4)))
			c := &cycles[k]
			c.start = time.Now()
			c.err = r.tr.timed("incremental.Refresh", 0, int64(k), func(uint64) error {
				snap, outcome, err := s.refresher.Refresh()
				c.outcome = outcome
				if snap != nil {
					c.version = snap.Version
				}
				return err
			})
			c.end = time.Now()
		}
	}()
	var gc gcCounter
	gc.start()
	lr := runOpenLoop(s.tgt, sched, 0, start)
	gc.stop()
	wg.Wait()

	rep.attempted += lr.attempted + refCycles
	rep.failed += lr.failed
	if lr.firstErr != "" {
		logf("refresh: first failure: %s", lr.firstErr)
	}
	var latencies, durs []float64
	rejected := 0
	for k, c := range cycles {
		durs = append(durs, c.end.Sub(c.start).Seconds())
		if c.err != nil || c.outcome != registry.Promoted {
			rejected++
			rep.failed++
			rep.check(fmt.Errorf("refresh cycle %d: %v (%v)", k, c.outcome, c.err))
			continue
		}
		seen, ok := lr.firstSeen[c.version]
		if !ok {
			if seen, err = probeVersion(s.tgt, c.version); err != nil {
				rep.check(fmt.Errorf("refresh cycle %d: %w", k, err))
				continue
			}
		}
		latencies = append(latencies, seen.Sub(c.start).Seconds())
	}
	setRecommendLatency(rep, "refresh", lr, 0, changeAt)
	during, _ := lr.recommends(changeAt, 2*r.measure)
	logf("refresh: recommend p95 %.3fms while refreshing; %d refreshes, median %.3fs to serve",
		percentile(during, 0.95), len(cycles), median(append([]float64(nil), latencies...)))
	final := s.node.reg.Active()
	rep.e2e["holdout_gain"] = scoreHoldout(final.Cat, final.Rec, s.in.holdout)

	rep.check(sameAsRebuild(s.in.ds.Catalog, s.maint.Window(), final.Rec))
	rep.check(s.node.checkOutcomes(append(s.acked, lr.acked...)))

	if r.tr != nil {
		spans := r.tr.snapshot()
		servingLayers(rep.layer, spans, "serve", lr, int64(len(sched)))
		gc.report(rep.layer)
		rep.layer["hierarchy.compile_s"] = median(named(spans, "hierarchy.CompileSpace"))
		rep.layer["incremental.refresh_s"] = median(durs)
		rep.layer["client.refresh_p50_s"] = median(latencies)
		rep.layer["client.recommend_p95_during_change_ms"] = percentile(during, 0.95)
		rep.layer["refresh.cycles"] = float64(len(cycles))
		rep.layer["refresh.rejected"] = float64(rejected)
		inCycle, between := splitByCycle(spans, "serve./recommend", "incremental.Refresh", int64(len(sched)))
		rep.layer["serve.recommend_us_p95_in_cycle"] = percentile(inCycle, 0.95)
		rep.layer["serve.recommend_us_p95_between"] = percentile(between, 0.95)
		walLayers(rep.layer, []*node{s.node}, len(s.acked)+len(lr.acked))
		directLayers(rep.layer, s.space, final.Rec, s.in.baskets)
		if err := replaySlides(r.tr, rep.layer, s); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// probeVersion sends /recommend until the node answers with version and
// returns when it first did — for a refresh promoted too late in the run
// for the scheduled load to see.
func probeVersion(tgt *target, version int) (time.Time, error) {
	cl := &caller{c: newClient()}
	defer cl.c.CloseIdleConnections()
	for i := 0; i < 100; i++ {
		// The first user's home cell always has baskets; warmBase is outside
		// the measured request numbers.
		pop := tgt.in.pop
		cl.setBody(warmBase, tgt.in.recs[pop.CellTxns[pop.HomeCell[0]][0]])
		status, _, v, err := cl.post(tgt.base + "/recommend")
		if err == nil && status == 200 && v >= version {
			return time.Now(), nil
		}
	}
	return time.Time{}, fmt.Errorf("version %d was never served", version)
}

// splitByCycle returns the durations in µs of the open loop's spans
// called name, split by whether they overlap a span called cycleName.
func splitByCycle(spans []span, name, cycleName string, n int64) (in, out []float64) {
	var cycles []span
	for _, s := range spans {
		if s.Name == cycleName {
			cycles = append(cycles, s)
		}
	}
	for _, s := range spans {
		if s.Name != name || !openLoopRef(s.Ref, n) {
			continue
		}
		us := s.dur().Seconds() * 1e6
		overlaps := false
		for _, c := range cycles {
			if s.Start < c.End && c.Start < s.End {
				overlaps = true
				break
			}
		}
		if overlaps {
			in = append(in, us)
		} else {
			out = append(out, us)
		}
	}
	return in, out
}

// sameAsRebuild checks slide ≡ rebuild: the served model must serialize
// byte for byte like a batch build over the final window.
func sameAsRebuild(cat *profitmining.Catalog, window []profitmining.Transaction, served *core.Recommender) error {
	batch, err := profitmining.Build(&profitmining.Dataset{Catalog: cat, Transactions: window}, profitmining.Options{MinSupport: refMinsup})
	if err != nil {
		return fmt.Errorf("batch rebuild of the final window: %w", err)
	}
	var want, got bytes.Buffer
	if err := profitmining.WriteModel(&want, cat, nil, batch); err != nil {
		return err
	}
	if err := profitmining.WriteModel(&got, cat, nil, served); err != nil {
		return err
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		return fmt.Errorf("served model after the last refresh differs from a batch build over its window (%d vs %d bytes)", got.Len(), want.Len())
	}
	return nil
}

// replaySlides replays the run's slides uncontended, after the load,
// through the calls a Refresher makes, with a span around each:
// mining.Stream.Slide, core.TreeDelta.Update, modelio.Save plus
// registry.HashBytes (the model identity) and registry.Submit.
func replaySlides(tr *tracer, layer map[string]float64, s *refreshSetup) error {
	opts := mining.Options{MinSupport: refMinsup}
	stream, err := mining.NewStream(s.space, s.in.train[:refWindow], opts)
	if err != nil {
		return err
	}
	tree, err := core.NewTreeDelta(s.space, core.Config{})
	if err != nil {
		return err
	}
	if _, err := tree.Update(stream.Window(), stream.ExpandedBodies(), stream.Result(), 0); err != nil {
		return err
	}
	reg, err := registry.New(registry.Options{})
	if err != nil {
		return err
	}
	for k := 0; k < refCycles; k++ {
		at := refWindow + k*refSlide
		batch := s.in.train[at : at+refSlide]
		err := tr.timed("replay.cycle", 0, int64(k), func(parent uint64) error {
			var mined *mining.Result
			if err := tr.timed("mining.Stream.Slide", parent, int64(k), func(uint64) error {
				var err error
				mined, err = stream.Slide(batch, refSlide)
				return err
			}); err != nil {
				return err
			}
			var rec *core.Recommender
			if err := tr.timed("core.TreeDelta.Update", parent, int64(k), func(uint64) error {
				var err error
				rec, err = tree.Update(stream.Window(), stream.ExpandedBodies(), mined, refSlide)
				return err
			}); err != nil {
				return err
			}
			var hash string
			if err := tr.timed("modelio.identity", parent, int64(k), func(uint64) error {
				var buf bytes.Buffer
				if err := modelio.Save(&buf, s.in.ds.Catalog, nil, rec); err != nil {
					return err
				}
				hash = registry.HashBytes(buf.Bytes())
				return nil
			}); err != nil {
				return err
			}
			return tr.timed("registry.Submit", parent, int64(k), func(uint64) error {
				_, _, err := reg.Submit(s.in.ds.Catalog, rec, "replay", hash)
				return err
			})
		})
		if err != nil {
			return fmt.Errorf("replaying slide %d: %w", k, err)
		}
	}
	spans := tr.snapshot()
	layer["mining.slide_s"] = median(named(spans, "mining.Stream.Slide"))
	layer["core.tree_update_s"] = median(named(spans, "core.TreeDelta.Update"))
	layer["modelio.identity_s"] = median(named(spans, "modelio.identity"))
	layer["registry.submit_s"] = median(named(spans, "registry.Submit"))
	return nil
}
