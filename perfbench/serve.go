package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"profitmining"
	"profitmining/internal/core"
	"profitmining/internal/registry"
)

const (
	// serveRate is the open-loop arrival rate in scheduled events per
	// second; every answered recommend also reports one outcome, so the
	// server sees about twice as many requests.
	serveRate   = 800.0
	batchShare  = 0.01 // share of scheduled events that are 64-basket batches
	openShare   = 0.7  // share of serve's measured time spent open-loop; the rest is closed-loop
	sampleEvery = 25   // keep every 25th recommend response for the output check

	// Request numbers at or above warmBase belong to warm-up traffic,
	// which the per-layer metrics leave out.
	warmBase   = int64(1) << 28
	warmEvents = 500
	warmRate   = 2000.0
)

// warmUp sends a short burst of the workload's own mix so connections,
// caches and lazily built state exist before anything is timed. It
// returns the requestIDs of the outcomes it got acked.
func warmUp(tgt *target, seed int64, batchShare float64) ([]string, error) {
	sched := makeSchedule(seed^0x5eed, warmRate, time.Duration(float64(warmEvents)/warmRate*float64(time.Second)), batchShare, tgt.in.pop, len(tgt.in.batches))
	sampleIx := tgt.sampleIx
	tgt.sampleIx = 0
	lr := runOpenLoop(tgt, sched, warmBase, time.Now())
	tgt.sampleIx = sampleIx
	if lr.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed: %s", lr.failed, lr.attempted, lr.firstErr)
	}
	return lr.acked, nil
}

// serveSetup is one set-up of the serve workload.
type serveSetup struct {
	in    *inputs
	b     *built
	node  *node
	tgt   *target
	gain  float64
	acked []string // warm-up outcomes
}

// setupServe builds the Dataset I model, seals it to a file, loads the
// file through the registry's watcher the way profitserve opens a sealed
// model, serves it with an on-disk feedback WAL and warms it up.
func setupServe(r *run, ix int) (*serveSetup, error) {
	in, err := genInputs(r.seed, dsItems, dsTrain)
	if err != nil {
		return nil, err
	}
	b, err := buildModel(r.tr, -1, in.ds.Catalog, in.train, core.Config{})
	if err != nil {
		return nil, fmt.Errorf("building the served model: %w", err)
	}
	b.mined = nil // the rules mined before pruning would stay live on the heap the server collects

	path := filepath.Join(r.dir, fmt.Sprintf("serve%d.pmm", ix))
	if err := os.WriteFile(path, b.image, 0o644); err != nil {
		return nil, err
	}
	n, err := newNode(r.dir, fmt.Sprintf("serve%d", ix))
	if err != nil {
		return nil, err
	}
	w, err := registry.NewWatcher(n.reg, path, time.Hour, logf)
	if err != nil {
		n.close()
		return nil, err
	}
	if err := r.tr.timed("registry.Watcher.Check", 0, -1, func(uint64) error {
		_, _, err := w.Check()
		return err
	}); err != nil {
		n.close()
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	n.start(r.tr, w.Check, "serve", clientSpanBase)
	snap := n.reg.Active()
	gain := scoreHoldout(snap.Cat, snap.Rec, in.holdout)
	s := &serveSetup{in: in, b: b, node: n, gain: gain,
		tgt: &target{base: n.ts.URL, in: in, tr: r.tr, seed: r.seed, sampleIx: sampleEvery}}
	if s.acked, err = warmUp(s.tgt, r.seed, batchShare); err != nil {
		n.close()
		return nil, err
	}
	return s, nil
}

// repeatSetup runs setup setupReps times, keeps the last and closes the
// others; setup_s is the median of the set-up times. Each set-up ends
// with a collection, so its garbage is not collected in the timed phase.
func repeatSetup[S any](r *run, setup func(*run, int) (S, error), closeFn func(S)) (S, float64, error) {
	var s S
	var times []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			closeFn(s)
			runtime.GC() // the closed set-up's garbage is not the next one's cost
		}
		t0 := time.Now()
		var err error
		if s, err = setup(r, i); err != nil {
			return s, 0, err
		}
		runtime.GC()
		times = append(times, time.Since(t0).Seconds())
	}
	logf("set-ups: %v s", times)
	return s, median(times), nil
}

// runServe is the serve workload: one node serving a fixed sealed model
// under an open-loop mix of /recommend, /outcome and /recommend/batch,
// then a closed-loop /recommend phase.
func runServe(r *run) (*report, error) {
	rep := newReport()
	var builds []float64
	s, setup, err := repeatSetup(r, func(r *run, i int) (*serveSetup, error) {
		s, err := setupServe(r, i)
		if err == nil {
			builds = append(builds, s.b.dur.Seconds())
		}
		return s, err
	}, func(s *serveSetup) { s.node.close() })
	if err != nil {
		return nil, err
	}
	defer s.node.close()
	rep.e2e["setup_s"] = setup
	rep.layer["client.build_s"] = median(builds)
	rep.e2e["holdout_gain"] = s.gain
	rep.attempted += setupReps

	openLen := time.Duration(float64(r.measure) * openShare)
	sched := makeSchedule(r.seed, serveRate, openLen, batchShare, s.in.pop, len(s.in.batches))
	var gc gcCounter
	gc.start()
	lr := runOpenLoop(s.tgt, sched, 0, time.Now())
	gc.stop()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	closed := runClosedLoop(s.tgt, sched, int64(len(sched)), r.measure-openLen)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&after)

	rep.attempted += lr.attempted + closed.completed + closed.failed
	rep.failed += lr.failed + closed.failed
	if lr.firstErr != "" {
		logf("serve: first failure: %s", lr.firstErr)
	}
	setRecommendLatency(rep, "serve", lr, 0, r.measure)
	rps := ratio(float64(closed.completed), closed.elapsed.Seconds())
	logf("serve: outcome p50 %.3fms; closed loop %.0f req/s", percentile(lr.outcome, 0.5), rps)

	rep.check(s.b.sameAnswers(s.in.ds.Catalog, s.in.holdout))
	rep.check(checkSamples(s.in.ds, s.b.heap, lr.samples))
	rep.check(s.node.checkOutcomes(append(s.acked, lr.acked...)))

	if r.tr != nil {
		spans := r.tr.snapshot()
		buildLayers(rep.layer, spans, s.b)
		servingLayers(rep.layer, spans, "serve", lr, int64(len(sched)))
		gc.report(rep.layer)
		rep.layer["client.recommend_rps"] = rps
		reqs := float64(closed.completed + closed.failed)
		rep.layer["runtime.cpu_us_per_req"] = ratio(float64(cpu.Microseconds()), reqs)
		rep.layer["runtime.alloc_kb_per_req"] = ratio(float64(after.TotalAlloc-before.TotalAlloc)/1024, reqs)
		walLayers(rep.layer, []*node{s.node}, len(s.acked)+len(lr.acked))
		snap := s.node.reg.Active()
		directLayers(rep.layer, s.b.space, snap.Rec, s.in.baskets)
	}
	return rep, nil
}

// walLayers reports the WAL bytes written per acked outcome over nodes.
func walLayers(layer map[string]float64, nodes []*node, acked int) {
	var total int64
	for _, n := range nodes {
		size, _, err := n.fb.LogSize()
		if err != nil {
			logf("feedback log size: %v", err)
			continue
		}
		total += size
	}
	layer["feedback.wal_bytes_per_outcome"] = ratio(float64(total), float64(acked))
}

// checkSamples verifies that each kept /recommend response carries
// exactly the recommendation the in-memory model gives for its basket.
func checkSamples(ds *profitmining.Dataset, rec *core.Recommender, samples []sample) error {
	if len(samples) == 0 {
		return fmt.Errorf("no /recommend response was sampled")
	}
	for _, s := range samples {
		var want bytes.Buffer
		want.WriteString(`{"recommendations":[`)
		want.Write(wire(ds.Catalog, rec, rec.Recommend(ds.Transactions[s.Input].NonTarget)))
		fmt.Fprintf(&want, `],"modelVersion":%d}`, s.Version)
		if got := bytes.TrimSpace(s.Body); !bytes.Equal(got, want.Bytes()) {
			return fmt.Errorf("basket %d: served %s, in-memory model gives %s", s.Input, got, want.Bytes())
		}
	}
	return nil
}
