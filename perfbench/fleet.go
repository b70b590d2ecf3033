package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"time"

	"profitmining/internal/cluster"
	"profitmining/internal/core"
)

const (
	fleetRate     = 500.0 // open-loop events per second through the coordinator
	fleetRollouts = 5     // model swaps per run, on a fixed cadence
	fleetShipEach = time.Second
	// fleetAltCF is the pruning confidence of the second image: the same
	// mined rules cut at another level give a model of the same size
	// class with different rules.
	fleetAltCF = 0.1
)

// fleetSetup is one set-up of the fleet workload.
type fleetSetup struct {
	in     *inputs
	images [2]*built
	coord  *cluster.Coordinator
	cts    *httptest.Server
	nodes  []*node
	reps   []*cluster.Replica
	tgt    *target
	stop   context.CancelFunc
	done   chan struct{}
	acked  []string
	gain   float64
}

func (f *fleetSetup) close() {
	if f.stop != nil {
		f.stop()
		<-f.done
	}
	if f.cts != nil {
		f.cts.Close()
	}
	for _, n := range f.nodes {
		n.close()
	}
}

// syncAll has every replica pull the coordinator's model at once and
// returns when all have it.
func (f *fleetSetup) syncAll(ctx context.Context, tr *tracer, ref int64) error {
	errs := make([]error, len(f.reps))
	var wg sync.WaitGroup
	for i, rep := range f.reps {
		wg.Add(1)
		go func(i int, rep *cluster.Replica) {
			defer wg.Done()
			errs[i] = tr.timed("cluster.SyncModel", 0, ref, func(uint64) error {
				_, err := rep.SyncModel(ctx)
				return err
			})
		}(i, rep)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("replica %d model sync: %w", i, err)
		}
	}
	return nil
}

// setupFleet builds two sealed images, stands up a coordinator and
// generators() replicas with their own on-disk WALs, distributes both
// images once and warms the fleet up.
func setupFleet(r *run, ix int) (f *fleetSetup, err error) {
	f = &fleetSetup{}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if f.in, err = genInputs(r.seed, dsItems, dsTrain); err != nil {
		return nil, err
	}
	cat := f.in.ds.Catalog
	a, err := buildModel(r.tr, -1, cat, f.in.train, core.Config{})
	if err != nil {
		return nil, fmt.Errorf("building image A: %w", err)
	}
	b := &built{space: a.space, mined: a.mined}
	if b.heap, err = core.Build(a.space, f.in.train, a.mined, core.Config{CF: fleetAltCF}); err != nil {
		return nil, fmt.Errorf("building image B: %w", err)
	}
	if err := b.seal(r.tr, 0, -1, cat); err != nil {
		return nil, fmt.Errorf("sealing image B: %w", err)
	}
	a.mined, b.mined = nil, nil // the rules mined before pruning would stay live on the heap the servers collect
	f.images = [2]*built{a, b}
	f.gain = scoreHoldout(a.cat, a.sealed, f.in.holdout)

	if f.coord, err = cluster.NewCoordinator(cluster.CoordinatorConfig{}); err != nil {
		return nil, err
	}
	f.cts = httptest.NewServer(newTiming(r.tr, f.coord.Handler(), "coord", clientSpanBase, coordSpanBase))
	var urls []string
	for i := 0; i < generators(); i++ {
		n, err := newNode(r.dir, fmt.Sprintf("fleet%d-r%d", ix, i))
		if err != nil {
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		n.start(r.tr, nil, "replica", coordSpanBase)
		rep, err := cluster.NewReplica(cluster.ReplicaConfig{
			NodeID:      n.ts.URL,
			Coordinator: f.cts.URL,
			Collector:   n.fb,
			WALDir:      n.walDir,
			Registry:    n.reg,
		})
		if err != nil {
			return nil, err
		}
		f.reps = append(f.reps, rep)
		urls = append(urls, n.ts.URL)
	}
	f.coord.SetReplicas(urls)
	// Every replica registers both images once, so an outcome for either
	// model's rules is accepted by any replica after any swap.
	ctx := context.Background()
	for _, img := range []*built{b, a} {
		f.coord.SetModel(img.image)
		if err := f.syncAll(ctx, nil, -1); err != nil {
			return nil, err
		}
	}
	f.coord.CheckHealth(ctx)
	runCtx, stop := context.WithCancel(ctx)
	f.stop, f.done = stop, make(chan struct{})
	go func() {
		defer close(f.done)
		f.coord.Run(runCtx)
	}()

	f.tgt = &target{base: f.cts.URL, in: f.in, tr: r.tr, seed: r.seed}
	if f.acked, err = warmUp(f.tgt, r.seed, 0); err != nil {
		return nil, err
	}
	return f, nil
}

// runFleet is the fleet workload: an open-loop /recommend and /outcome
// mix through the coordinator while the benchmark alternates the
// distributed image and ships WAL segments on fixed cadences.
func runFleet(r *run) (*report, error) {
	rep := newReport()
	var builds []float64
	f, setup, err := repeatSetup(r, func(r *run, i int) (*fleetSetup, error) {
		f, err := setupFleet(r, i)
		if err == nil {
			builds = append(builds, f.images[0].dur.Seconds())
		}
		return f, err
	}, (*fleetSetup).close)
	if err != nil {
		return nil, err
	}
	defer f.close()
	rep.e2e["setup_s"] = setup
	rep.layer["client.build_s"] = median(builds)
	rep.e2e["holdout_gain"] = f.gain
	rep.attempted += setupReps

	ctx := context.Background()
	sched := makeSchedule(r.seed, fleetRate, r.measure, 0, f.in.pop, len(f.in.batches))
	start := time.Now()
	loadDone := make(chan struct{})
	var wg sync.WaitGroup

	// Rollouts: swap the distributed image and have every replica pull it.
	changeAt := steadyPhase(r.measure)
	cadence := (r.measure - changeAt) / fleetRollouts
	rollouts := make([]float64, 0, fleetRollouts)
	var rolloutErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < fleetRollouts; k++ {
			time.Sleep(time.Until(start.Add(changeAt + time.Duration(k)*cadence + cadence/2)))
			img := f.images[(k+1)%2]
			t0 := time.Now()
			err := r.tr.timed("cluster.rollout", 0, int64(k), func(uint64) error {
				f.coord.SetModel(img.image)
				return f.syncAll(ctx, r.tr, int64(k))
			})
			if err != nil && rolloutErr == nil {
				rolloutErr = err
			}
			rollouts = append(rollouts, time.Since(t0).Seconds())
		}
	}()

	// Shipping: seal and ship every replica's WAL on a fixed cadence.
	var shipped int
	var shipErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Until(start.Add(changeAt)))
		tick := time.NewTicker(fleetShipEach)
		defer tick.Stop()
		for {
			select {
			case <-loadDone:
				return
			case <-tick.C:
			}
			for i, rep := range f.reps {
				err := r.tr.timed("cluster.ShipNow", 0, int64(i), func(uint64) error {
					n, err := rep.ShipNow(ctx)
					shipped += n
					return err
				})
				if err != nil && shipErr == nil {
					shipErr = err
				}
			}
		}
	}()

	var gc gcCounter
	gc.start()
	lr := runOpenLoop(f.tgt, sched, 0, start)
	gc.stop()
	close(loadDone)
	wg.Wait()

	rep.attempted += lr.attempted + fleetRollouts
	rep.failed += lr.failed
	if lr.firstErr != "" {
		logf("fleet: first failure: %s", lr.firstErr)
	}
	if rolloutErr != nil {
		rep.failed++
		rep.check(rolloutErr)
	}
	if shipErr != nil {
		rep.failed++
		rep.check(shipErr)
	}
	setRecommendLatency(rep, "fleet", lr, 0, changeAt)
	during, _ := lr.recommends(changeAt, 2*r.measure)
	logf("fleet: recommend p95 %.3fms while rolling out; outcome p50 %.3fms; %d rollouts, median %.3fs",
		percentile(during, 0.95), percentile(lr.outcome, 0.5), len(rollouts), median(append([]float64(nil), rollouts...)))

	// Final shipping pass, then the checks: one model hash fleet-wide and
	// every acked outcome in the coordinator's spool exactly once.
	for i, rp := range f.reps {
		n, err := rp.ShipNow(ctx)
		if err != nil {
			rep.check(fmt.Errorf("replica %d final ship: %w", i, err))
		}
		shipped += n
	}
	want := f.coord.ModelHash()
	for i, n := range f.nodes {
		if got := n.reg.Active().Hash; got != want {
			rep.check(fmt.Errorf("replica %d serves model %.8s, the coordinator distributes %.8s", i, got, want))
		}
	}
	acked := len(f.acked) + len(lr.acked)
	if got := f.coord.Spool().Outcomes(); got != int64(acked) {
		rep.check(fmt.Errorf("the spool counts %d outcomes, %d were acked", got, acked))
	}

	if r.tr != nil {
		spans := r.tr.snapshot()
		buildLayers(rep.layer, spans, f.images[0])
		n := int64(len(sched))
		servingLayers(rep.layer, spans, "replica", lr, n)
		gc.report(rep.layer)
		hops := hopTimes(spans, n)
		rep.layer["cluster.hop_us_p50"] = percentile(hops, 0.50)
		rep.layer["cluster.hop_us_p95"] = percentile(hops, 0.95)
		rep.layer["cluster.replica_us_p50"] = rep.layer["serve.recommend_us_p50"]
		rep.layer["cluster.sync_s"] = median(named(spans, "cluster.SyncModel")) // set-up syncs are untraced
		rep.layer["cluster.first_request_after_sync_ms"] = rep.layer["serve.first_request_ms"]
		rep.layer["cluster.ship_s"] = median(named(spans, "cluster.ShipNow"))
		rep.layer["cluster.segments_shipped"] = float64(shipped)
		rep.layer["cluster.spool_outcomes"] = float64(f.coord.Spool().Outcomes())
		rep.layer["client.rollout_p50_s"] = median(rollouts)
		rep.layer["client.recommend_p95_during_change_ms"] = percentile(during, 0.95)
		walLayers(rep.layer, f.nodes, acked)
		directLayers(rep.layer, f.images[0].space, f.images[0].sealed, f.in.baskets)
		var m struct {
			Coordinator struct {
				Hedges    float64 `json:"hedges"`
				HedgeWins float64 `json:"hedgeWins"`
				Failovers float64 `json:"failovers"`
			} `json:"coordinator"`
		}
		if err := getJSON(f.cts.URL+"/metrics", &m); err != nil {
			return nil, err
		}
		rep.layer["cluster.hedges"] = m.Coordinator.Hedges
		rep.layer["cluster.hedge_wins"] = m.Coordinator.HedgeWins
		rep.layer["cluster.failovers"] = m.Coordinator.Failovers
	}
	return rep, nil
}

// hopTimes returns, in µs, each open-loop /recommend's client time minus
// the replica handler time that answered it: the coordinator hop and
// the network on both sides.
func hopTimes(spans []span, n int64) []float64 {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var out []float64
	seen := make(map[uint64]bool)
	for _, s := range spans {
		if s.Name != "replica./recommend" || !openLoopRef(s.Ref, n) {
			continue
		}
		coord, ok := byID[s.Parent]
		if !ok || seen[coord.ID] {
			continue // a hedged duplicate: the first replica span counts
		}
		client, ok := byID[coord.Parent]
		if !ok {
			continue
		}
		seen[coord.ID] = true
		out = append(out, (client.dur()-s.dur()).Seconds()*1e6)
	}
	return out
}
