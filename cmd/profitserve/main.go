// Command profitserve serves a profit-mining recommender over HTTP.
//
// Serve a sealed model (profitminer -seal):
//
//	profitserve -model grocery.pma -addr :8080
//
// Follow retrains by watching the model file for changes (poll-based;
// new versions are validated and hot-swapped without dropping traffic):
//
//	profitserve -model grocery.pma -watch -poll 2s
//
// Shadow-score candidates on 10% of live traffic before promoting:
//
//	profitserve -model grocery.pma -watch -shadow 0.1
//
// Or train on a dataset file and serve in one step:
//
//	profitserve -data grocery.pmjl -minsup 0.01 -addr :8080
//
// Close the loop with a durable outcome log and drift detection: report
// what customers did with the recommendations, and run a command when
// realized profit drifts away from the model's projections (typically a
// retrain that -watch then hot-swaps in):
//
//	profitserve -model grocery.pma -watch \
//	    -feedback-dir /var/lib/profitserve/feedback \
//	    -on-drift 'make retrain'
//
// Or answer drift alarms in-process: with -data and -window the model is
// maintained incrementally over a sliding window of the dataset, and a
// drift alarm triggers a windowed delta refresh — the window slides
// -slide transactions forward and the refreshed model is staged through
// the usual validate → shadow → promote path, no retrain process needed:
//
//	profitserve -data grocery.pmjl -minsup 0.01 -window 4000 -slide 250 \
//	    -feedback-dir /var/lib/profitserve/feedback -shadow 0.5
//
// Endpoints: GET /healthz, GET /catalog, GET /rules?limit=N,
// GET /metrics, GET /version, GET /feedback/stats, POST /admin/reload,
// POST /recommend {"basket":[{"item":"Beer","promoIx":0,"qty":1}],"k":2},
// POST /recommend/batch {"baskets":[{"basket":[...],"k":2}, ...]},
// POST /outcome {"requestID":"...","ruleID":"r0123...","modelVersion":1,"bought":true,"qty":2,"paidPrice":3.5}.
//
// -pprof localhost:6060 additionally serves the net/http/pprof profiling
// endpoints on a separate, operator-only listener.
//
// Scale out with the cluster roles. A replica is the ordinary server
// plus two background loops — it ships its sealed feedback-WAL
// segments to the coordinator and pulls the cluster model by content
// hash (it can even start model-less and wait for the first sync):
//
//	profitserve -role replica -join http://coord:9090 \
//	    -feedback-dir /var/lib/profitserve/feedback -addr :8080
//
// The coordinator is the thin fleet front: it health-checks replicas,
// rotates requests over them (every replica serves the same image, so
// any one gives the same answer), routes /recommend and
// /recommend/batch with hedged failover and /outcome with plain
// failover (an outcome is never sent twice), merges /metrics and
// /version, aggregates the shipped segments into the deterministic
// cluster-wide /feedback/stats, and runs the single cluster-level
// drift detector — with -data and -window a cluster drift alarm
// triggers one in-process delta refresh whose result fans back out to
// every replica:
//
//	profitserve -role coordinator -addr :9090 \
//	    -replicas http://r1:8080,http://r2:8080,http://r3:8080 \
//	    -data grocery.pmjl -minsup 0.01 -window 4000 -slide 250 \
//	    -spool-dir /var/lib/profitserve/spool
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting, in-flight
// requests finish (bounded by -drain), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"profitmining"
	"profitmining/internal/cluster"
	"profitmining/internal/feedback"
	"profitmining/internal/incremental"
	"profitmining/internal/mining"
	"profitmining/internal/registry"
	"profitmining/internal/serve"
)

func main() {
	var (
		modelPath = flag.String("model", "", "sealed model file (from profitminer -seal)")
		dataPath  = flag.String("data", "", "dataset file to train on (alternative to -model)")
		minsup    = flag.Float64("minsup", 0.001, "minimum support when training from -data")
		window    = flag.Int("window", 0, "with -data: maintain the model over a sliding window of this many transactions and answer drift alarms with an in-process delta refresh (0 = batch build, drift only runs -on-drift)")
		slide     = flag.Int("slide", 256, "transactions each delta refresh slides the window by (with -window)")
		addr      = flag.String("addr", ":8080", "listen address")
		watch     = flag.Bool("watch", false, "poll the -model file and hot-swap new versions")
		poll      = flag.Duration("poll", 2*time.Second, "poll interval for -watch")
		shadow    = flag.Float64("shadow", 0, "fraction of live traffic replayed against a staged candidate before promotion (0 = promote immediately)")
		samples   = flag.Int("shadow-samples", 32, "shadowed requests required before a staged candidate auto-promotes")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); off by default")

		fbDir       = flag.String("feedback-dir", "", "directory for the durable outcome log (empty = in-memory feedback, lost on restart)")
		fbSync      = flag.Int("feedback-sync", 1, "fsync the outcome log every N appends (0 = leave durability to the OS)")
		fbSeg       = flag.Int64("feedback-seg", 64<<20, "outcome-log segment size in bytes before rotation")
		driftLambda = flag.Float64("drift-lambda", 25, "Page-Hinkley drift threshold λ, in profit units")
		driftDelta  = flag.Float64("drift-delta", 0.005, "Page-Hinkley per-observation slack δ")
		driftMin    = flag.Int64("drift-min", 30, "outcomes required since the last model change before drift can trigger")
		onDrift     = flag.String("on-drift", "", "command run (via sh -c) when drift is detected, e.g. a retrain job")

		role     = flag.String("role", "", `cluster role: "" (single node), "replica" (requires -join), or "coordinator" (front the fleet in -replicas)`)
		join     = flag.String("join", "", "coordinator base URL a replica ships feedback to and syncs models from (implies -role replica)")
		nodeID   = flag.String("node-id", "", "replica's stable cluster identity (default: hostname + -addr)")
		replicas = flag.String("replicas", "", "comma-separated replica base URLs the coordinator fronts")
		spoolDir = flag.String("spool-dir", "", "coordinator directory for shipped WAL segments (empty = in-memory spool, lost on restart)")
	)
	flag.Parse()

	drift := feedback.DriftConfig{Delta: *driftDelta, Lambda: *driftLambda, MinObservations: *driftMin}
	switch *role {
	case "coordinator":
		runCoordinator(coordinatorFlags{
			addr:      *addr,
			replicas:  *replicas,
			spoolDir:  *spoolDir,
			modelPath: *modelPath,
			dataPath:  *dataPath,
			minsup:    *minsup,
			window:    *window,
			slide:     *slide,
			drift:     drift,
			onDrift:   *onDrift,
			drain:     *drain,
		})
		return
	case "replica":
		if *join == "" {
			fail(fmt.Errorf("-role replica requires -join <coordinator URL>"))
		}
	case "":
		if *join != "" {
			*role = "replica"
		}
	default:
		fail(fmt.Errorf("unknown -role %q (want replica or coordinator)", *role))
	}

	// refresher is stored below once the windowed maintenance is wired
	// (it needs the registry, which needs the collector).
	var refresher atomic.Pointer[incremental.Refresher]
	fb, replayed, err := feedback.Open(feedback.Config{
		Dir:     *fbDir,
		WAL:     feedback.WALOptions{MaxSegmentBytes: *fbSeg, SyncEvery: *fbSync},
		Drift:   drift,
		OnDrift: driftHook("drift", *onDrift, *window > 0, &refresher),
		Logf:    log.Printf,
	})
	if err != nil {
		fail(err)
	}
	defer fb.Close()
	if *fbDir != "" {
		log.Printf("feedback log %s: replayed %d records (%d segments, %d bytes dropped)",
			*fbDir, replayed.Records, replayed.Segments, replayed.DroppedBytes)
	}

	reg, err := registry.New(registry.Options{
		ShadowFraction:   *shadow,
		ShadowMinSamples: *samples,
		OnPromote:        func(snap *registry.Snapshot) { serve.RegisterSnapshot(fb, snap) },
	})
	if err != nil {
		fail(err)
	}

	var reload serve.Reloader
	switch {
	case *modelPath != "" && *dataPath != "":
		fail(fmt.Errorf("give either -model or -data, not both"))
	case *window > 0 && *dataPath == "":
		fail(fmt.Errorf("-window requires -data (the window slides over the dataset's transactions)"))
	case *modelPath != "":
		watcher, err := registry.NewWatcher(reg, *modelPath, *poll, log.Printf)
		if err != nil {
			fail(err)
		}
		// The initial load goes through the same gate as every later
		// swap; a broken file at startup is fatal, not served around.
		if _, outcome, err := watcher.Check(); err != nil {
			fail(fmt.Errorf("loading %s: %w (%s)", *modelPath, err, outcome))
		}
		reload = watcher.Check
		if *watch {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go watcher.Run(ctx)
			log.Printf("watching %s every %v (shadow fraction %g)", *modelPath, *poll, *shadow)
		}
	case *dataPath != "":
		ds, spec, err := profitmining.LoadDataset(*dataPath)
		if err != nil {
			fail(err)
		}
		opts := profitmining.Options{MinSupport: *minsup}
		if spec != nil {
			if opts.Hierarchy, err = spec.Builder(ds.Catalog); err != nil {
				fail(err)
			}
		}
		if *window > 0 {
			r, err := windowedRefresher(ds, opts, *window, *slide, reg)
			if err != nil {
				fail(err)
			}
			refresher.Store(r)
			log.Printf("windowed maintenance on: drift slides %d transactions per refresh", *slide)
			break
		}
		rec, err := profitmining.Build(ds, opts)
		if err != nil {
			fail(err)
		}
		if _, _, err := reg.Submit(ds.Catalog, rec, "trained from "+*dataPath, ""); err != nil {
			fail(err)
		}
	case *role == "replica":
		// A replica may boot model-less: it answers 503 (with
		// Retry-After) until the first cluster sync delivers a model.
	default:
		fmt.Fprintln(os.Stderr, "profitserve: -model or -data is required")
		flag.Usage()
		os.Exit(2)
	}

	//lint:allow atomiczone -- the load before this one is driftHook's refresher pointer, a process-lifetime late binding, not a registry snapshot; this is main's only snapshot load, for one startup log line
	if active := reg.Active(); active != nil {
		log.Printf("serving version %d: %d rules over %d items on %s",
			active.Version, active.Rec.Stats().RulesFinal, active.Cat.NumItems(), *addr)
	} else {
		log.Printf("no model yet; serving 503 on %s until cluster sync delivers one", *addr)
	}

	// Replica role: start the shipping and model-sync loops. They are
	// cancelled after the HTTP drain so the final seal-and-ship pass
	// carries the last outcomes out before the process exits.
	stopReplica := func() {}
	if *role == "replica" {
		node := *nodeID
		if node == "" {
			//lint:allow droppederr -- a hostname failure leaves host empty and the node ID falls back to the listen address
			host, _ := os.Hostname()
			node = host + *addr
		}
		if *fbDir == "" {
			log.Printf("replica without -feedback-dir: outcome shipping disabled (model sync only)")
		}
		rep, err := cluster.NewReplica(cluster.ReplicaConfig{
			NodeID:      node,
			Coordinator: *join,
			Collector:   fb,
			WALDir:      *fbDir,
			Registry:    reg,
			Logf:        log.Printf,
		})
		if err != nil {
			fail(err)
		}
		repCtx, repCancel := context.WithCancel(context.Background())
		repDone := make(chan struct{})
		go func() {
			defer close(repDone)
			rep.Run(repCtx)
		}()
		stopReplica = func() {
			repCancel()
			<-repDone
		}
		log.Printf("replica %s joined coordinator %s", node, *join)
	}

	// The profiling mux listens on its own, operator-chosen address; it
	// is never mounted on the public serving port. The server handle and
	// done channel outlive the if so the drain path below can close the
	// listener and join the goroutine — otherwise the admin port would
	// keep accepting connections after the serving socket has drained.
	var admin *http.Server
	adminDone := make(chan struct{})
	if *pprofAddr != "" {
		admin = &http.Server{
			Addr:              *pprofAddr,
			Handler:           serve.AdminHandler(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			defer close(adminDone)
			log.Printf("pprof admin mux on %s", *pprofAddr)
			if err := admin.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof admin mux: %v", err)
			}
		}()
	} else {
		close(adminDone)
	}

	serveUntilSignal(*addr, serve.NewRegistry(reg, reload, fb).Handler(), *drain)
	stopReplica()
	if admin != nil {
		admin.Close()
	}
	<-adminDone
	log.Printf("drained; bye")
}

// coordinatorFlags carries the flag subset the coordinator role uses.
type coordinatorFlags struct {
	addr      string
	replicas  string
	spoolDir  string
	modelPath string
	dataPath  string
	minsup    float64
	window    int
	slide     int
	drift     feedback.DriftConfig
	onDrift   string
	drain     time.Duration
}

// runCoordinator is the coordinator role's main: no local serve stack,
// just the cluster front plus (optionally) the model source it
// distributes and the in-process delta refresh answering cluster drift.
func runCoordinator(f coordinatorFlags) {
	var fleet []string
	for _, r := range strings.Split(f.replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			fleet = append(fleet, r)
		}
	}
	if len(fleet) == 0 {
		log.Printf("coordinator starting with an empty fleet; it aggregates segments but cannot route until -replicas are set")
	}

	// Late-bound refresher, as in the single-node path.
	var refresher atomic.Pointer[incremental.Refresher]
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Replicas: fleet,
		SpoolDir: f.spoolDir,
		Drift:    f.drift,
		OnDrift:  driftHook("cluster drift", f.onDrift, f.window > 0, &refresher),
		Logf:     log.Printf,
	})
	if err != nil {
		fail(err)
	}

	switch {
	case f.modelPath != "" && f.dataPath != "":
		fail(fmt.Errorf("give either -model or -data, not both"))
	case f.window > 0 && f.dataPath == "":
		fail(fmt.Errorf("-window requires -data (the window slides over the dataset's transactions)"))
	case f.modelPath != "":
		// Load (and so verify) before distributing: a broken file should
		// fail startup, not poison the whole fleet.
		_, rec, err := profitmining.LoadModel(f.modelPath)
		if err != nil {
			fail(fmt.Errorf("loading %s: %w", f.modelPath, err))
		}
		coord.SetModel(rec.Sealed().Bytes())
	case f.dataPath != "":
		ds, spec, err := profitmining.LoadDataset(f.dataPath)
		if err != nil {
			fail(err)
		}
		opts := profitmining.Options{MinSupport: f.minsup}
		if spec != nil {
			if opts.Hierarchy, err = spec.Builder(ds.Catalog); err != nil {
				fail(err)
			}
		}
		// The coordinator's registry exists to gate and distribute, not
		// to serve: there is no local traffic to shadow, so promotion is
		// immediate and OnPromote fans the promoted image out to the
		// fleet.
		reg, err := registry.New(registry.Options{
			OnPromote: func(snap *registry.Snapshot) {
				coord.SetModel(snap.Rec.Sealed().Bytes())
			},
		})
		if err != nil {
			fail(err)
		}
		if f.window > 0 {
			r, err := windowedRefresher(ds, opts, f.window, f.slide, reg)
			if err != nil {
				fail(err)
			}
			refresher.Store(r)
			log.Printf("windowed maintenance on: cluster drift slides %d transactions per refresh", f.slide)
		} else {
			rec, err := profitmining.Build(ds, opts)
			if err != nil {
				fail(err)
			}
			if _, _, err := reg.Submit(ds.Catalog, rec, "trained from "+f.dataPath, ""); err != nil {
				fail(err)
			}
		}
	default:
		log.Printf("no -model/-data: distributing nothing until one is provided; replicas keep their own models")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go coord.Run(ctx)
	log.Printf("coordinator on %s fronting %d replicas (spool %q)", f.addr, len(fleet), f.spoolDir)
	serveUntilSignal(f.addr, coord.Handler(), f.drain)
	log.Printf("drained; bye")
}

// driftHook is the OnDrift hook of both roles: the windowed refresher
// answers the alarm in process, then the -on-drift command runs via
// sh -c. what names the alarm in the log. The hook fires from the
// collector's or the coordinator's goroutine, possibly before the
// refresher exists, so the refresher is bound late through an atomic.
// The hook is nil when there is nothing to run.
func driftHook(what, command string, windowed bool, refresher *atomic.Pointer[incremental.Refresher]) func() {
	if command == "" && !windowed {
		return nil
	}
	return func() {
		if r := refresher.Load(); r != nil {
			r.OnDrift()
		}
		if command == "" {
			return
		}
		log.Printf("%s detected; running: %s", what, command)
		out, err := exec.Command("sh", "-c", command).CombinedOutput()
		if err != nil {
			log.Printf("on-drift command failed: %v\n%s", err, out)
			return
		}
		log.Printf("on-drift command finished\n%s", out)
	}
}

// serveUntilSignal serves handler on addr until SIGINT or SIGTERM, then
// drains: Shutdown stops the listener and waits for in-flight requests
// up to drain. A serve error or an incomplete drain exits the process.
func serveUntilSignal(addr string, handler http.Handler, drain time.Duration) {
	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		fail(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("shutting down: draining in-flight requests (up to %v)", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("drain incomplete: %v", err)
		srv.Close()
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fail(err)
	}
}

// windowedRefresher builds the initial model over the first window
// transactions of the dataset, submits it to the registry, and returns a
// refresher that answers drift alarms by sliding the window through the
// remaining transactions (wrapping around when the dataset is
// exhausted). Each refreshed candidate flows through the registry's
// validate → shadow → promote lifecycle like any other submission.
func windowedRefresher(ds *profitmining.Dataset, opts profitmining.Options, window, slide int, reg *registry.Registry) (*incremental.Refresher, error) {
	if window > len(ds.Transactions) {
		window = len(ds.Transactions)
	}
	space, err := profitmining.CompileSpace(ds.Catalog, opts.Hierarchy, true)
	if err != nil {
		return nil, err
	}
	// The maintainer takes the stage configs directly; with only a
	// support threshold set, these are exactly what profitmining.Build
	// derives from opts, so the maintained model stays byte-identical to
	// a batch build over the same window.
	maint, err := incremental.New(space, ds.Transactions[:window], incremental.Config{
		Mining: mining.Options{MinSupport: opts.MinSupport},
	})
	if err != nil {
		return nil, err
	}
	refresher, err := incremental.NewRefresher(incremental.RefreshConfig{
		Maintainer: maint,
		Catalog:    ds.Catalog,
		Source:     ds.Transactions,
		Start:      window % len(ds.Transactions),
		Slide:      slide,
		Registry:   reg,
		Logf:       log.Printf,
	})
	if err != nil {
		return nil, err
	}
	if _, _, err := refresher.SubmitCurrent(fmt.Sprintf("initial window of %d", window)); err != nil {
		return nil, err
	}
	return refresher, nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "profitserve: %v\n", err)
	os.Exit(1)
}
