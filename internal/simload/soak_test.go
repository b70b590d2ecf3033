package simload

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"profitmining/internal/cluster"
	"profitmining/internal/datagen"
	"profitmining/internal/feedback"
	"profitmining/internal/model"
	"profitmining/internal/quest"
	"profitmining/internal/registry"
	"profitmining/internal/serve"
)

// Inputs and bounds of BenchmarkSoak.
const (
	soakTxns, soakItems, soakSeed = 4000, 120, 1
	soakUsers                     = 100000
	soakVirtual, soakRate         = 45, 10 // virtual seconds; base sessions per virtual second
	soakWindow, soakSlide         = 2000, 250
	soakShipEvery                 = 50 // acked outcomes between fleet WAL ships
	soakReplicas                  = 3
	soakMaxP99Ms                  = 50 // server-side /recommend p99 budget
)

// soakWorld regenerates Dataset I with its ground truth. It matches a
// file written by `profitgen -dataset I` at the same scale and seed byte
// for byte, which is what lets TestSoakLiveServer replay the world a
// live server was trained on.
func soakWorld(tb testing.TB, txns, items int, seed int64) (*model.Dataset, *datagen.GroundTruth) {
	tb.Helper()
	ds, truth, err := datagen.GenerateWithTruth(datagen.DatasetIConfig(quest.Config{
		NumTransactions: txns,
		NumItems:        items,
		Seed:            seed,
	}, seed+1))
	if err != nil {
		tb.Fatal(err)
	}
	return ds, truth
}

// soakRun is what one virtual-clock run of a topology left behind.
type soakRun struct {
	res        *Result
	stats      []byte  // final /feedback/stats (the fleet's, for a fleet)
	promotions int     // model promotions beyond the initial one
	p99Ms      float64 // server-side /recommend p99 (the worst replica's, for a fleet)
	aggregated int64   // fleet: outcomes folded into the coordinator spool
}

// BenchmarkSoak gates the closed loop — recommend → outcome → drift →
// windowed re-mine → promote — in both serving topologies: one node,
// and three replicas behind a coordinator that ship their WALs every 50
// acked outcomes. The world is Dataset I (4,000 transactions, 120
// items, seed 1) with 100,000 users over 45 virtual seconds at 10
// sessions per second, served from a 2,000-transaction window that
// slides 250 per refresh at 1% support. Each topology runs twice on
// fresh stacks. The gate fails unless, per topology, the two runs end
// in byte-identical /feedback/stats with equal counters, no request
// failed, at least one drift alarm led to at least one promotion, and
// the server-side /recommend p99 stayed within 50 ms; on the fleet,
// the coordinator spool must also hold exactly the acked outcomes. CI
// runs it at GOMAXPROCS=2.
func BenchmarkSoak(b *testing.B) {
	ds, truth := soakWorld(b, soakTxns, soakItems, soakSeed)
	for n := 0; n < b.N; n++ {
		single := [2]soakRun{soakSingle(b, ds, truth), soakSingle(b, ds, truth)}
		checkSoak(b, "single", single)

		fleet := [2]soakRun{soakFleet(b, ds, truth), soakFleet(b, ds, truth)}
		checkSoak(b, "fleet", fleet)
		for i, run := range fleet {
			if run.aggregated != run.res.Outcomes {
				b.Errorf("fleet run %d: the spool holds %d outcomes, %d were acked", i+1, run.aggregated, run.res.Outcomes)
			}
		}
	}
}

// checkSoak applies the per-topology gates to two identically seeded
// runs and reports the first run's counters.
func checkSoak(b *testing.B, topology string, runs [2]soakRun) {
	b.Helper()
	r1, r2 := runs[0].res, runs[1].res
	if !bytes.Equal(runs[0].stats, runs[1].stats) {
		b.Errorf("%s: final /feedback/stats differ between identical runs (%d vs %d bytes)",
			topology, len(runs[0].stats), len(runs[1].stats))
	}
	counters := func(r *Result) [5]int64 {
		return [5]int64{r.Sessions, r.Steps, r.Outcomes, r.Conversions, r.DriftAlarms}
	}
	if c1, c2 := counters(r1), counters(r2); c1 != c2 {
		b.Errorf("%s: sessions, steps, outcomes, conversions and drift alarms diverged: %v vs %v", topology, c1, c2)
	}
	if d := r1.Dropped + r2.Dropped; d != 0 {
		b.Errorf("%s: %d requests dropped, want 0", topology, d)
	}
	alarms := min(r1.DriftAlarms, r2.DriftAlarms)
	promotions := min(runs[0].promotions, runs[1].promotions)
	if alarms < 1 || promotions < 1 {
		b.Errorf("%s: %d drift alarms and %d promotions, want at least one drift → promote cycle", topology, alarms, promotions)
	}
	p99 := max(runs[0].p99Ms, runs[1].p99Ms)
	if p99 > soakMaxP99Ms {
		b.Errorf("%s: /recommend p99 %.2fms exceeds the %dms budget", topology, p99, soakMaxP99Ms)
	}
	b.ReportMetric(float64(r1.Outcomes), topology+"-outcomes")
	b.ReportMetric(float64(alarms), topology+"-alarms")
	b.ReportMetric(float64(promotions), topology+"-promotions")
	b.ReportMetric(p99, topology+"-p99-ms")
}

// soakSingle runs the soak once against a fresh single-node stack.
func soakSingle(b *testing.B, ds *model.Dataset, truth *datagen.GroundTruth) soakRun {
	ts, refresher, reg := newSoakStack(b, ds, soakWindow, soakSlide)
	cfg := soakConfig(ts.URL, ds, truth, soakUsers, soakSeed, soakVirtual, soakRate)
	cfg.OnDrift = func() {
		if _, _, err := refresher.Refresh(); err != nil {
			b.Fatalf("single: refresh: %v", err)
		}
	}
	res, err := Run(cfg)
	if err != nil {
		b.Fatalf("single: %v", err)
	}
	//lint:allow atomiczone -- one registry inspected once after the run; no cross-load invariant
	return soakRun{res: res, stats: res.FinalStats, promotions: reg.Active().Version - 1, p99Ms: recommendP99(b, ts.URL)}
}

// soakFleet runs the soak once against a fresh fleet: three replicas
// behind a coordinator, models distributed by coordinator pull, WALs
// shipped at deterministic outcome counts. Each run binds fresh ports:
// the coordinator rotates over the replicas in request order, so the
// determinism gate also proves the trace independent of the ports. The
// replicas' node IDs are stable, because they order the spool's fold.
func soakFleet(b *testing.B, ds *model.Dataset, truth *datagen.GroundTruth) soakRun {
	ctx := context.Background()
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Drift: soakDrift})
	if err != nil {
		b.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	// The operator pipeline: the refresher submits into this registry,
	// whose promotions hand the sealed image to the coordinator.
	opReg, err := registry.New(registry.Options{
		OnPromote: func(snap *registry.Snapshot) { coord.SetModel(snap.Rec.Sealed().Bytes()) },
	})
	if err != nil {
		b.Fatal(err)
	}
	refresher := newRefresher(b, ds, soakWindow, soakSlide, opReg)

	var (
		reps [soakReplicas]*cluster.Replica
		regs [soakReplicas]*registry.Registry
		urls [soakReplicas]string
	)
	for i := range reps {
		walDir := b.TempDir()
		fb, _, err := feedback.Open(feedback.Config{Dir: walDir, Drift: soakDrift})
		if err != nil {
			b.Fatal(err)
		}
		defer fb.Close()
		reg, err := registry.New(registry.Options{
			OnPromote: func(snap *registry.Snapshot) { serve.RegisterSnapshot(fb, snap) },
		})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(serve.NewRegistry(reg, nil, fb).Handler())
		defer ts.Close()
		urls[i], regs[i] = ts.URL, reg
		if reps[i], err = cluster.NewReplica(cluster.ReplicaConfig{
			NodeID:      fmt.Sprintf("soak-replica-%d", i),
			Coordinator: cts.URL,
			Collector:   fb,
			WALDir:      walDir,
			Registry:    reg,
		}); err != nil {
			b.Fatal(err)
		}
	}
	coord.SetReplicas(urls[:])
	syncAll := func() {
		for i, rep := range reps {
			if _, err := rep.SyncModel(ctx); err != nil {
				b.Fatalf("fleet: replica %d model sync: %v", i, err)
			}
		}
	}
	shipAll := func() {
		for i, rep := range reps {
			if _, err := rep.ShipNow(ctx); err != nil {
				b.Fatalf("fleet: replica %d ship: %v", i, err)
			}
		}
	}
	syncAll()
	coord.CheckHealth(ctx)

	cfg := soakConfig(cts.URL, ds, truth, soakUsers, soakSeed, soakVirtual, soakRate)
	cfg.OnDrift = func() {
		if _, _, err := refresher.Refresh(); err != nil {
			b.Fatalf("fleet: refresh: %v", err)
		}
		syncAll()
	}
	cfg.CheckEvery, cfg.OnCheck = soakShipEvery, shipAll
	res, err := Run(cfg)
	if err != nil {
		b.Fatalf("fleet: %v", err)
	}
	// A last ship so the spool covers every acked outcome, then the
	// fleet's stats (the determinism surface) are fetched again.
	shipAll()
	stats, err := res.Client.FeedbackStats(1000000)
	if err != nil {
		b.Fatal(err)
	}
	p99 := 0.0
	for _, u := range urls {
		p99 = max(p99, recommendP99(b, u))
	}
	//lint:allow atomiczone -- one registry inspected once after the run; no cross-load invariant
	promotions := regs[0].Active().Version - 1
	return soakRun{res: res, stats: stats, promotions: promotions, p99Ms: p99, aggregated: coord.Spool().Outcomes()}
}

// TestSoakLiveServer drives the soak against an out-of-process server,
// one that profitserve -data -window started on the file `profitgen
// -dataset I -txns 3000 -items 80 -seed 5` writes (scripts/soak_smoke.sh
// does both). It replays that world with 20,000 users over 20 virtual
// seconds at 8 sessions per second. Drift recovery is the server's own
// business: the test counts the drift alarms the outcome receipts
// report and fails unless no request failed, outcomes were acked, at
// least one alarm fired, and the served model version rose within 15 s
// of the run's end. It skips unless PM_SOAK_URL names the server's base
// URL.
func TestSoakLiveServer(t *testing.T) {
	base := os.Getenv("PM_SOAK_URL")
	if base == "" {
		t.Skip("PM_SOAK_URL is not set")
	}
	ds, truth := soakWorld(t, 3000, 80, 5)
	before := modelVersion(t, base)
	cfg := soakConfig(base, ds, truth, 20000, 5, 20, 8)
	cfg.OnDrift = func() {} // count the alarms; the server refreshes itself
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d outcomes, %d drift alarms, %d dropped", res.Outcomes, res.DriftAlarms, res.Dropped)
	if res.Dropped != 0 {
		t.Errorf("%d requests dropped, want 0", res.Dropped)
	}
	if res.Outcomes == 0 {
		t.Error("no outcome was acked")
	}
	if res.DriftAlarms < 1 {
		t.Error("the behavior shock tripped no drift alarm")
	}
	// The server answers an alarm asynchronously; give the promotion
	// time to land.
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(200 * time.Millisecond) {
		if v := modelVersion(t, base); v > before {
			t.Logf("model version %d -> %d", before, v)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the served model version stayed at %d: drift promoted no refreshed model", before)
		}
	}
}

// recommendP99 reads a server's /recommend p99 from its /metrics.
func recommendP99(tb testing.TB, base string) float64 {
	var m struct {
		LatencyByEndpoint map[string]struct {
			P99Ms float64 `json:"p99Ms"`
		} `json:"latencyByEndpoint"`
	}
	getJSON(tb, base+"/metrics", &m)
	return m.LatencyByEndpoint["/recommend"].P99Ms
}

// modelVersion reads a server's active model version from /version.
func modelVersion(tb testing.TB, base string) int {
	var v struct {
		Version int `json:"version"`
	}
	getJSON(tb, base+"/version", &v)
	return v.Version
}

func getJSON(tb testing.TB, url string, v any) {
	tb.Helper()
	resp, err := http.Get(url)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		tb.Fatalf("GET %s: %v", url, err)
	}
}
