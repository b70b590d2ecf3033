package simload

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"profitmining/internal/datagen"
	"profitmining/internal/feedback"
	"profitmining/internal/hierarchy"
	"profitmining/internal/incremental"
	"profitmining/internal/mining"
	"profitmining/internal/model"
	"profitmining/internal/registry"
	"profitmining/internal/serve"
)

// soakDrift is the Page-Hinkley tuning every soak stack runs with:
// tight enough that the mid-run behavior shock trips the alarm within a
// few hundred outcomes, loose enough that calibrated pre-shock traffic
// does not. scripts/soak_smoke.sh starts its server with the same
// values.
var soakDrift = feedback.DriftConfig{Delta: 0.002, Lambda: 8, MinObservations: 50}

// newRefresher builds a windowed model over ds's first window
// transactions, submits it to reg (promoting it) and returns the
// refresher that slides the window by slide on each drift alarm — the
// wiring profitserve -window uses.
func newRefresher(tb testing.TB, ds *model.Dataset, window, slide int, reg *registry.Registry) *incremental.Refresher {
	tb.Helper()
	space, err := hierarchy.NewBuilder(ds.Catalog).Compile(hierarchy.Options{MOA: true})
	if err != nil {
		tb.Fatal(err)
	}
	maint, err := incremental.New(space, ds.Transactions[:window], incremental.Config{
		Mining: mining.Options{MinSupport: 0.01},
	})
	if err != nil {
		tb.Fatal(err)
	}
	refresher, err := incremental.NewRefresher(incremental.RefreshConfig{
		Maintainer: maint,
		Catalog:    ds.Catalog,
		Source:     ds.Transactions,
		Start:      window % len(ds.Transactions),
		Slide:      slide,
		Registry:   reg,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, _, err := refresher.SubmitCurrent("soak test initial window"); err != nil {
		tb.Fatal(err)
	}
	return refresher
}

// newSoakStack stands up the full closed loop in-process: a windowed
// model over the first part of the dataset, a registry whose promotions
// feed the collector, the soak drift detector, and an HTTP server — the
// same wiring cmd/profitserve uses. The returned refresher answers
// drift alarms with a windowed re-mine.
func newSoakStack(tb testing.TB, ds *model.Dataset, window, slide int) (*httptest.Server, *incremental.Refresher, *registry.Registry) {
	tb.Helper()
	fb, _, err := feedback.Open(feedback.Config{Drift: soakDrift})
	if err != nil {
		tb.Fatal(err)
	}
	reg, err := registry.New(registry.Options{
		OnPromote: func(snap *registry.Snapshot) { serve.RegisterSnapshot(fb, snap) },
	})
	if err != nil {
		tb.Fatal(err)
	}
	refresher := newRefresher(tb, ds, window, slide, reg)
	ts := httptest.NewServer(serve.NewRegistry(reg, nil, fb).Handler())
	tb.Cleanup(ts.Close)
	return ts, refresher, reg
}

// soakConfig is the soak traffic profile: a diurnal cycle spanning the
// run, periodic 2× bursts, and a behavior shock at half time that
// slashes purchase probability — the drift the closed loop must detect
// and refresh through.
func soakConfig(base string, ds *model.Dataset, truth *datagen.GroundTruth, users int, seed int64, virtual, rate float64) Config {
	return Config{
		BaseURL:  base,
		Dataset:  ds,
		Truth:    truth,
		Users:    users,
		Seed:     seed,
		Duration: virtual,
		Arrival: ArrivalConfig{
			BaseRate:    rate,
			DayLength:   virtual / 2,
			DiurnalAmp:  0.4,
			BurstEvery:  virtual / 3,
			BurstLen:    virtual / 20,
			BurstFactor: 2,
		},
		MeanSessionSteps: 3,
		MeanThink:        0.5,
		ShockAt:          virtual / 2,
		ShockFactor:      0.05,
	}
}

// TestRunDeterministicEndToEnd is the heart of the soak gate: the same
// seed against two fresh but identical server stacks must produce
// byte-identical final /feedback/stats — including at least one
// drift → delta-refresh → promote cycle along the way.
func TestRunDeterministicEndToEnd(t *testing.T) {
	ds, truth := genWorld(t)
	run := func() *Result {
		ts, refresher, _ := newSoakStack(t, ds, 300, 50)
		cfg := soakConfig(ts.URL, ds, truth, 200, 1234, 60, 4)
		cfg.OnDrift = func() {
			if _, _, err := refresher.Refresh(); err != nil {
				t.Errorf("refresh: %v", err)
			}
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	res1 := run()
	res2 := run()

	if res1.Dropped != 0 || res2.Dropped != 0 {
		t.Fatalf("dropped requests: run1=%d run2=%d, want 0", res1.Dropped, res2.Dropped)
	}
	if res1.Steps == 0 || res1.Outcomes == 0 {
		t.Fatalf("simulation did nothing: %+v", res1)
	}
	if res1.Conversions == 0 {
		t.Fatal("no conversions: the buy model never fired")
	}
	if res1.Recommends == 0 {
		t.Fatal("no recommendations received")
	}
	if res1.DriftAlarms == 0 {
		t.Fatal("shock did not trip the drift detector: no drift→refresh cycle exercised")
	}
	if !bytes.Equal(res1.FinalStats, res2.FinalStats) {
		t.Fatalf("final /feedback/stats differ between identical runs:\nrun1: %d bytes\nrun2: %d bytes\nrun1: %.400s\nrun2: %.400s",
			len(res1.FinalStats), len(res2.FinalStats), res1.FinalStats, res2.FinalStats)
	}
	for _, res := range []*Result{res1, res2} {
		if res.Sessions != res1.Sessions || res.Steps != res1.Steps ||
			res.Outcomes != res1.Outcomes || res.Conversions != res1.Conversions ||
			res.DriftAlarms != res1.DriftAlarms {
			t.Fatalf("run counters diverged: %+v vs %+v", res1, res)
		}
	}
}

func TestRunValidation(t *testing.T) {
	ds, truth := genWorld(t)
	base := Config{BaseURL: "http://127.0.0.1:1", Dataset: ds, Truth: truth,
		Users: 10, Duration: 1, Arrival: ArrivalConfig{BaseRate: 1}}

	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"no base url", func(c *Config) { c.BaseURL = "" }},
		{"no duration", func(c *Config) { c.Duration = 0 }},
		{"no rate", func(c *Config) { c.Arrival.BaseRate = 0 }},
		{"no users", func(c *Config) { c.Users = 0 }},
		{"no truth", func(c *Config) { c.Truth = nil }},
	} {
		cfg := base
		tc.mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Fatalf("%s: want error", tc.name)
		}
	}
}

// TestRunUnreachableServerCountsDrops exercises the ledger: against a
// dead endpoint every step drops, and Run still returns a result-shaped
// error rather than hanging.
func TestRunUnreachableServerCountsDrops(t *testing.T) {
	ds, truth := genWorld(t)
	cfg := Config{
		BaseURL: "http://127.0.0.1:1", // reserved port: connection refused
		Dataset: ds, Truth: truth,
		Users: 10, Seed: 1, Duration: 2,
		Arrival: ArrivalConfig{BaseRate: 3},
	}
	res, err := Run(cfg)
	if err == nil {
		t.Fatal("want error fetching final stats from a dead server")
	}
	if res == nil || res.Dropped == 0 {
		t.Fatalf("want dropped requests recorded, got %+v", res)
	}
}
