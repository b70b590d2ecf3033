package registry

import (
	"strings"
	"testing"

	"profitmining/internal/core"
	"profitmining/internal/datagen"
	"profitmining/internal/dataio"
	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
	"profitmining/internal/model"
)

// grocerySpec is the grocery concept hierarchy in its serializable
// form, so models built here can be exported.
func grocerySpec() *dataio.HierarchySpec {
	return &dataio.HierarchySpec{
		Concepts: []dataio.ConceptSpec{
			{Name: "Cosmetics"},
			{Name: "Food"},
			{Name: "Meat", Parents: []string{"Food"}},
			{Name: "Bakery", Parents: []string{"Food"}},
		},
		Placements: map[string][]string{
			"Perfume":       {"Cosmetics"},
			"Shampoo":       {"Cosmetics"},
			"FlakedChicken": {"Meat"},
			"Bread":         {"Bakery"},
		},
	}
}

// buildGrocery trains a small recommender for lifecycle tests.
func buildGrocery(t *testing.T, n int, seed int64) (*model.Catalog, *core.Recommender) {
	t.Helper()
	g := datagen.NewGrocery(n, seed)
	hb, err := grocerySpec().Builder(g.Dataset.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	space, err := hb.Compile(hierarchy.Options{MOA: true})
	if err != nil {
		t.Fatal(err)
	}
	mined, err := mining.Mine(space, g.Dataset.Transactions, mining.Options{MinSupport: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := core.Build(space, g.Dataset.Transactions, mined, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return g.Dataset.Catalog, rec
}

func TestSubmitPromotesAndVersions(t *testing.T) {
	cat, rec := buildGrocery(t, 800, 3)
	reg, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Active() != nil {
		t.Fatal("fresh registry has an active snapshot")
	}

	snap, outcome, err := reg.Submit(cat, rec, "test", "")
	if err != nil || outcome != Promoted {
		t.Fatalf("first submit: outcome %v, err %v", outcome, err)
	}
	if snap.Version != 1 || reg.Active() != snap {
		t.Fatalf("first promotion: version %d, active %p", snap.Version, reg.Active())
	}

	cat2, rec2 := buildGrocery(t, 1000, 7)
	snap2, outcome, err := reg.Submit(cat2, rec2, "test", "")
	if err != nil || outcome != Promoted {
		t.Fatalf("second submit: outcome %v, err %v", outcome, err)
	}
	if snap2.Version != 2 || reg.Active() != snap2 {
		t.Fatal("second promotion did not swap the active snapshot")
	}
	if reg.Active().Hash != rec2.Sealed().ContentHash() || reg.Active().LoadedAt.IsZero() {
		t.Error("snapshot metadata not stamped")
	}
}

func TestValidateRejectsBrokenCandidates(t *testing.T) {
	cat, rec := buildGrocery(t, 800, 3)
	otherCat, _ := buildGrocery(t, 600, 11)

	cases := []struct {
		name    string
		cat     *model.Catalog
		rec     *core.Recommender
		probes  []Probe
		wantErr string
	}{
		{"nil recommender", cat, nil, nil, "incomplete"},
		{"nil catalog", nil, rec, nil, "incomplete"},
		{"foreign catalog", otherCat, rec, nil, "different catalog"},
		{"unknown probe item", cat, rec, []Probe{{Basket: []ProbeSale{{Item: "Ghost"}}}}, "unknown item"},
		{"target item in probe", cat, rec, []Probe{{Basket: []ProbeSale{{Item: "Sunchip"}}}}, "target item"},
		{"wrong expectation", cat, rec, []Probe{{Basket: []ProbeSale{{Item: "Beer"}}, ExpectItem: "Caviar"}}, "want"},
	}
	for _, tc := range cases {
		err := Validate(tc.cat, tc.rec, tc.probes)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}

	// And the canonical good case, with a passing golden probe.
	if err := Validate(cat, rec, []Probe{{Basket: []ProbeSale{{Item: "Beer", PromoIx: 0, Qty: 1}}, ExpectItem: "Sunchip"}}); err != nil {
		t.Fatalf("valid candidate rejected: %v", err)
	}
}

func TestRejectedSubmitKeepsActive(t *testing.T) {
	cat, rec := buildGrocery(t, 800, 3)
	reg, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Submit(cat, rec, "good", ""); err != nil {
		t.Fatal(err)
	}
	active := reg.Active()

	_, outcome, err := reg.Submit(cat, nil, "bad", "")
	if err == nil || outcome != Rejected {
		t.Fatalf("broken candidate: outcome %v, err %v", outcome, err)
	}
	if reg.Active() != active {
		t.Fatal("rejected candidate disturbed the active snapshot")
	}
}

func TestShadowLifecycle(t *testing.T) {
	catA, recA := buildGrocery(t, 800, 3)
	catB, recB := buildGrocery(t, 1000, 7)
	reg, err := New(Options{ShadowFraction: 1, ShadowMinSamples: 3})
	if err != nil {
		t.Fatal(err)
	}

	// First submit promotes even in shadow mode: there is nothing to
	// compare against.
	if _, outcome, err := reg.Submit(catA, recA, "A", ""); err != nil || outcome != Promoted {
		t.Fatalf("bootstrap submit: outcome %v, err %v", outcome, err)
	}

	snapB, outcome, err := reg.Submit(catB, recB, "B", "")
	if err != nil || outcome != Staged {
		t.Fatalf("shadow submit: outcome %v, err %v", outcome, err)
	}
	if reg.Active().Hash != recA.Sealed().ContentHash() || reg.Staged() != snapB {
		t.Fatal("staging must leave the active snapshot serving")
	}

	// Fraction 1 shadows every request.
	for i := 0; i < 2; i++ {
		if got := reg.ShadowSnapshot(); got != snapB {
			t.Fatalf("request %d not shadowed", i)
		}
		reg.RecordShadow(snapB, i == 0, float64(i), nil)
	}
	if reg.Active().Hash != recA.Sealed().ContentHash() {
		t.Fatal("candidate promoted before the sample floor")
	}
	stats, ok := reg.ShadowStats()
	if !ok || stats.Sampled != 2 || stats.Agreed != 1 {
		t.Fatalf("shadow stats = %+v, ok %v", stats, ok)
	}

	// The third sample crosses ShadowMinSamples and auto-promotes.
	if got := reg.ShadowSnapshot(); got != snapB {
		t.Fatal("third request not shadowed")
	}
	reg.RecordShadow(snapB, true, 2.5, nil)
	if reg.Active() != snapB {
		t.Fatal("candidate not auto-promoted after the sample floor")
	}
	if reg.Staged() != nil {
		t.Fatal("staging not cleared after promotion")
	}
	if reg.ShadowSnapshot() != nil {
		t.Fatal("shadowing continued after promotion")
	}

	// Late records for the already-promoted snapshot are dropped.
	reg.RecordShadow(snapB, true, 1, nil)
	if _, ok := reg.ShadowStats(); ok {
		t.Fatal("stats resurrected by a late record")
	}
}

func TestPromoteStagedForces(t *testing.T) {
	catA, recA := buildGrocery(t, 800, 3)
	catB, recB := buildGrocery(t, 1000, 7)
	reg, err := New(Options{ShadowFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.PromoteStaged(); err == nil {
		t.Fatal("promoting with nothing staged must fail")
	}
	if _, _, err := reg.Submit(catA, recA, "A", ""); err != nil {
		t.Fatal(err)
	}
	snapB, outcome, err := reg.Submit(catB, recB, "B", "")
	if err != nil || outcome != Staged {
		t.Fatalf("outcome %v, err %v", outcome, err)
	}
	promoted, err := reg.PromoteStaged()
	if err != nil || promoted != snapB || reg.Active() != snapB {
		t.Fatalf("force-promotion failed: %v", err)
	}
}

func TestNewRejectsBadOptions(t *testing.T) {
	if _, err := New(Options{ShadowFraction: 1.5}); err == nil {
		t.Error("shadow fraction above 1 accepted")
	}
	if _, err := New(Options{ShadowFraction: -0.1}); err == nil {
		t.Error("negative shadow fraction accepted")
	}
	if _, err := New(Options{ShadowMinSamples: -1}); err == nil {
		t.Error("negative sample floor accepted")
	}
}
