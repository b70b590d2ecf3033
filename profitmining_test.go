package profitmining_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"profitmining"
)

func TestBuildAndRecommendGrocery(t *testing.T) {
	g := profitmining.NewGrocery(800, 11)
	rec, err := profitmining.Build(g.Dataset, profitmining.Options{
		MinSupport: 0.01,
		Hierarchy:  g.Builder,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Snack basket → Sunchip at some price.
	basket := profitmining.Basket{{Item: g.Items["Beer"], Promo: g.Promos["Beer@9"], Qty: 1}}
	r := rec.Recommend(basket)
	if r.Item != g.Items["Sunchip"] {
		t.Errorf("beer basket → %v, want Sunchip", g.Dataset.Catalog.Item(r.Item).Name)
	}
	if r.Rule == nil {
		t.Fatal("recommendation carries no rule")
	}
	if len(rec.Explain(r)) == 0 {
		t.Error("Explain returned nothing")
	}

	// Bread basket → Egg, at the profitable 4-pack price (intro scenario:
	// 4-pack profit 2.0 vs pack 0.5 at equal frequency).
	bread := profitmining.Basket{{Item: g.Items["Bread"], Promo: g.Promos["Bread"], Qty: 1}}
	r = rec.Recommend(bread)
	if r.Item != g.Items["Egg"] || r.Promo != g.Promos["Egg@4.4"] {
		t.Errorf("bread basket → item %v promo %v, want the Egg 4-pack",
			g.Dataset.Catalog.Item(r.Item).Name, r.Promo)
	}
}

func TestBuildValidatesDataset(t *testing.T) {
	if _, err := profitmining.Build(nil, profitmining.Options{MinSupport: 0.1}); err == nil {
		t.Error("nil dataset must fail")
	}
	g := profitmining.NewGrocery(10, 1)
	// No threshold at all.
	if _, err := profitmining.Build(g.Dataset, profitmining.Options{}); err == nil {
		t.Error("zero options must fail (no threshold)")
	}
	// Corrupt a transaction.
	bad := *g.Dataset
	bad.Transactions = append([]profitmining.Transaction(nil), g.Dataset.Transactions...)
	bad.Transactions[0].Target.Qty = -1
	if _, err := profitmining.Build(&bad, profitmining.Options{MinSupport: 0.1}); err == nil {
		t.Error("invalid dataset must fail validation")
	}
}

func TestOptionsVariants(t *testing.T) {
	g := profitmining.NewGrocery(400, 7)
	base := profitmining.Options{MinSupport: 0.02, Hierarchy: g.Builder}

	moa, err := profitmining.Build(g.Dataset, base)
	if err != nil {
		t.Fatal(err)
	}
	noMoaOpts := base
	noMoaOpts.DisableMOA = true
	noMoa, err := profitmining.Build(g.Dataset, noMoaOpts)
	if err != nil {
		t.Fatal(err)
	}
	// MOA adds price-level generalizations, so it mines at least as many
	// rules pre-pruning.
	if moa.Stats().RulesGenerated < noMoa.Stats().RulesGenerated {
		t.Errorf("MOA generated %d rules, no-MOA %d — expected MOA ≥ no-MOA",
			moa.Stats().RulesGenerated, noMoa.Stats().RulesGenerated)
	}

	unprunedOpts := base
	unprunedOpts.DisablePruning = true
	unpruned, err := profitmining.Build(g.Dataset, unprunedOpts)
	if err != nil {
		t.Fatal(err)
	}
	if unpruned.Stats().RulesFinal < moa.Stats().RulesFinal {
		t.Error("pruning should not increase the rule count")
	}

	interestOpts := base
	interestOpts.MinInterest = 1.5
	interest, err := profitmining.Build(g.Dataset, interestOpts)
	if err != nil {
		t.Fatal(err)
	}
	if interest.Stats().RulesNonDominated > moa.Stats().RulesNonDominated {
		t.Error("R-interest filter should not grow the rule set")
	}

	confOpts := base
	confOpts.MinConfidence = 0.9
	strict, err := profitmining.Build(g.Dataset, confOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range strict.Rules() {
		if !r.IsDefault() && r.Conf() < 0.9 {
			t.Errorf("rule below the confidence threshold survived: conf %.2f", r.Conf())
		}
	}
}

func TestDatasetGenerationFacade(t *testing.T) {
	q := profitmining.QuestConfig{
		NumTransactions: 300,
		NumItems:        30,
		AvgTxnLen:       5,
		AvgPatternLen:   3,
		NumPatterns:     20,
		Seed:            3,
	}
	ds1, err := profitmining.GenerateDatasetI(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds1.Catalog.TargetItems()) != 2 {
		t.Errorf("dataset I targets = %d", len(ds1.Catalog.TargetItems()))
	}
	ds2, err := profitmining.GenerateDatasetII(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds2.Catalog.TargetItems()) != 10 {
		t.Errorf("dataset II targets = %d", len(ds2.Catalog.TargetItems()))
	}
	custom, err := profitmining.GenerateSynthetic(profitmining.SyntheticConfig{
		Quest:   q,
		Targets: []profitmining.TargetSpec{{Name: "only", Cost: 5, Weight: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(custom.Catalog.TargetItems()) != 1 {
		t.Error("custom synthetic targets")
	}
}

func TestEvaluateFacade(t *testing.T) {
	g := profitmining.NewGrocery(600, 5)
	// Train on the first 500, validate the last 100.
	train := &profitmining.Dataset{Catalog: g.Dataset.Catalog, Transactions: g.Dataset.Transactions[:500]}
	validation := g.Dataset.Transactions[500:]

	rec, err := profitmining.Build(train, profitmining.Options{MinSupport: 0.01, Hierarchy: g.Builder})
	if err != nil {
		t.Fatal(err)
	}
	m := profitmining.Evaluate(g.Dataset.Catalog, validation, profitmining.RecommenderFunc(rec),
		profitmining.EvalOptions{MOAHits: true})
	if m.N != 100 {
		t.Fatalf("N = %d", m.N)
	}
	if m.Gain() <= 0 || m.Gain() > 1 {
		t.Errorf("gain = %g, want in (0, 1] under saving MOA", m.Gain())
	}
	if m.HitRate() <= 0.3 {
		t.Errorf("hit rate = %g, suspiciously low for the grocery patterns", m.HitRate())
	}
}

func TestRunSweepFacade(t *testing.T) {
	q := profitmining.QuestConfig{
		NumTransactions: 400,
		NumItems:        25,
		AvgTxnLen:       5,
		AvgPatternLen:   3,
		NumPatterns:     20,
		Seed:            9,
	}
	ds, err := profitmining.GenerateDatasetI(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	points, err := profitmining.RunSweep(ds, profitmining.FlatSpaces(ds.Catalog), profitmining.SweepConfig{
		Variants:    []profitmining.Variant{profitmining.ProfMOA, profitmining.MPI},
		MinSupports: []float64{0.05},
		Folds:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2", len(points))
	}
}

func TestReadBasketsFacade(t *testing.T) {
	ds, err := profitmining.ReadBaskets(strings.NewReader("a b t\nc t\n"), profitmining.BasketOptions{
		Targets: []string{"t"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Transactions) != 2 || len(ds.Catalog.TargetItems()) != 1 {
		t.Errorf("baskets = %d txns, %d targets", len(ds.Transactions), len(ds.Catalog.TargetItems()))
	}
}

// TestModelStreamFacade: WriteModel streams exactly the export
// SaveModel writes to a file.
func TestModelStreamFacade(t *testing.T) {
	g := profitmining.NewGrocery(200, 3)
	rec, err := profitmining.Build(g.Dataset, profitmining.Options{MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := profitmining.WriteModel(&buf, g.Dataset.Catalog, nil, rec); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := profitmining.SaveModel(path, g.Dataset.Catalog, nil, rec); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), saved) {
		t.Error("WriteModel and SaveModel wrote different exports")
	}
}

func TestNewHierarchyFacade(t *testing.T) {
	cat := profitmining.NewCatalog()
	it := cat.AddItem("A", false)
	cat.AddPromo(it, 1, 0.5, 1)
	tgt := cat.AddItem("T", true)
	pt := cat.AddPromo(tgt, 5, 2, 1)

	hb := profitmining.NewHierarchy(cat)
	hb.AddConcept("Stuff")
	hb.PlaceItem(it, "Stuff")
	ds := &profitmining.Dataset{Catalog: cat, Transactions: []profitmining.Transaction{
		{
			NonTarget: []profitmining.Sale{{Item: it, Promo: cat.Promos(it)[0], Qty: 1}},
			Target:    profitmining.Sale{Item: tgt, Promo: pt, Qty: 1},
		},
	}}
	rec, err := profitmining.Build(ds, profitmining.Options{MinSupportCount: 1, Hierarchy: hb})
	if err != nil {
		t.Fatal(err)
	}
	// The concept appears as a rule body candidate.
	found := false
	for _, r := range rec.Rules() {
		for _, g := range r.Body {
			if rec.Space().Name(g) == "Stuff" {
				found = true
			}
		}
	}
	if !found {
		t.Log("no concept rule survived (acceptable on one transaction)")
	}
}

func TestSaveLoadFacade(t *testing.T) {
	g := profitmining.NewGrocery(50, 2)
	path := filepath.Join(t.TempDir(), "grocery.pmjl")
	if err := profitmining.SaveDataset(path, g.Dataset, nil); err != nil {
		t.Fatal(err)
	}
	ds, _, err := profitmining.LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ds.RecordedProfit()-g.Dataset.RecordedProfit()) > 1e-9 {
		t.Error("save/load changed recorded profit")
	}

	var buf bytes.Buffer
	if err := profitmining.WriteDataset(&buf, g.Dataset, nil); err != nil {
		t.Fatal(err)
	}
	ds2, _, err := profitmining.ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds2.Transactions) != 50 {
		t.Error("stream round trip lost transactions")
	}
}

func TestTopKFacade(t *testing.T) {
	g := profitmining.NewGrocery(800, 13)
	rec, err := profitmining.Build(g.Dataset, profitmining.Options{MinSupport: 0.005, Hierarchy: g.Builder})
	if err != nil {
		t.Fatal(err)
	}
	basket := profitmining.Basket{{Item: g.Items["Perfume"], Promo: g.Promos["Perfume"], Qty: 1}}
	top := rec.RecommendTopK(basket, 2)
	if len(top) != 2 {
		t.Fatalf("TopK = %d recommendations", len(top))
	}
	if top[0].Item == top[1].Item {
		t.Error("TopK repeated an item")
	}
	// Perfume buyers buy lipsticks and diamonds: both should show up.
	want := map[profitmining.ItemID]bool{g.Items["Lipstick"]: true, g.Items["Diamond"]: true}
	for _, r := range top {
		if !want[r.Item] {
			t.Errorf("unexpected TopK item %v", g.Dataset.Catalog.Item(r.Item).Name)
		}
	}
}
