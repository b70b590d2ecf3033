package eval

import (
	"math"
	"sync/atomic"
	"testing"

	"profitmining/internal/model"
)

// ladder fixture: one non-target item X and one target item T with four
// prices (1+j·0.1)·10 over cost 10 (profits 1, 2, 3, 4).
type ladder struct {
	cat  *model.Catalog
	x, t model.ItemID
	px   model.PromoID
	pt   [4]model.PromoID
}

func newLadder(tb testing.TB) *ladder {
	tb.Helper()
	l := &ladder{cat: model.NewCatalog()}
	l.x = l.cat.AddItem("X", false)
	l.px = l.cat.AddPromo(l.x, 2, 1, 1)
	l.t = l.cat.AddItem("T", true)
	for j := 0; j < 4; j++ {
		l.pt[j] = l.cat.AddPromo(l.t, (1+float64(j+1)*0.1)*10, 10, 1)
	}
	return l
}

func (l *ladder) txn(priceIdx int, qty float64) model.Transaction {
	return model.Transaction{
		NonTarget: []model.Sale{{Item: l.x, Promo: l.px, Qty: 1}},
		Target:    model.Sale{Item: l.t, Promo: l.pt[priceIdx], Qty: qty},
	}
}

// fixedRec always recommends one pair.
func fixedRec(item model.ItemID, promo model.PromoID) Recommend {
	return func(model.Basket) (model.ItemID, model.PromoID) { return item, promo }
}

func TestEvaluateExactVsMOAHits(t *testing.T) {
	l := newLadder(t)
	validation := []model.Transaction{l.txn(3, 1)} // recorded at P4 (profit 4)

	rec := fixedRec(l.t, l.pt[1]) // recommend P2 (profit 2)

	exact := Evaluate(l.cat, validation, rec, Options{MOAHits: false})
	if exact.Hits != 0 || exact.GeneratedProfit != 0 {
		t.Errorf("exact hits = %+v, want miss", exact)
	}
	moa := Evaluate(l.cat, validation, rec, Options{MOAHits: true})
	if moa.Hits != 1 {
		t.Fatalf("MOA hits = %d, want 1", moa.Hits)
	}
	// Saving MOA: quantity kept, profit = 2; recorded = 4; gain = 0.5.
	if math.Abs(moa.GeneratedProfit-2) > 1e-12 || math.Abs(moa.Gain()-0.5) > 1e-12 {
		t.Errorf("MOA profit = %g gain = %g, want 2 and 0.5", moa.GeneratedProfit, moa.Gain())
	}

	// Recommending a HIGHER price never hits, even with MOA.
	recHigh := fixedRec(l.t, l.pt[3])
	m := Evaluate(l.cat, []model.Transaction{l.txn(0, 1)}, recHigh, Options{MOAHits: true})
	if m.Hits != 0 {
		t.Error("less favorable recommendation must miss")
	}
	// Exact price always hits.
	mExact := Evaluate(l.cat, []model.Transaction{l.txn(3, 1)}, recHigh, Options{MOAHits: false})
	if mExact.Hits != 1 || math.Abs(mExact.Gain()-1) > 1e-12 {
		t.Errorf("exact-price hit = %+v, want gain 1", mExact)
	}
}

func TestEvaluateWrongItemMisses(t *testing.T) {
	l := newLadder(t)
	other := l.cat.AddItem("U", true)
	pu := l.cat.AddPromo(other, 5, 1, 1)
	m := Evaluate(l.cat, []model.Transaction{l.txn(0, 1)}, fixedRec(other, pu), Options{MOAHits: true})
	if m.Hits != 0 {
		t.Error("wrong target item must miss")
	}
}

func TestEvaluateGainAtMostOneUnderSavingMOA(t *testing.T) {
	// Saving MOA never increases spending, so gain ≤ 1 whatever the
	// recommender does (Section 5.1).
	l := newLadder(t)
	var validation []model.Transaction
	for j := 0; j < 4; j++ {
		for q := 1; q <= 3; q++ {
			validation = append(validation, l.txn(j, float64(q)))
		}
	}
	for j := 0; j < 4; j++ {
		m := Evaluate(l.cat, validation, fixedRec(l.t, l.pt[j]), Options{MOAHits: true})
		if m.Gain() > 1+1e-12 {
			t.Errorf("gain %g > 1 under saving MOA (recommending P%d)", m.Gain(), j+1)
		}
	}
}

func TestEvaluateBuyingMOAGain(t *testing.T) {
	l := newLadder(t)
	validation := []model.Transaction{l.txn(3, 1)} // price 14, profit 4
	// Recommend P1 (price 11, profit 1): buying keeps spending → qty
	// 14/11, profit 14/11 ≈ 1.27.
	m := Evaluate(l.cat, validation, fixedRec(l.t, l.pt[0]),
		Options{MOAHits: true, Quantity: model.BuyingMOA{}})
	if math.Abs(m.GeneratedProfit-14.0/11) > 1e-12 {
		t.Errorf("buying profit = %g, want %g", m.GeneratedProfit, 14.0/11)
	}
}

func TestEvaluateBehaviorMultipliers(t *testing.T) {
	l := newLadder(t)
	validation := []model.Transaction{l.txn(3, 1)} // recorded P4

	// Probability 1 makes the multiplier deterministic. 1 step below
	// (recommend P3): near band doubles → profit 3×2 = 6.
	near := Behavior{NearX: 2, NearY: 1, FarX: 3, FarY: 1}
	m := Evaluate(l.cat, validation, fixedRec(l.t, l.pt[2]), Options{MOAHits: true, Behavior: near})
	if math.Abs(m.GeneratedProfit-6) > 1e-12 {
		t.Errorf("near-band profit = %g, want 6", m.GeneratedProfit)
	}
	// 3 steps below (recommend P1): far band triples → profit 1×3 = 3.
	m = Evaluate(l.cat, validation, fixedRec(l.t, l.pt[0]), Options{MOAHits: true, Behavior: near})
	if math.Abs(m.GeneratedProfit-3) > 1e-12 {
		t.Errorf("far-band profit = %g, want 3", m.GeneratedProfit)
	}
	// 0 steps (exact): no multiplier.
	m = Evaluate(l.cat, validation, fixedRec(l.t, l.pt[3]), Options{MOAHits: true, Behavior: near})
	if math.Abs(m.GeneratedProfit-4) > 1e-12 {
		t.Errorf("same-price profit = %g, want 4", m.GeneratedProfit)
	}
	// Probability 0 never multiplies.
	never := Behavior{NearX: 2, NearY: 0, FarX: 3, FarY: 0}
	if !never.Enabled() {
		t.Error("nonzero multipliers should count as enabled")
	}
	m = Evaluate(l.cat, validation, fixedRec(l.t, l.pt[2]), Options{MOAHits: true, Behavior: never})
	if math.Abs(m.GeneratedProfit-3) > 1e-12 {
		t.Errorf("zero-probability profit = %g, want 3", m.GeneratedProfit)
	}
}

func TestEvaluateBehaviorStochastic(t *testing.T) {
	l := newLadder(t)
	var validation []model.Transaction
	for i := 0; i < 4000; i++ {
		validation = append(validation, l.txn(3, 1))
	}
	b := Behavior{NearX: 2, NearY: 0.3, FarX: 3, FarY: 0.4}
	m := Evaluate(l.cat, validation, fixedRec(l.t, l.pt[2]), Options{MOAHits: true, Behavior: b, Seed: 9})
	// Expected profit per txn = 3·(1 + 0.3) = 3.9.
	avg := m.GeneratedProfit / float64(m.N)
	if avg < 3.7 || avg > 4.1 {
		t.Errorf("stochastic near-band average = %g, want ≈3.9", avg)
	}
	// Deterministic under the same seed.
	m2 := Evaluate(l.cat, validation, fixedRec(l.t, l.pt[2]), Options{MOAHits: true, Behavior: b, Seed: 9})
	if m.GeneratedProfit != m2.GeneratedProfit {
		t.Error("same seed must reproduce the same generated profit")
	}
}

func TestProfitBuckets(t *testing.T) {
	l := newLadder(t)
	// Profits recorded: 1, 2, 3, 4 → max 4; thirds at 4/3 and 8/3.
	var validation []model.Transaction
	for j := 0; j < 4; j++ {
		validation = append(validation, l.txn(j, 1))
	}
	m := Evaluate(l.cat, validation, fixedRec(l.t, l.pt[0]), Options{MOAHits: true})
	// Profit 1 ≤ 4/3 → Low; 2 ≤ 8/3 → Medium; 3 and 4 → High.
	if m.RangeN != [3]int{1, 1, 2} {
		t.Errorf("RangeN = %v, want [1 1 2]", m.RangeN)
	}
	// Recommending P1 hits everything under MOA.
	if m.RangeHits != [3]int{1, 1, 2} {
		t.Errorf("RangeHits = %v", m.RangeHits)
	}
	for i := 0; i < 3; i++ {
		if m.RangeHitRate(i) != 1 {
			t.Errorf("RangeHitRate(%d) = %g", i, m.RangeHitRate(i))
		}
	}
	// Recommending P4 hits only the top bucket.
	m = Evaluate(l.cat, validation, fixedRec(l.t, l.pt[3]), Options{MOAHits: true})
	if m.RangeHits != [3]int{0, 0, 1} {
		t.Errorf("P4 RangeHits = %v, want [0 0 1]", m.RangeHits)
	}
}

func TestMetricsMergeAndZeroes(t *testing.T) {
	a := Metrics{N: 2, Hits: 1, GeneratedProfit: 3, RecordedProfit: 6, RangeN: [3]int{1, 1, 0}, RangeHits: [3]int{1, 0, 0}}
	b := Metrics{N: 3, Hits: 3, GeneratedProfit: 7, RecordedProfit: 14, RangeN: [3]int{0, 1, 2}, RangeHits: [3]int{0, 1, 2}}
	a.Merge(b)
	if a.N != 5 || a.Hits != 4 || a.GeneratedProfit != 10 || a.RecordedProfit != 20 {
		t.Errorf("Merge = %+v", a)
	}
	if a.RangeN != [3]int{1, 2, 2} || a.RangeHits != [3]int{1, 1, 2} {
		t.Errorf("Merge ranges = %v %v", a.RangeN, a.RangeHits)
	}
	if math.Abs(a.Gain()-0.5) > 1e-12 || math.Abs(a.HitRate()-0.8) > 1e-12 {
		t.Errorf("Gain %g HitRate %g", a.Gain(), a.HitRate())
	}
	var z Metrics
	if z.Gain() != 0 || z.HitRate() != 0 || z.RangeHitRate(0) != 0 {
		t.Error("zero metrics must not divide by zero")
	}
}

func TestFolds(t *testing.T) {
	folds, err := Folds(103, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := map[int]int{}
	for _, f := range folds {
		if len(f) < 20 || len(f) > 21 {
			t.Errorf("fold size %d not balanced", len(f))
		}
		for _, i := range f {
			seen[i]++
		}
	}
	if len(seen) != 103 {
		t.Fatalf("folds cover %d indices, want 103", len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("index %d appears %d times", i, c)
		}
	}
	// Deterministic per seed, different across seeds.
	again, err := Folds(103, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range folds {
		for j := range folds[i] {
			if folds[i][j] != again[i][j] {
				t.Fatal("Folds not deterministic")
			}
		}
	}
}

func TestFoldsErrors(t *testing.T) {
	for _, tc := range [][2]int{{3, 5}, {10, 1}, {0, 2}} {
		if _, err := Folds(tc[0], tc[1], 1); err == nil {
			t.Errorf("Folds(%d, %d): expected error", tc[0], tc[1])
		}
	}
}

func TestCrossValidateTinyDatasetErrors(t *testing.T) {
	l := newLadder(t)
	ds := &model.Dataset{Catalog: l.cat}
	for i := 0; i < 3; i++ {
		ds.Transactions = append(ds.Transactions, l.txn(i, 1))
	}
	builder := func([]model.Transaction) (Recommend, BuildInfo, error) {
		t.Error("builder must not run when the dataset cannot be split")
		return nil, BuildInfo{}, nil
	}
	if _, _, _, err := CrossValidate(ds, 5, 1, builder, []Options{{}}); err == nil {
		t.Fatal("CrossValidate on n < k must return an error")
	}
}

// TestCrossValidateUsesDatasetWideProfitBuckets is the regression test
// for the fold-dependent bucket bug: with a single high-profit
// transaction and k=2, one fold's local profit maximum differs from the
// other's, and bucketing each fold against its own maximum (the old
// behavior) misplaces every low-profit transaction of the
// high-profit-free fold into the High bucket.
func TestCrossValidateUsesDatasetWideProfitBuckets(t *testing.T) {
	l := newLadder(t)
	ds := &model.Dataset{Catalog: l.cat}
	for i := 0; i < 9; i++ {
		ds.Transactions = append(ds.Transactions, l.txn(0, 1)) // profit 1
	}
	ds.Transactions = append(ds.Transactions, l.txn(3, 1)) // profit 4

	builder := func([]model.Transaction) (Recommend, BuildInfo, error) {
		return fixedRec(l.t, l.pt[0]), BuildInfo{}, nil
	}
	pooled, _, _, err := CrossValidate(ds, 2, 3, builder, []Options{{MOAHits: true}})
	if err != nil {
		t.Fatal(err)
	}
	// Against the dataset-wide cap of 4 the boundaries are 4/3 and 8/3:
	// the nine profit-1 transactions are Low and the profit-4 one is
	// High — regardless of which fold the profit-4 transaction lands in.
	if got, want := pooled[0].RangeN, [3]int{9, 0, 1}; got != want {
		t.Errorf("pooled RangeN = %v, want %v (one global stratification)", got, want)
	}
	if got, want := pooled[0].RangeHits, [3]int{9, 0, 1}; got != want {
		t.Errorf("pooled RangeHits = %v, want %v", got, want)
	}
}

func TestCrossValidate(t *testing.T) {
	l := newLadder(t)
	ds := &model.Dataset{Catalog: l.cat}
	for i := 0; i < 50; i++ {
		ds.Transactions = append(ds.Transactions, l.txn(i%4, 1))
	}
	// CrossValidate runs the builder for several folds concurrently.
	var builds atomic.Int64
	builder := func(train []model.Transaction) (Recommend, BuildInfo, error) {
		builds.Add(1)
		if len(train) != 40 {
			t.Errorf("train size %d, want 40", len(train))
		}
		return fixedRec(l.t, l.pt[0]), BuildInfo{RulesGenerated: 10, RulesFinal: 2}, nil
	}
	metrics, perFold, info, err := CrossValidate(ds, 5, 3, builder, []Options{{MOAHits: true}, {MOAHits: false}})
	if err != nil {
		t.Fatal(err)
	}
	if len(perFold) != 2 || len(perFold[0]) != 5 {
		t.Fatalf("perFold shape = %dx%d, want 2x5", len(perFold), len(perFold[0]))
	}
	var foldN int
	for _, m := range perFold[0] {
		foldN += m.N
	}
	if foldN != metrics[0].N {
		t.Errorf("per-fold N sums to %d, pooled %d", foldN, metrics[0].N)
	}
	if std := GainStd(perFold[0]); std < 0 {
		t.Errorf("GainStd = %g", std)
	}
	if n := builds.Load(); n != 5 {
		t.Errorf("builder ran %d times, want 5", n)
	}
	if metrics[0].N != 50 {
		t.Errorf("pooled N = %d, want 50", metrics[0].N)
	}
	// MOA hits everything; exact hits only the P1 quarter (12 or 13).
	if metrics[0].Hits != 50 {
		t.Errorf("MOA hits = %d, want 50", metrics[0].Hits)
	}
	if metrics[1].Hits < 12 || metrics[1].Hits > 13 {
		t.Errorf("exact hits = %d, want 12..13", metrics[1].Hits)
	}
	if info.RulesGenerated != 10 || info.RulesFinal != 2 {
		t.Errorf("info = %+v", info)
	}
}

func TestTargetProfitHistogram(t *testing.T) {
	l := newLadder(t)
	ds := &model.Dataset{Catalog: l.cat}
	for i := 0; i < 40; i++ {
		ds.Transactions = append(ds.Transactions, l.txn(i%4, 1))
	}
	h := TargetProfitHistogram(ds, 4)
	if h.N() != 40 {
		t.Fatalf("histogram N = %d", h.N())
	}
	for i, c := range h.Counts {
		if c != 10 {
			t.Errorf("bin %d = %d, want 10 (uniform price selection)", i, c)
		}
	}
}
