package mining

import (
	"fmt"
	"math"
	"testing"

	"profitmining/internal/datagen"
	"profitmining/internal/hierarchy"
	"profitmining/internal/model"
	"profitmining/internal/quest"
)

func TestMineHeadsAreTargetPromosOnly(t *testing.T) {
	f := newFixture(t, true)
	txns := []model.Transaction{
		f.txn(f.t5, 1, f.a1, f.b1),
		f.txn(f.t6, 1, f.a2, f.c1),
	}
	res, err := Mine(f.space, txns, Options{MinSupportCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.AllRules() {
		if f.space.Kind(r.Head) != hierarchy.KindItemPromo {
			t.Errorf("head %s is not an item-promo node", f.space.Name(r.Head))
		}
		if !f.space.Catalog().Item(f.space.ItemOf(r.Head)).Target {
			t.Errorf("head %s is not a target item", f.space.Name(r.Head))
		}
	}
}

func TestMineBodiesExcludeTargetNodes(t *testing.T) {
	f := newFixture(t, true)
	txns := []model.Transaction{f.txn(f.t5, 1, f.a1, f.b1)}
	res, err := Mine(f.space, txns, Options{MinSupportCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rules {
		for _, g := range r.Body {
			if f.space.ItemOf(g) == f.t {
				t.Errorf("body contains target node %s", f.space.Name(g))
			}
			if f.space.Kind(g) == hierarchy.KindRoot {
				t.Error("body contains the root")
			}
		}
	}
}

func TestMineLevelStats(t *testing.T) {
	f := newFixture(t, true)
	var txns []model.Transaction
	for i := 0; i < 10; i++ {
		txns = append(txns, f.txn(f.t5, 1, f.a1, f.b1, f.c1))
	}
	res, err := Mine(f.space, txns, Options{MinSupportCount: 2, MaxBodyLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CandidateBodies) == 0 || len(res.FrequentBodies) == 0 {
		t.Fatal("level statistics not populated")
	}
	// Frequent counts can never exceed candidate counts at any level.
	for i := range res.FrequentBodies {
		if i < len(res.CandidateBodies) && res.FrequentBodies[i] > res.CandidateBodies[i] {
			t.Errorf("level %d: %d frequent > %d candidates", i+1, res.FrequentBodies[i], res.CandidateBodies[i])
		}
	}
	if res.NumTransactions != 10 || res.MinSupportCount != 2 {
		t.Errorf("result metadata = %d txns, minsup %d", res.NumTransactions, res.MinSupportCount)
	}
}

// TestMineLevelCountsPinned pins the per-level candidate and frequent
// body counts of three Dataset I inputs to recorded values: the lattice a
// counting change explores must not move. The inputs cover a dense pair
// level (200 items), a wide pair level that collapses at level 3 (1,000
// items at 1%) and a wide level 3 (1,000 items at 0.4%).
func TestMineLevelCountsPinned(t *testing.T) {
	cases := []struct {
		items, txns int
		minSupport  float64
		cand, freq  string
	}{
		{200, 8000, 0.01, "[1000 361021 241550]", "[852 17032 51011]"},
		{1000, 8192, 0.01, "[5000 729072 332]", "[1209 269 92]"},
		{1000, 16384, 0.004, "[5000 4961269 36747]", "[3152 10404 14333]"},
	}
	for _, c := range cases {
		ds, err := datagen.Generate(datagen.DatasetIConfig(quest.Config{NumTransactions: c.txns, NumItems: c.items, Seed: 1}, 2))
		if err != nil {
			t.Fatal(err)
		}
		space := hierarchy.Flat(ds.Catalog, hierarchy.Options{MOA: true})
		res, err := Mine(space, ds.Transactions, Options{MinSupport: c.minSupport, MaxBodyLen: 3})
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(res.CandidateBodies); got != c.cand {
			t.Errorf("%d items, %d txns, minsup %g: candidate bodies %s, want %s", c.items, c.txns, c.minSupport, got, c.cand)
		}
		if got := fmt.Sprint(res.FrequentBodies); got != c.freq {
			t.Errorf("%d items, %d txns, minsup %g: frequent bodies %s, want %s", c.items, c.txns, c.minSupport, got, c.freq)
		}
	}
}

func TestMineConfidenceBounds(t *testing.T) {
	f := newFixture(t, true)
	var txns []model.Transaction
	for i := 0; i < 8; i++ {
		tgt := f.t5
		if i%2 == 0 {
			tgt = f.t6
		}
		txns = append(txns, f.txn(tgt, 1, f.a1))
	}
	res, err := Mine(f.space, txns, Options{MinSupportCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.AllRules() {
		if c := r.Conf(); c < 0 || c > 1 {
			t.Errorf("confidence %g out of bounds for %s", c, r.String(f.space))
		}
		if r.HitCount > r.BodyCount {
			t.Errorf("hits %d exceed body count %d", r.HitCount, r.BodyCount)
		}
		if s := r.Supp(res.NumTransactions); s < 0 || s > 1 {
			t.Errorf("support %g out of bounds", s)
		}
	}
}

func TestMineExpectedBehaviorQuantity(t *testing.T) {
	// The greedy estimation extension: building with ExpectedBehavior
	// inflates rule profit for favorable-price heads.
	f := newFixture(t, true)
	txns := []model.Transaction{f.txn(f.t6, 1, f.a1)} // recorded at $6

	plain, err := mineExhaustive(f.space, txns, Options{MinSupportCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	eb := model.ExpectedBehavior{
		Catalog: f.cat,
		NearX:   2, NearY: 1, // 1-step discount always doubles
		FarX: 3, FarY: 1,
	}
	greedy, err := mineExhaustive(f.space, txns, Options{MinSupportCount: 1, Quantity: eb})
	if err != nil {
		t.Fatal(err)
	}
	// ⟨T,$5⟩ recommended against the $6 sale is 1 step more favorable:
	// plain profit 2, greedy 2 × 2 = 4.
	rp := findRule(t, plain, f.space, []string{"A"}, "⟨T,$5⟩")
	rg := findRule(t, greedy, f.space, []string{"A"}, "⟨T,$5⟩")
	if rp == nil || rg == nil {
		t.Fatal("rules missing")
	}
	if math.Abs(rp.Profit-2) > 1e-9 || math.Abs(rg.Profit-4) > 1e-9 {
		t.Errorf("profits = %g (plain), %g (greedy); want 2 and 4", rp.Profit, rg.Profit)
	}
	// The exact-price head gets no multiplier.
	rp6 := findRule(t, plain, f.space, []string{"A"}, "⟨T,$6⟩")
	rg6 := findRule(t, greedy, f.space, []string{"A"}, "⟨T,$6⟩")
	if math.Abs(rp6.Profit-rg6.Profit) > 1e-9 {
		t.Error("same-price head must not be multiplied")
	}
}

func TestMineMinConfidence(t *testing.T) {
	f := newFixture(t, true)
	var txns []model.Transaction
	// {A} → ⟨T,$6⟩ has confidence 0.5 (2 of 4); {B} → ⟨T,$5⟩ is 1.0.
	for i := 0; i < 2; i++ {
		txns = append(txns, f.txn(f.t6, 1, f.a1))
		txns = append(txns, f.txn(f.t5, 1, f.a1))
		txns = append(txns, f.txn(f.t5, 1, f.b1))
	}
	res, err := mineExhaustive(f.space, txns, Options{MinSupportCount: 1, MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if r := findRule(t, res, f.space, []string{"A"}, "⟨T,$6⟩"); r != nil {
		t.Errorf("low-confidence rule survived: %s", r.String(f.space))
	}
	if findRule(t, res, f.space, []string{"B"}, "⟨T,$5⟩") == nil {
		t.Error("high-confidence rule missing")
	}
	for _, r := range res.Rules {
		if r.Conf() < 0.8 {
			t.Errorf("rule below confidence threshold emitted: %s", r.String(f.space))
		}
	}
	// Out-of-range threshold rejected.
	if _, err := mineExhaustive(f.space, txns, Options{MinSupportCount: 1, MinConfidence: 1.5}); err == nil {
		t.Error("MinConfidence > 1 must fail")
	}
}

func TestMineEmptyBaskets(t *testing.T) {
	// Transactions may have no non-target sales at all; only the default
	// rule can cover them.
	f := newFixture(t, true)
	txns := []model.Transaction{
		{Target: model.Sale{Item: f.t, Promo: f.t5, Qty: 1}},
		f.txn(f.t5, 1, f.a1),
	}
	res, err := mineExhaustive(f.space, txns, Options{MinSupportCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Default.BodyCount != 2 || res.Default.HitCount != 2 {
		t.Errorf("default rule = N%d hits%d, want 2/2", res.Default.BodyCount, res.Default.HitCount)
	}
	r := findRule(t, res, f.space, []string{"A"}, "⟨T,$5⟩")
	if r == nil || r.BodyCount != 1 {
		t.Fatalf("{A} rule = %+v, want body count 1", r)
	}
}

func TestMineLargeQuantityProfit(t *testing.T) {
	f := newFixture(t, true)
	txns := []model.Transaction{f.txn(f.t5, 10, f.a1)} // quantity 10
	res, err := mineExhaustive(f.space, txns, Options{MinSupportCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := findRule(t, res, f.space, []string{"A"}, "⟨T,$5⟩")
	if r == nil || math.Abs(r.Profit-20) > 1e-9 {
		t.Fatalf("quantity-10 profit = %+v, want 20", r)
	}
}

// TestMineSupportExactlyAtThreshold mines a rule whose support is exactly
// MinSupport. 0.07 × 100 evaluates to 7.000000000000001, so rounding the
// product up would demand 8 hits; the resolved count is the least c with
// c/n ≥ MinSupport, in the division Rule.Supp uses.
func TestMineSupportExactlyAtThreshold(t *testing.T) {
	f := newFixture(t, false)
	var txns []model.Transaction
	for i := 0; i < 93; i++ {
		txns = append(txns, f.txn(f.t5, 1, f.a1))
	}
	for i := 0; i < 7; i++ {
		txns = append(txns, f.txn(f.t6, 1, f.b1))
	}
	res, err := Mine(f.space, txns, Options{MinSupport: 0.07})
	if err != nil {
		t.Fatal(err)
	}
	if res.MinSupportCount != 7 {
		t.Errorf("MinSupportCount = %d, want 7", res.MinSupportCount)
	}
	r := findRule(t, res, f.space, []string{"B"}, "⟨T,$6⟩")
	if r == nil {
		t.Fatal("rule {B} → ⟨T,$6⟩ with support exactly 0.07 not mined")
	}
	if r.Supp(res.NumTransactions) < 0.07 {
		t.Errorf("Supp = %v, below the threshold it was mined at", r.Supp(res.NumTransactions))
	}

	// Every k% of every window size resolves to the least such count.
	for n := 100; n <= 10000; n += 100 {
		for k := 1; k <= 99; k++ {
			minSup := float64(k) / 100
			c := resolveMinCount(Options{MinSupport: minSup}, n)
			if float64(c)/float64(n) < minSup || float64(c-1)/float64(n) >= minSup {
				t.Fatalf("MinSupport %v over %d transactions resolved to %d", minSup, n, c)
			}
		}
	}
}

// TestMineConfidenceExactlyAtThreshold mines a rule whose confidence is
// exactly MinConfidence: 7 hits in 100 body matches at 0.07, where the
// product 0.07 × 100 exceeds 7.
func TestMineConfidenceExactlyAtThreshold(t *testing.T) {
	cat := model.NewCatalog()
	a := cat.AddItem("A", false)
	pa := cat.AddPromo(a, 1, 0.5, 1)
	b := cat.AddItem("B", false)
	pb := cat.AddPromo(b, 1, 0.5, 1)
	tt := cat.AddItem("T", true)
	low := cat.AddPromo(tt, 3.1, 3, 1) // profit 0.1
	high := cat.AddPromo(tt, 6, 3, 1)  // profit 3
	space := hierarchy.Flat(cat, hierarchy.Options{})
	txn := func(body model.PromoID, item model.ItemID, target model.PromoID) model.Transaction {
		return model.Transaction{
			NonTarget: []model.Sale{{Item: item, Promo: body, Qty: 1}},
			Target:    model.Sale{Item: tt, Promo: target, Qty: 1},
		}
	}
	// {A} → ⟨T,$6⟩: 7 hits in A's 100 transactions, Prof_re 0.21 against
	// the default rule's 0.105, so it is also its body's best rule.
	var txns []model.Transaction
	for i := 0; i < 100; i++ {
		target := low
		if i < 7 {
			target = high
		}
		txns = append(txns, txn(pa, a, target), txn(pb, b, low))
	}
	res, err := Mine(space, txns, Options{MinSupportCount: 1, MinConfidence: 0.07})
	if err != nil {
		t.Fatal(err)
	}
	r := findRule(t, res, space, []string{"A"}, "⟨T,$6⟩")
	if r == nil {
		t.Fatal("rule {A} → ⟨T,$6⟩ with confidence exactly 0.07 not mined")
	}
	if r.BodyCount != 100 || r.HitCount != 7 {
		t.Errorf("{A} → ⟨T,$6⟩ = N%d hits%d, want N100 hits7", r.BodyCount, r.HitCount)
	}
}
