package mining

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"profitmining/internal/hierarchy"
	"profitmining/internal/model"
	"profitmining/internal/rules"
)

// fixture: non-target items A (prices 1, 2), B (price 1), C (price 1) and
// target T (prices 5, 6; cost 3).
type fixture struct {
	cat        *model.Catalog
	a, b, c, t model.ItemID
	a1, a2     model.PromoID
	b1, c1     model.PromoID
	t5, t6     model.PromoID
	space      *hierarchy.Space
}

func newFixture(tb testing.TB, moa bool) *fixture {
	tb.Helper()
	f := &fixture{cat: model.NewCatalog()}
	f.a = f.cat.AddItem("A", false)
	f.a1 = f.cat.AddPromo(f.a, 1, 0.5, 1)
	f.a2 = f.cat.AddPromo(f.a, 2, 0.5, 1)
	f.b = f.cat.AddItem("B", false)
	f.b1 = f.cat.AddPromo(f.b, 1, 0.5, 1)
	f.c = f.cat.AddItem("C", false)
	f.c1 = f.cat.AddPromo(f.c, 1, 0.5, 1)
	f.t = f.cat.AddItem("T", true)
	f.t5 = f.cat.AddPromo(f.t, 5, 3, 1)
	f.t6 = f.cat.AddPromo(f.t, 6, 3, 1)
	f.space = hierarchy.Flat(f.cat, hierarchy.Options{MOA: moa})
	return f
}

func (f *fixture) txn(target model.PromoID, qty float64, nonTarget ...model.PromoID) model.Transaction {
	t := model.Transaction{Target: model.Sale{Item: f.t, Promo: target, Qty: qty}}
	for _, p := range nonTarget {
		t.NonTarget = append(t.NonTarget, model.Sale{Item: f.cat.Promo(p).Item, Promo: p, Qty: 1})
	}
	return t
}

func findRule(t *testing.T, res *Result, s *hierarchy.Space, bodyNames []string, headName string) *rules.Rule {
	t.Helper()
	for _, r := range res.Rules {
		if s.Name(r.Head) != headName || len(r.Body) != len(bodyNames) {
			continue
		}
		got := make([]string, len(r.Body))
		for i, g := range r.Body {
			got[i] = s.Name(g)
		}
		sort.Strings(got)
		want := append([]string(nil), bodyNames...)
		sort.Strings(want)
		same := true
		for i := range got {
			if got[i] != want[i] {
				same = false
			}
		}
		if same {
			return r
		}
	}
	return nil
}

func TestMineSimpleCounts(t *testing.T) {
	f := newFixture(t, true)
	// 4 transactions: {A@2} → T@6 twice, {A@1} → T@5 once, {B@1} → T@5 once.
	txns := []model.Transaction{
		f.txn(f.t6, 1, f.a2),
		f.txn(f.t6, 1, f.a2),
		f.txn(f.t5, 1, f.a1),
		f.txn(f.t5, 1, f.b1),
	}
	res, err := mineExhaustive(f.space, txns, Options{MinSupportCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := f.space

	// Rule {A} → ⟨T,$5⟩: body matches 3 txns (all with A); hits all 3
	// under MOA ($5 ⪯ both recorded prices); profit = 3 × (5−3) = 6.
	r := findRule(t, res, s, []string{"A"}, "⟨T,$5⟩")
	if r == nil {
		t.Fatal("rule {A} → ⟨T,$5⟩ not generated")
	}
	if r.BodyCount != 3 || r.HitCount != 3 || math.Abs(r.Profit-6) > 1e-9 {
		t.Errorf("{A}→⟨T,$5⟩ = N%d hits%d prof%g, want 3/3/6", r.BodyCount, r.HitCount, r.Profit)
	}
	if math.Abs(r.ProfRe()-2) > 1e-9 {
		t.Errorf("ProfRe = %g, want 2", r.ProfRe())
	}

	// Rule {A} → ⟨T,$6⟩: hits only the two recorded at $6; profit 2×3.
	r = findRule(t, res, s, []string{"A"}, "⟨T,$6⟩")
	if r == nil || r.BodyCount != 3 || r.HitCount != 2 || math.Abs(r.Profit-6) > 1e-9 {
		t.Fatalf("{A}→⟨T,$6⟩ = %+v, want N3 hits2 prof6", r)
	}

	// Rule {⟨A,$1⟩} → …: under MOA the $1 node matches all three A sales?
	// No: ⟨A,$1⟩ generalizes sales at $1 and $2 (more favorable), so body
	// count is 3.
	r = findRule(t, res, s, []string{"⟨A,$1⟩"}, "⟨T,$5⟩")
	if r == nil || r.BodyCount != 3 {
		t.Fatalf("{⟨A,$1⟩}→⟨T,$5⟩ = %+v, want N3", r)
	}
	// The exact-price node ⟨A,$2⟩ matches only the two $2 sales.
	r = findRule(t, res, s, []string{"⟨A,$2⟩"}, "⟨T,$6⟩")
	if r == nil || r.BodyCount != 2 || r.HitCount != 2 {
		t.Fatalf("{⟨A,$2⟩}→⟨T,$6⟩ = %+v, want N2 hits2", r)
	}
}

func TestMineDefaultRule(t *testing.T) {
	f := newFixture(t, true)
	txns := []model.Transaction{
		f.txn(f.t6, 1, f.a2),
		f.txn(f.t6, 1, f.b1),
		f.txn(f.t5, 1, f.c1),
	}
	res, err := Mine(f.space, txns, Options{MinSupportCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := res.Default
	if d == nil || !d.IsDefault() {
		t.Fatal("no default rule")
	}
	if d.BodyCount != 3 {
		t.Errorf("default BodyCount = %d, want 3", d.BodyCount)
	}
	// ⟨T,$5⟩ hits all 3 (profit 6); ⟨T,$6⟩ hits 2 (profit 6). Ties on
	// profit break by hits: $5 wins.
	if f.space.Name(d.Head) != "⟨T,$5⟩" {
		t.Errorf("default head = %s, want ⟨T,$5⟩", f.space.Name(d.Head))
	}
	if d.HitCount != 3 || math.Abs(d.Profit-6) > 1e-9 {
		t.Errorf("default = hits%d prof%g, want 3/6", d.HitCount, d.Profit)
	}
	// Default rule is ordered last.
	for _, r := range res.Rules {
		if r.Order >= d.Order {
			t.Errorf("rule order %d not before default order %d", r.Order, d.Order)
		}
	}
}

func TestMineNoMOAExactHits(t *testing.T) {
	f := newFixture(t, false)
	txns := []model.Transaction{
		f.txn(f.t6, 1, f.a2),
		f.txn(f.t6, 1, f.a2),
		f.txn(f.t5, 1, f.a1),
	}
	res, err := mineExhaustive(f.space, txns, Options{MinSupportCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Without MOA, ⟨T,$5⟩ hits only the $5 transaction.
	r := findRule(t, res, f.space, []string{"A"}, "⟨T,$5⟩")
	if r == nil || r.HitCount != 1 {
		t.Fatalf("{A}→⟨T,$5⟩ = %+v, want hits1 without MOA", r)
	}
	// And ⟨A,$1⟩ matches only the $1 sale.
	r2 := findRule(t, res, f.space, []string{"⟨A,$1⟩"}, "⟨T,$5⟩")
	if r2 == nil || r2.BodyCount != 1 {
		t.Fatalf("{⟨A,$1⟩} body count = %+v, want 1 without MOA", r2)
	}
}

func TestMineMinSupportPrunes(t *testing.T) {
	f := newFixture(t, true)
	var txns []model.Transaction
	for i := 0; i < 10; i++ {
		txns = append(txns, f.txn(f.t5, 1, f.a1))
	}
	txns = append(txns, f.txn(f.t5, 1, f.b1)) // B appears once in 11

	res, err := mineExhaustive(f.space, txns, Options{MinSupport: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	// ceil(0.15 × 11) = 2, so B-rules are pruned.
	if res.MinSupportCount != 2 {
		t.Errorf("MinSupportCount = %d, want 2", res.MinSupportCount)
	}
	if r := findRule(t, res, f.space, []string{"B"}, "⟨T,$5⟩"); r != nil {
		t.Error("infrequent rule {B}→⟨T,$5⟩ should be pruned")
	}
	if r := findRule(t, res, f.space, []string{"A"}, "⟨T,$5⟩"); r == nil {
		t.Error("frequent rule {A}→⟨T,$5⟩ missing")
	}
}

func TestMineBuyingMOAProfit(t *testing.T) {
	f := newFixture(t, true)
	// One transaction recorded at $6, qty 2. Recommending $5 under buying
	// MOA keeps spending 12 → qty 2.4 → profit 2.4 × 2 = 4.8.
	txns := []model.Transaction{f.txn(f.t6, 2, f.a1)}
	res, err := mineExhaustive(f.space, txns, Options{MinSupportCount: 1, Quantity: model.BuyingMOA{}})
	if err != nil {
		t.Fatal(err)
	}
	r := findRule(t, res, f.space, []string{"A"}, "⟨T,$5⟩")
	if r == nil || math.Abs(r.Profit-4.8) > 1e-9 {
		t.Fatalf("buying-MOA profit = %+v, want 4.8", r)
	}
	// Saving MOA keeps qty 2 → profit 4.
	res2, err := mineExhaustive(f.space, txns, Options{MinSupportCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2 := findRule(t, res2, f.space, []string{"A"}, "⟨T,$5⟩")
	if r2 == nil || math.Abs(r2.Profit-4) > 1e-9 {
		t.Fatalf("saving-MOA profit = %+v, want 4", r2)
	}
}

func TestMineBinaryProfit(t *testing.T) {
	f := newFixture(t, true)
	txns := []model.Transaction{
		f.txn(f.t6, 3, f.a1),
		f.txn(f.t5, 1, f.a1),
	}
	res, err := mineExhaustive(f.space, txns, Options{MinSupportCount: 1, BinaryProfit: true})
	if err != nil {
		t.Fatal(err)
	}
	r := findRule(t, res, f.space, []string{"A"}, "⟨T,$5⟩")
	if r == nil || math.Abs(r.Profit-2) > 1e-9 {
		t.Fatalf("binary profit = %+v, want 2 (one per hit)", r)
	}
	if math.Abs(r.ProfRe()-r.Conf()) > 1e-12 {
		t.Errorf("binary ProfRe %g must equal confidence %g", r.ProfRe(), r.Conf())
	}
}

func TestMineAntichainBodies(t *testing.T) {
	f := newFixture(t, true)
	var txns []model.Transaction
	for i := 0; i < 5; i++ {
		txns = append(txns, f.txn(f.t5, 1, f.a2, f.b1))
	}
	res, err := mineExhaustive(f.space, txns, Options{MinSupportCount: 1, MaxBodyLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rules {
		if !f.space.IsAntichain(r.Body) {
			t.Errorf("body %v is not an antichain", r.Body)
		}
		if !sort.SliceIsSorted(r.Body, func(i, j int) bool { return r.Body[i] < r.Body[j] }) {
			t.Errorf("body %v is not sorted", r.Body)
		}
	}
	// {A, ⟨A,$2⟩} must never appear (comparable pair), but {A, B} must.
	if findRule(t, res, f.space, []string{"A", "⟨A,$2⟩"}, "⟨T,$5⟩") != nil {
		t.Error("comparable body generated")
	}
	if findRule(t, res, f.space, []string{"A", "B"}, "⟨T,$5⟩") == nil {
		t.Error("antichain pair {A,B} missing")
	}
}

func TestMineMaxBodyLen(t *testing.T) {
	f := newFixture(t, true)
	var txns []model.Transaction
	for i := 0; i < 5; i++ {
		txns = append(txns, f.txn(f.t5, 1, f.a1, f.b1, f.c1))
	}
	for _, maxLen := range []int{1, 2, 3} {
		res, err := mineExhaustive(f.space, txns, Options{MinSupportCount: 1, MaxBodyLen: maxLen})
		if err != nil {
			t.Fatal(err)
		}
		longest := 0
		for _, r := range res.Rules {
			if len(r.Body) > longest {
				longest = len(r.Body)
			}
		}
		if longest > maxLen {
			t.Errorf("MaxBodyLen=%d produced a body of %d", maxLen, longest)
		}
		if longest < maxLen && maxLen <= 3 {
			t.Errorf("MaxBodyLen=%d produced no body of that length", maxLen)
		}
	}
}

func TestMineUniqueOrders(t *testing.T) {
	f := newFixture(t, true)
	var txns []model.Transaction
	for i := 0; i < 5; i++ {
		txns = append(txns, f.txn(f.t5, 1, f.a1, f.b1))
		txns = append(txns, f.txn(f.t6, 1, f.a2, f.c1))
	}
	res, err := Mine(f.space, txns, Options{MinSupportCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, r := range res.AllRules() {
		if seen[r.Order] {
			t.Fatalf("duplicate rule order %d", r.Order)
		}
		seen[r.Order] = true
	}
}

func TestMineErrors(t *testing.T) {
	f := newFixture(t, true)
	txns := []model.Transaction{f.txn(f.t5, 1, f.a1)}
	cases := []struct {
		name string
		txns []model.Transaction
		opts Options
	}{
		{"no transactions", nil, Options{MinSupportCount: 1}},
		{"no threshold", txns, Options{}},
		{"negative support count", txns, Options{MinSupportCount: -1}},
		{"support out of range", txns, Options{MinSupport: 1.5}},
		{"bad body length", txns, Options{MinSupportCount: 1, MaxBodyLen: -2}},
	}
	for _, tc := range cases {
		if _, err := Mine(f.space, tc.txns, tc.opts); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestMineProfitOnlyPruning(t *testing.T) {
	f := newFixture(t, true)
	txns := []model.Transaction{
		f.txn(f.t6, 1, f.a2),
		f.txn(f.t6, 1, f.a2),
		f.txn(f.t5, 1, f.b1),
	}
	// Profit threshold 5: {A}→⟨T,$6⟩ has profit 6 and survives;
	// {B}→⟨T,$5⟩ has profit 2 and is pruned.
	res, err := Mine(f.space, txns, Options{MinRuleProfit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if findRule(t, res, f.space, []string{"A"}, "⟨T,$6⟩") == nil {
		t.Error("high-profit rule missing under profit-only mining")
	}
	if findRule(t, res, f.space, []string{"B"}, "⟨T,$5⟩") != nil {
		t.Error("low-profit rule not pruned")
	}
	for _, r := range res.Rules {
		if r.Profit < 5 {
			t.Errorf("rule with profit %g below threshold emitted", r.Profit)
		}
	}
}

func TestMineProfitOnlyRejectsNegativeProfits(t *testing.T) {
	cat := model.NewCatalog()
	a := cat.AddItem("A", false)
	pa := cat.AddPromo(a, 1, 0.5, 1)
	tt := cat.AddItem("T", true)
	pt := cat.AddPromo(tt, 1, 2, 1) // negative profit
	space := hierarchy.Flat(cat, hierarchy.Options{MOA: true})
	txns := []model.Transaction{{
		NonTarget: []model.Sale{{Item: a, Promo: pa, Qty: 1}},
		Target:    model.Sale{Item: tt, Promo: pt, Qty: 1},
	}}
	if _, err := Mine(space, txns, Options{MinRuleProfit: 1}); err == nil {
		t.Error("profit-only pruning with negative target profit must fail")
	}
	// With a support threshold it is fine.
	if _, err := Mine(space, txns, Options{MinSupportCount: 1}); err != nil {
		t.Errorf("support mining with negative profits: %v", err)
	}
}

// naiveMine enumerates every antichain body over the body candidates
// appearing in the data and counts by brute force — the reference
// implementation for equivalence testing.
func naiveMine(space *hierarchy.Space, txns []model.Transaction, minCount, maxLen int, qm model.QuantityModel) map[string]*rules.Rule {
	if qm == nil {
		qm = model.SavingMOA{}
	}
	cat := space.Catalog()
	type key struct {
		body string
		head hierarchy.GenID
	}

	// All candidate bodies: subsets (≤ maxLen) of body candidates.
	cands := space.BodyCandidates()
	var bodies [][]hierarchy.GenID
	var rec func(start int, cur []hierarchy.GenID)
	rec = func(start int, cur []hierarchy.GenID) {
		if len(cur) > 0 {
			bodies = append(bodies, append([]hierarchy.GenID(nil), cur...))
		}
		if len(cur) == maxLen {
			return
		}
		for i := start; i < len(cands); i++ {
			ok := true
			for _, g := range cur {
				if space.Comparable(g, cands[i]) {
					ok = false
					break
				}
			}
			if ok {
				rec(i+1, append(cur, cands[i]))
			}
		}
	}
	rec(0, nil)

	out := map[string]*rules.Rule{}
	for _, body := range bodies {
		bodyCount := 0
		headStats := map[hierarchy.GenID]*rules.Rule{}
		for i := range txns {
			exp := space.ExpandBasket(txns[i].NonTarget)
			if !space.BodyMatches(body, exp) {
				continue
			}
			bodyCount++
			recorded := cat.Promo(txns[i].Target.Promo)
			for _, h := range space.HeadsOf(txns[i].Target) {
				r := headStats[h]
				if r == nil {
					r = &rules.Rule{Body: body, Head: h}
					headStats[h] = r
				}
				r.HitCount++
				rec := cat.Promo(space.PromoOf(h))
				r.Profit += rec.Profit() * qm.Quantity(rec, recorded, txns[i].Target.Qty)
			}
		}
		for h, r := range headStats {
			if bodyCount < minCount || r.HitCount < minCount {
				continue
			}
			r.BodyCount = bodyCount
			out[rules.BodyKey(body)+"|"+rules.BodyKey([]hierarchy.GenID{h})] = r
		}
	}
	return out
}

// trial is one randomized input of the reference tests: a space, its
// transactions and an absolute support threshold.
type trial struct {
	index    int
	moa      bool
	space    *hierarchy.Space
	txns     []model.Transaction
	minCount int
}

// flatTrials returns the inputs of TestMineAgainstNaiveReference over the
// flat fixture. The first 20 trials are a few transactions each; the
// last 4 hold 2,100–3,100, so they span three or four counting shards and
// end on a partial bitset word.
func flatTrials(tb testing.TB) []trial {
	rng := rand.New(rand.NewSource(99))
	var out []trial
	for i := 0; i < 24; i++ {
		moa := i%2 == 0
		f := newFixture(tb, moa)
		promos := []model.PromoID{f.a1, f.a2, f.b1, f.c1}
		targets := []model.PromoID{f.t5, f.t6}

		var txns []model.Transaction
		n := 5 + rng.Intn(20)
		if i >= 20 {
			n = 2100 + rng.Intn(1001)
		}
		for j := 0; j < n; j++ {
			var nt []model.PromoID
			for _, p := range promos {
				if rng.Float64() < 0.4 {
					nt = append(nt, p)
				}
			}
			if len(nt) == 0 {
				nt = append(nt, promos[rng.Intn(len(promos))])
			}
			txns = append(txns, f.txn(targets[rng.Intn(2)], float64(1+rng.Intn(3)), nt...))
		}
		minCount := 1 + rng.Intn(3)
		if i >= 20 {
			minCount = 1 + rng.Intn(n/4) // prunes some bodies and heads
		}
		out = append(out, trial{index: i, moa: moa, space: f.space, txns: txns, minCount: minCount})
	}
	return out
}

// checkAgainstNaive checks a trial's exhaustive mine against brute force.
func checkAgainstNaive(t *testing.T, tr trial) {
	t.Helper()
	trial, moa, txns, minCount := tr.index, tr.moa, tr.txns, tr.minCount
	res, err := mineExhaustive(tr.space, txns, Options{MinSupportCount: minCount, MaxBodyLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := naiveMine(tr.space, txns, minCount, 3, nil)

	got := map[string]*rules.Rule{}
	for _, r := range res.Rules {
		got[rules.BodyKey(r.Body)+"|"+rules.BodyKey([]hierarchy.GenID{r.Head})] = r
	}
	if len(got) != len(want) {
		t.Fatalf("trial %d (moa=%v): %d rules, reference has %d", trial, moa, len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("trial %d: missing rule %s", trial, w.String(tr.space))
		}
		if g.BodyCount != w.BodyCount || g.HitCount != w.HitCount || math.Abs(g.Profit-w.Profit) > 1e-9 {
			t.Fatalf("trial %d: rule %s: got N%d/h%d/p%g, want N%d/h%d/p%g",
				trial, w.String(tr.space), g.BodyCount, g.HitCount, g.Profit, w.BodyCount, w.HitCount, w.Profit)
		}
	}
}

// TestMineAgainstNaiveReference checks the exhaustive miner against brute
// force over the flat fixture's trials.
func TestMineAgainstNaiveReference(t *testing.T) {
	for _, tr := range flatTrials(t) {
		checkAgainstNaive(t, tr)
	}
}

func TestSortedByRank(t *testing.T) {
	f := newFixture(t, true)
	var txns []model.Transaction
	for i := 0; i < 6; i++ {
		txns = append(txns, f.txn(f.t6, 1, f.a2))
		txns = append(txns, f.txn(f.t5, 1, f.b1))
	}
	res, err := Mine(f.space, txns, Options{MinSupportCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	ranked := res.SortedByRank()
	if len(ranked) != len(res.Rules)+1 {
		t.Fatalf("SortedByRank lost rules")
	}
	for i := 1; i < len(ranked); i++ {
		if rules.Outranks(ranked[i], ranked[i-1]) {
			t.Fatal("SortedByRank not in rank order")
		}
	}
}
