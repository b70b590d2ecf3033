package core

import (
	"math"
	"strings"
	"testing"

	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
	"profitmining/internal/model"
	"profitmining/internal/rules"
	"profitmining/internal/stats"
)

// shop is a small integration fixture: non-target items Perfume, Bread,
// Beer; target items Lipstick ($10, cost $6), Diamond ($1000, cost $700)
// and Egg (pack $1/cost .5; 4-pack $3.2/cost $2).
type shop struct {
	cat  *model.Catalog
	item map[string]model.ItemID
	pr   map[string]model.PromoID
}

func newShop(tb testing.TB) *shop {
	tb.Helper()
	s := &shop{cat: model.NewCatalog(), item: map[string]model.ItemID{}, pr: map[string]model.PromoID{}}
	add := func(name string, target bool, promos map[string][3]float64) {
		id := s.cat.AddItem(name, target)
		s.item[name] = id
		for key, pcp := range promos {
			s.pr[key] = s.cat.AddPromo(id, pcp[0], pcp[1], pcp[2])
		}
	}
	add("Perfume", false, map[string][3]float64{"Perfume": {30, 10, 1}})
	add("Bread", false, map[string][3]float64{"Bread": {2, 1, 1}})
	add("Beer", false, map[string][3]float64{"Beer": {9, 5, 6}})
	add("Lipstick", true, map[string][3]float64{"Lipstick": {10, 6, 1}})
	add("Diamond", true, map[string][3]float64{"Diamond": {1000, 700, 1}})
	add("Egg", true, map[string][3]float64{
		"Egg@1":   {1, 0.5, 1},
		"Egg@3.2": {3.2, 2, 4},
	})
	return s
}

func (s *shop) space(moa bool) *hierarchy.Space {
	return hierarchy.Flat(s.cat, hierarchy.Options{MOA: moa})
}

func (s *shop) txn(targetPromo string, nonTarget ...string) model.Transaction {
	t := model.Transaction{Target: model.Sale{
		Item:  s.cat.Promo(s.pr[targetPromo]).Item,
		Promo: s.pr[targetPromo],
		Qty:   1,
	}}
	for _, nt := range nonTarget {
		t.NonTarget = append(t.NonTarget, model.Sale{Item: s.item[nt], Promo: s.pr[nt], Qty: 1})
	}
	return t
}

func buildShop(tb testing.TB, s *shop, txns []model.Transaction, cfg Config, mopts mining.Options) *Recommender {
	tb.Helper()
	space := s.space(true)
	mined, err := mining.Mine(space, txns, mopts)
	if err != nil {
		tb.Fatal(err)
	}
	rec, err := Build(space, txns, mined, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return rec
}

// TestIntroEggScenario reproduces the Introduction: 100 customers at
// $1/pack (profit .5) and 100 at $3.2/4-pack (profit 1.2). A profit
// recommender must recommend the package price, not split 50/50.
func TestIntroEggScenario(t *testing.T) {
	s := newShop(t)
	var txns []model.Transaction
	for i := 0; i < 100; i++ {
		txns = append(txns, s.txn("Egg@1", "Bread"))
		txns = append(txns, s.txn("Egg@3.2", "Bread"))
	}
	rec := buildShop(t, s, txns, Config{}, mining.Options{MinSupportCount: 5})

	got := rec.Recommend(model.Basket{{Item: s.item["Bread"], Promo: s.pr["Bread"], Qty: 1}})
	if got.Item != s.item["Egg"] || got.Promo != s.pr["Egg@3.2"] {
		t.Errorf("recommended %v, want the 4-pack egg promo (the profitable price)", got)
	}
}

// TestProfitVsConfidence: perfume buyers mostly buy lipstick (profit 4)
// but occasionally a diamond (profit 300). ProfRe decides: with 3 diamonds
// per 50 lipsticks, diamond's expected profit per recommendation wins.
func TestProfitVsConfidence(t *testing.T) {
	s := newShop(t)
	var txns []model.Transaction
	for i := 0; i < 50; i++ {
		txns = append(txns, s.txn("Lipstick", "Perfume"))
	}
	for i := 0; i < 3; i++ {
		txns = append(txns, s.txn("Diamond", "Perfume"))
	}
	basket := model.Basket{{Item: s.item["Perfume"], Promo: s.pr["Perfume"], Qty: 1}}

	// Profit-driven: ProfRe(diamond) = 900/53 ≈ 17 > ProfRe(lipstick) =
	// 200/53 ≈ 3.8. (No pruning so the comparison is purely MPF.)
	prof := buildShop(t, s, txns, Config{Prune: PruneOff}, mining.Options{MinSupportCount: 2})
	if got := prof.Recommend(basket); got.Item != s.item["Diamond"] {
		t.Errorf("profit recommender chose %v, want Diamond", s.cat.Item(got.Item).Name)
	}

	// Confidence-driven (binary profit): lipstick wins on hit rate.
	conf := buildShop(t, s, txns, Config{Prune: PruneOff, BinaryProfit: true},
		mining.Options{MinSupportCount: 2, BinaryProfit: true})
	if got := conf.Recommend(basket); got.Item != s.item["Lipstick"] {
		t.Errorf("confidence recommender chose %v, want Lipstick", s.cat.Item(got.Item).Name)
	}
}

// TestPruningRemovesOverfitRules: a rule supported by a single lucky
// transaction should be pruned away by the pessimistic estimate while a
// well-supported rule survives.
func TestPruningRemovesOverfitRules(t *testing.T) {
	s := newShop(t)
	var txns []model.Transaction
	for i := 0; i < 60; i++ {
		txns = append(txns, s.txn("Lipstick", "Perfume"))
	}
	// One lucky diamond sale on a {Perfume, Beer} basket.
	txns = append(txns, s.txn("Diamond", "Perfume", "Beer"))
	// Beer otherwise predicts nothing valuable.
	for i := 0; i < 20; i++ {
		txns = append(txns, s.txn("Lipstick", "Beer"))
	}

	pruned := buildShop(t, s, txns, Config{}, mining.Options{MinSupportCount: 1})
	unpruned := buildShop(t, s, txns, Config{Prune: PruneOff}, mining.Options{MinSupportCount: 1})

	if got, was := pruned.Stats().RulesFinal, unpruned.Stats().RulesFinal; got >= was {
		t.Errorf("pruning kept %d of %d rules — nothing pruned", got, was)
	}
	// The pruned model must not recommend Diamond off the lucky basket.
	basket := model.Basket{
		{Item: s.item["Perfume"], Promo: s.pr["Perfume"], Qty: 1},
		{Item: s.item["Beer"], Promo: s.pr["Beer"], Qty: 1},
	}
	if got := pruned.Recommend(basket); got.Item == s.item["Diamond"] {
		t.Error("pruned recommender still recommends the overfit Diamond rule")
	}
}

func TestCoveringTreeInvariants(t *testing.T) {
	s := newShop(t)
	var txns []model.Transaction
	for i := 0; i < 30; i++ {
		txns = append(txns, s.txn("Lipstick", "Perfume"))
		txns = append(txns, s.txn("Egg@1", "Bread"))
		txns = append(txns, s.txn("Egg@3.2", "Bread", "Beer"))
	}
	rec := buildShop(t, s, txns, Config{Prune: PruneOff}, mining.Options{MinSupportCount: 1})
	root := rec.Tree()

	if !root.Rule.IsDefault() {
		t.Fatal("covering tree root is not the default rule")
	}
	space := rec.Space()
	covered := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		covered += len(n.Cover)
		for _, c := range n.Children {
			// Parent body generalizes child body, and parent ranks lower.
			if !space.SetGeneralizes(n.Rule.Body, c.Rule.Body) {
				t.Errorf("parent %s does not generalize child %s",
					n.Rule.String(space), c.Rule.String(space))
			}
			if !rules.Outranks(c.Rule, n.Rule) {
				t.Errorf("child %s does not outrank parent %s",
					c.Rule.String(space), n.Rule.String(space))
			}
			if c.Parent != n {
				t.Error("broken parent pointer")
			}
			walk(c)
		}
	}
	walk(root)
	if covered != len(txns) {
		t.Errorf("covers hold %d transactions, want %d (exactly one rule per transaction)", covered, len(txns))
	}
}

func TestRecommendTopK(t *testing.T) {
	s := newShop(t)
	var txns []model.Transaction
	for i := 0; i < 40; i++ {
		txns = append(txns, s.txn("Lipstick", "Perfume"))
	}
	for i := 0; i < 5; i++ {
		txns = append(txns, s.txn("Diamond", "Perfume"))
	}
	for i := 0; i < 40; i++ {
		txns = append(txns, s.txn("Egg@3.2", "Bread"))
	}
	rec := buildShop(t, s, txns, Config{Prune: PruneOff}, mining.Options{MinSupportCount: 2})

	basket := model.Basket{{Item: s.item["Perfume"], Promo: s.pr["Perfume"], Qty: 1}}
	top := rec.RecommendTopK(basket, 3)
	if len(top) < 2 {
		t.Fatalf("TopK returned %d recommendations, want ≥2", len(top))
	}
	seen := map[model.ItemID]bool{}
	for _, r := range top {
		if seen[r.Item] {
			t.Error("TopK repeated a target item")
		}
		seen[r.Item] = true
	}
	// Ordered by rank: first is the overall Recommend answer.
	if top[0] != rec.Recommend(basket) {
		t.Error("TopK[0] differs from Recommend")
	}
	if rec.RecommendTopK(basket, 0) != nil {
		t.Error("TopK(0) should be nil")
	}
	if got := rec.RecommendTopK(basket, 1); len(got) != 1 {
		t.Errorf("TopK(1) returned %d", len(got))
	}
}

func TestDefaultRuleAlwaysRecommends(t *testing.T) {
	s := newShop(t)
	txns := []model.Transaction{s.txn("Lipstick", "Perfume")}
	rec := buildShop(t, s, txns, Config{}, mining.Options{MinSupportCount: 1})

	// A basket of items never seen in training still gets the default
	// recommendation.
	got := rec.Recommend(model.Basket{{Item: s.item["Beer"], Promo: s.pr["Beer"], Qty: 1}})
	if got.Idx < 0 {
		t.Fatal("no recommendation for unseen basket")
	}
	if got.Item != s.item["Lipstick"] {
		t.Errorf("default recommendation = %v, want the only observed target", s.cat.Item(got.Item).Name)
	}
	// Empty basket too.
	if got := rec.Recommend(nil); got.Idx < 0 || rec.Sealed().Rules().BodyLen(got.Idx) != 0 {
		t.Error("empty basket must fall back to the default rule")
	}
}

func TestPessimisticEvaluator(t *testing.T) {
	s := newShop(t)
	var txns []model.Transaction
	// 10 covered transactions: 8 lipstick (hits), 2 diamond (misses for a
	// lipstick-headed rule).
	for i := 0; i < 8; i++ {
		txns = append(txns, s.txn("Lipstick", "Perfume"))
	}
	for i := 0; i < 2; i++ {
		txns = append(txns, s.txn("Diamond", "Perfume"))
	}
	space := s.space(true)
	eval := &pessimisticEvaluator{
		space: space, txns: txns, cf: 0.25, quantity: model.SavingMOA{},
	}

	head := space.PromoNode(s.pr["Lipstick"])
	cover := make([]int32, 10)
	for i := range cover {
		cover[i] = int32(i)
	}
	r := ruleWithHead(head)
	got := eval.Projected(r, cover)
	// X = 10·(1 − U_.25(10,2)); Y = (8·4)/8 = 4.
	want := 10 * (1 - stats.PessimisticUpper(10, 2, 0.25)) * 4
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Projected = %g, want %g", got, want)
	}

	// Empty cover and all-miss covers yield 0.
	if eval.Projected(r, nil) != 0 {
		t.Error("empty cover must project 0")
	}
	missHead := space.PromoNode(s.pr["Egg@1"])
	if eval.Projected(ruleWithHead(missHead), cover) != 0 {
		t.Error("cover with no hits must project 0")
	}

	// Binary profit: Y = 1, so projection is the projected hit count.
	evalBin := &pessimisticEvaluator{space: space, txns: txns, cf: 0.25, binary: true, quantity: model.SavingMOA{}}
	wantBin := 10 * (1 - stats.PessimisticUpper(10, 2, 0.25))
	if got := evalBin.Projected(r, cover); math.Abs(got-wantBin) > 1e-9 {
		t.Errorf("binary Projected = %g, want %g", got, wantBin)
	}
}

func ruleWithHead(h hierarchy.GenID) *rules.Rule { return &rules.Rule{Head: h} }

func TestBuildErrors(t *testing.T) {
	s := newShop(t)
	txns := []model.Transaction{s.txn("Lipstick", "Perfume")}
	space := s.space(true)
	mined, err := mining.Mine(space, txns, mining.Options{MinSupportCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(nil, txns, mined, Config{}); err == nil {
		t.Error("nil space must fail")
	}
	if _, err := Build(space, txns, nil, Config{}); err == nil {
		t.Error("nil mining result must fail")
	}
	if _, err := Build(space, txns, mined, Config{CF: 2}); err == nil {
		t.Error("CF out of range must fail")
	}
	if _, err := Build(space, txns, mined, Config{CF: -0.5}); err == nil {
		t.Error("negative CF must fail")
	}
}

func TestExplain(t *testing.T) {
	s := newShop(t)
	var txns []model.Transaction
	for i := 0; i < 20; i++ {
		txns = append(txns, s.txn("Lipstick", "Perfume"))
	}
	rec := buildShop(t, s, txns, Config{Prune: PruneOff}, mining.Options{MinSupportCount: 1})
	basket := model.Basket{{Item: s.item["Perfume"], Promo: s.pr["Perfume"], Qty: 1}}
	r := rec.Recommend(basket)
	lines := rec.Explain(r)
	if len(lines) == 0 {
		t.Fatal("Explain returned nothing")
	}
	if !strings.Contains(lines[0], "Lipstick") {
		t.Errorf("Explain[0] = %q, want the recommended promo", lines[0])
	}
	// Non-default recommendations have at least one fallback line ending
	// at the default rule.
	if rec.Sealed().Rules().BodyLen(r.Idx) != 0 && len(lines) < 2 {
		t.Error("Explain missing lineage")
	}
}

func TestBuildStats(t *testing.T) {
	s := newShop(t)
	var txns []model.Transaction
	for i := 0; i < 30; i++ {
		txns = append(txns, s.txn("Lipstick", "Perfume"))
		txns = append(txns, s.txn("Egg@3.2", "Bread"))
	}
	rec := buildShop(t, s, txns, Config{}, mining.Options{MinSupportCount: 1})
	st := rec.Stats()
	if st.RulesGenerated < st.RulesNonDominated || st.RulesNonDominated < st.RulesFinal {
		t.Errorf("stats not monotone: %+v", st)
	}
	if st.RulesFinal != len(rec.Rules()) {
		t.Errorf("RulesFinal %d != len(Rules()) %d", st.RulesFinal, len(rec.Rules()))
	}
	if st.ProjectedProfit < 0 {
		t.Errorf("negative projected profit %g", st.ProjectedProfit)
	}
	if st.TreeDepth < 1 {
		t.Errorf("tree depth %d", st.TreeDepth)
	}
}

// TestPruneNeverDecreasesProjectedProfit compares the projected profit of
// the pruned tree against the unpruned tree on the same data.
func TestPruneNeverDecreasesProjectedProfit(t *testing.T) {
	s := newShop(t)
	var txns []model.Transaction
	for i := 0; i < 25; i++ {
		txns = append(txns, s.txn("Lipstick", "Perfume"))
		txns = append(txns, s.txn("Egg@1", "Bread", "Beer"))
		txns = append(txns, s.txn("Egg@3.2", "Bread"))
	}
	txns = append(txns, s.txn("Diamond", "Perfume", "Beer"))

	pruned := buildShop(t, s, txns, Config{}, mining.Options{MinSupportCount: 1})
	unpruned := buildShop(t, s, txns, Config{Prune: PruneOff}, mining.Options{MinSupportCount: 1})
	if pruned.Stats().ProjectedProfit+1e-9 < unpruned.Stats().ProjectedProfit {
		t.Errorf("pruning decreased projected profit: %g < %g",
			pruned.Stats().ProjectedProfit, unpruned.Stats().ProjectedProfit)
	}
}
