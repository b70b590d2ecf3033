package core

// Hot-path coverage: zero-allocation guards for the steady-state
// recommend path, benchmarks tracking its latency, and white-box
// equivalence tests pinning the pooled walk over the sealed image to a
// straightforward reference implementation the test builds itself from
// the build output (pointer matchers over Rules and Alternates,
// ExpandBasket, map-collected per-item winners).

import (
	"fmt"
	"math/rand"
	"testing"

	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
	"profitmining/internal/model"
	"profitmining/internal/rules"
)

// benchWorld is a mid-sized random retail world: enough items, promos
// and transactions that the matcher trie has real depth and baskets
// expand to dozens of generalized sales.
type benchWorld struct {
	cat     *model.Catalog
	space   *hierarchy.Space
	txns    []model.Transaction
	rec     *Recommender
	baskets []model.Basket
}

// newBenchWorld builds a deterministic random model: nonTargets
// non-target items (2 promos each) under a two-level concept hierarchy,
// targets target items (2 promos each), n transactions, and 256 probe
// baskets drawn from the same distribution.
func newBenchWorld(tb testing.TB, n, nonTargets, targets int, seed int64) *benchWorld {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := &benchWorld{cat: model.NewCatalog()}

	b := hierarchy.NewBuilder(w.cat)
	numConcepts := nonTargets/8 + 1
	for c := 0; c < numConcepts; c++ {
		b.AddConcept(fmt.Sprintf("C%d", c))
	}
	type ntItem struct {
		id     model.ItemID
		promos []model.PromoID
	}
	nts := make([]ntItem, nonTargets)
	for i := range nts {
		id := w.cat.AddItem(fmt.Sprintf("nt%d", i), false)
		price := 2 + rng.Float64()*20
		p1 := w.cat.AddPromo(id, price, price/2, 1)
		p2 := w.cat.AddPromo(id, price*0.9, price/2, 1)
		nts[i] = ntItem{id: id, promos: []model.PromoID{p1, p2}}
		b.PlaceItem(id, fmt.Sprintf("C%d", i%numConcepts))
	}
	type tItem struct {
		id     model.ItemID
		promos []model.PromoID
	}
	ts := make([]tItem, targets)
	for i := range ts {
		id := w.cat.AddItem(fmt.Sprintf("t%d", i), true)
		price := 4 + rng.Float64()*40
		p1 := w.cat.AddPromo(id, price, price/2, 1)
		p2 := w.cat.AddPromo(id, price*1.2, price/2, 2)
		ts[i] = tItem{id: id, promos: []model.PromoID{p1, p2}}
	}

	space, err := b.Compile(hierarchy.Options{MOA: true})
	if err != nil {
		tb.Fatal(err)
	}
	w.space = space

	drawBasket := func() []model.Sale {
		sz := 1 + rng.Intn(6)
		seen := map[model.ItemID]bool{}
		var sales []model.Sale
		for len(sales) < sz {
			it := nts[rng.Intn(len(nts))]
			if seen[it.id] {
				continue
			}
			seen[it.id] = true
			sales = append(sales, model.Sale{
				Item:  it.id,
				Promo: it.promos[rng.Intn(len(it.promos))],
				Qty:   float64(1 + rng.Intn(3)),
			})
		}
		return sales
	}
	w.txns = make([]model.Transaction, n)
	for i := range w.txns {
		// Correlate the target with the first basket item so mining finds
		// real conditional structure, not just the default rule.
		sales := drawBasket()
		ti := ts[int(sales[0].Item)%len(ts)]
		w.txns[i] = model.Transaction{
			NonTarget: sales,
			Target: model.Sale{
				Item:  ti.id,
				Promo: ti.promos[rng.Intn(len(ti.promos))],
				Qty:   1,
			},
		}
	}

	mined, err := mining.Mine(space, w.txns, mining.Options{MinSupport: 0.005})
	if err != nil {
		tb.Fatal(err)
	}
	rec, err := Build(space, w.txns, mined, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	w.rec = rec

	w.baskets = make([]model.Basket, 256)
	for i := range w.baskets {
		w.baskets[i] = drawBasket()
	}
	return w
}

// reference is the behavioral golden the sealed fast path must match:
// pointer matchers built from the recommender's build output, never
// from its image.
type reference struct {
	space      *hierarchy.Space
	matcher    *rules.Matcher
	alternates *rules.Matcher
}

func newReference(r *Recommender) *reference {
	return &reference{
		space:      r.Space(),
		matcher:    rules.NewMatcher(r.Rules()),
		alternates: rules.NewMatcher(r.Alternates()),
	}
}

// topK re-implements the pre-optimization RecommendTopK verbatim:
// allocate-sort-dedup basket expansion, callback matching into a map
// keyed by item, delete-after-scan of the MPF winner, SortByRank.
func (ref *reference) topK(basket model.Basket, k int) []*rules.Rule {
	if k <= 0 {
		return nil
	}
	expanded := ref.space.ExpandBasket(basket)
	first := ref.matcher.Best(expanded)
	out := []*rules.Rule{first}
	if k == 1 {
		return out
	}
	bestPerItem := map[model.ItemID]*rules.Rule{}
	ref.alternates.MatchAll(expanded, func(rule *rules.Rule) {
		item := ref.space.ItemOf(rule.Head)
		if cur, ok := bestPerItem[item]; !ok || rules.Outranks(rule, cur) {
			bestPerItem[item] = rule
		}
	})
	delete(bestPerItem, ref.space.ItemOf(first.Head))
	rest := make([]*rules.Rule, 0, len(bestPerItem))
	for _, rule := range bestPerItem {
		rest = append(rest, rule)
	}
	rules.SortByRank(rest)
	for _, rule := range rest {
		out = append(out, rule)
		if len(out) == k {
			break
		}
	}
	return out
}

// checkRecs requires got to be exactly the recommendations of want's
// rules: same rule, item, promo and stable ID per slot.
func (ref *reference) checkRecs(t *testing.T, what string, got []Recommendation, want []*rules.Rule) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d recs, want %d", what, len(got), len(want))
	}
	for j, rule := range want {
		g := got[j]
		if g.Rule != rule || g.Item != ref.space.ItemOf(rule.Head) || g.Promo != ref.space.PromoOf(rule.Head) ||
			g.ID != rules.StableID(ref.space, rule) || g.Idx < 0 {
			t.Fatalf("%s slot %d: got %+v, want rule %s", what, j, g, rule.String(ref.space))
		}
	}
}

// TestRecommendMatchesReference pins Recommend and RecommendTopK to the
// reference implementation over a few thousand random baskets.
func TestRecommendMatchesReference(t *testing.T) {
	w := newBenchWorld(t, 2000, 40, 8, 11)
	ref := newReference(w.rec)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		basket := w.baskets[rng.Intn(len(w.baskets))]
		got := w.rec.RecommendTopK(basket, 5)
		ref.checkRecs(t, fmt.Sprintf("basket %d", i), got, ref.topK(basket, 5))
		if got[0] != w.rec.Recommend(basket) {
			t.Fatalf("basket %d: Recommend disagrees with RecommendTopK[0]", i)
		}
	}
}

// TestRecommendTopKSkipsFirstItemAlternates pins the restructured scan:
// when the MPF winner's item also has alternate rules matching the
// basket, none of them may occupy a top-K slot (the item is already
// recommended), and the remaining slots hold the other items' winners.
func TestRecommendTopKSkipsFirstItemAlternates(t *testing.T) {
	s := newShop(t)
	txns := []model.Transaction{}
	// Egg has two promo codes, so the per-item alternates for Egg hold
	// rules for both heads; Perfume→Lipstick gives a second target item.
	for i := 0; i < 30; i++ {
		txns = append(txns, s.txn("Egg@3.2", "Bread"))
		txns = append(txns, s.txn("Egg@1", "Bread"))
		txns = append(txns, s.txn("Lipstick", "Bread", "Perfume"))
	}
	rec := buildShop(t, s, txns, Config{}, mining.Options{MinSupportCount: 2})

	basket := model.Basket{{Item: s.item["Bread"], Promo: s.pr["Bread"], Qty: 1}}
	recs := rec.RecommendTopK(basket, 4)
	if len(recs) < 2 {
		t.Fatalf("want ≥ 2 recommendations, got %d: %+v", len(recs), recs)
	}
	firstItem := recs[0].Item
	seen := map[model.ItemID]bool{firstItem: true}
	for _, r := range recs[1:] {
		if r.Item == firstItem {
			t.Fatalf("top-K repeated the MPF winner's item %d: %+v", firstItem, recs)
		}
		if seen[r.Item] {
			t.Fatalf("top-K repeated item %d: %+v", r.Item, recs)
		}
		seen[r.Item] = true
	}
	// The reference path must agree exactly.
	ref := newReference(rec)
	ref.checkRecs(t, "Bread basket", recs, ref.topK(basket, 4))
}

// TestExplainUsesIndex pins Explain's output — the lineage rendered into
// the image at seal time — to a recursive reference search of the
// covering tree, for every rule in the tree and for an alternate rule
// outside it.
func TestExplainUsesIndex(t *testing.T) {
	w := newBenchWorld(t, 2000, 40, 8, 7)
	refFind := func(root *Node, rule *rules.Rule) *Node {
		var find func(*Node) *Node
		find = func(n *Node) *Node {
			if n.Rule == rule {
				return n
			}
			for _, c := range n.Children {
				if f := find(c); f != nil {
					return f
				}
			}
			return nil
		}
		return find(root)
	}
	refExplain := func(rec Recommendation) []string {
		node := refFind(w.rec.tree, rec.Rule)
		var out []string
		out = append(out, fmt.Sprintf("recommend %s [rule %s]: fired %s",
			w.rec.space.Name(w.rec.space.PromoNode(rec.Promo)), rules.StableID(w.rec.space, rec.Rule), rec.Rule.String(w.rec.space)))
		for n := node; n != nil && n.Parent != nil; n = n.Parent {
			out = append(out, fmt.Sprintf("  fallback: %s", n.Parent.Rule.String(w.rec.space)))
		}
		return out
	}
	checked := 0
	for _, basket := range w.baskets {
		for _, rec := range w.rec.RecommendTopK(basket, 4) {
			got, want := w.rec.Explain(rec), refExplain(rec)
			if len(got) != len(want) {
				t.Fatalf("Explain(%v): got %d lines, want %d\n got: %q\nwant: %q", rec, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Explain(%v) line %d: got %q, want %q", rec, i, got[i], want[i])
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no recommendations checked")
	}
}

// TestRecommendZeroAllocs is the steady-state allocation guard of the
// tentpole: once the pooled scratch has grown to the workload's high
// water mark, Recommend and RecommendTopKInto must not allocate.
func TestRecommendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime bookkeeping allocates on otherwise allocation-free paths")
	}
	w := newBenchWorld(t, 2000, 40, 8, 5)
	dst := make([]Recommendation, 0, 8)
	// Warm the pool and grow every scratch buffer to its steady state.
	for _, basket := range w.baskets {
		w.rec.Recommend(basket)
		dst = w.rec.RecommendTopKInto(dst, basket, 5)
	}
	i := 0
	if got := testing.AllocsPerRun(500, func() {
		w.rec.Recommend(w.baskets[i%len(w.baskets)])
		i++
	}); got != 0 {
		t.Errorf("Recommend: %v allocs/op, want 0", got)
	}
	i = 0
	if got := testing.AllocsPerRun(500, func() {
		dst = w.rec.RecommendTopKInto(dst, w.baskets[i%len(w.baskets)], 5)
		i++
	}); got != 0 {
		t.Errorf("RecommendTopKInto: %v allocs/op, want 0", got)
	}
}

func BenchmarkRecommend(b *testing.B) {
	w := newBenchWorld(b, 4000, 60, 10, 3)
	for _, basket := range w.baskets {
		w.rec.Recommend(basket)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.rec.Recommend(w.baskets[i%len(w.baskets)])
	}
}

func BenchmarkRecommendTopK(b *testing.B) {
	w := newBenchWorld(b, 4000, 60, 10, 3)
	dst := make([]Recommendation, 0, 8)
	for _, basket := range w.baskets {
		dst = w.rec.RecommendTopKInto(dst, basket, 5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = w.rec.RecommendTopKInto(dst, w.baskets[i%len(w.baskets)], 5)
	}
}

// BenchmarkRecommendReference tracks the pre-optimization serving path
// (allocate-sort-dedup expansion, map-collected per-item winners) so
// every bench run shows the fast path's margin over it.
func BenchmarkRecommendReference(b *testing.B) {
	w := newBenchWorld(b, 4000, 60, 10, 3)
	ref := newReference(w.rec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref.topK(w.baskets[i%len(w.baskets)], 1)
	}
}

func BenchmarkRecommendTopKReference(b *testing.B) {
	w := newBenchWorld(b, 4000, 60, 10, 3)
	ref := newReference(w.rec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref.topK(w.baskets[i%len(w.baskets)], 5)
	}
}

func BenchmarkExpandBasketInto(b *testing.B) {
	w := newBenchWorld(b, 2000, 60, 10, 3)
	buf := make([]hierarchy.GenID, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = w.space.ExpandBasketInto(buf, w.baskets[i%len(w.baskets)])
	}
}
