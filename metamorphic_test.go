package profitmining_test

import (
	"math"
	"testing"

	"profitmining"
)

// Metamorphic invariants: library-level properties that must hold under
// systematic transformations of the input data.

// TestDuplicationInvariance: duplicating every transaction doubles all
// supports but leaves every relative measure — and therefore the MPF
// ranking and the recommendations — unchanged.
func TestDuplicationInvariance(t *testing.T) {
	g := profitmining.NewGrocery(400, 31)
	doubled := &profitmining.Dataset{Catalog: g.Dataset.Catalog}
	doubled.Transactions = append(doubled.Transactions, g.Dataset.Transactions...)
	doubled.Transactions = append(doubled.Transactions, g.Dataset.Transactions...)

	// MinSupportCount doubles so the same rules stay frequent.
	rec1, err := profitmining.Build(g.Dataset, profitmining.Options{MinSupportCount: 4, Hierarchy: g.Builder})
	if err != nil {
		t.Fatal(err)
	}
	g2 := profitmining.NewGrocery(400, 31) // fresh builder (hierarchy builders are single-use per compile)
	rec2, err := profitmining.Build(doubled, profitmining.Options{MinSupportCount: 8, Hierarchy: g2.Builder})
	if err != nil {
		t.Fatal(err)
	}

	// Recommend fires only final rules, which Rules lists by rule-table
	// index.
	rules1, rules2 := rec1.Rules(), rec2.Rules()
	for i := range g.Dataset.Transactions {
		basket := g.Dataset.Transactions[i].NonTarget
		a, b := rec1.Recommend(basket), rec2.Recommend(basket)
		if a.Item != b.Item || a.Promo != b.Promo {
			t.Fatalf("basket %d: duplication changed the recommendation (%v/%v vs %v/%v)",
				i, a.Item, a.Promo, b.Item, b.Promo)
		}
		// The fired rules' relative measures match: doubled counts, equal
		// ProfRe and confidence.
		ra, rb := rules1[a.Idx], rules2[b.Idx]
		if math.Abs(ra.ProfRe()-rb.ProfRe()) > 1e-9 {
			t.Fatalf("basket %d: ProfRe changed: %g vs %g", i, ra.ProfRe(), rb.ProfRe())
		}
		if math.Abs(ra.Conf()-rb.Conf()) > 1e-9 {
			t.Fatalf("basket %d: confidence changed", i)
		}
		if rb.BodyCount != 2*ra.BodyCount || rb.HitCount != 2*ra.HitCount {
			t.Fatalf("basket %d: counts not doubled: %d/%d vs %d/%d",
				i, ra.BodyCount, ra.HitCount, rb.BodyCount, rb.HitCount)
		}
	}
}

// TestProfitScaleEquivariance: multiplying every price and cost by a
// constant scales every profit measure linearly and leaves the
// recommendations unchanged.
func TestProfitScaleEquivariance(t *testing.T) {
	const k = 3.0
	build := func(scale float64) (*profitmining.Grocery, *profitmining.Recommender) {
		g := profitmining.NewGrocery(400, 37)
		if scale != 1 {
			// Rebuild the catalog with scaled prices/costs.
			cat := profitmining.NewCatalog()
			idMap := map[profitmining.ItemID]profitmining.ItemID{}
			promoMap := map[profitmining.PromoID]profitmining.PromoID{}
			for _, it := range g.Dataset.Catalog.Items() {
				idMap[it.ID] = cat.AddItem(it.Name, it.Target)
				for _, pid := range g.Dataset.Catalog.Promos(it.ID) {
					p := g.Dataset.Catalog.Promo(pid)
					promoMap[pid] = cat.AddPromo(idMap[it.ID], p.Price*scale, p.Cost*scale, p.Packing)
				}
			}
			txns := make([]profitmining.Transaction, len(g.Dataset.Transactions))
			for i, tr := range g.Dataset.Transactions {
				nt := make([]profitmining.Sale, len(tr.NonTarget))
				for j, s := range tr.NonTarget {
					nt[j] = profitmining.Sale{Item: idMap[s.Item], Promo: promoMap[s.Promo], Qty: s.Qty}
				}
				txns[i] = profitmining.Transaction{
					NonTarget: nt,
					Target:    profitmining.Sale{Item: idMap[tr.Target.Item], Promo: promoMap[tr.Target.Promo], Qty: tr.Target.Qty},
				}
			}
			g.Dataset = &profitmining.Dataset{Catalog: cat, Transactions: txns}
		}
		rec, err := profitmining.Build(g.Dataset, profitmining.Options{MinSupport: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		return g, rec
	}

	g1, rec1 := build(1)
	_, rec2 := build(k)

	rules1, rules2 := rec1.Rules(), rec2.Rules()
	for i := range g1.Dataset.Transactions {
		// Catalogs are built in the same order, so IDs (and therefore
		// baskets) are positionally identical across the two builds.
		a := rec1.Recommend(g1.Dataset.Transactions[i].NonTarget)
		b := rec2.Recommend(g1.Dataset.Transactions[i].NonTarget)
		if a.Item != b.Item || a.Promo != b.Promo {
			t.Fatalf("basket %d: scaling changed the recommendation", i)
		}
		pa, pb := rules1[a.Idx].Profit, rules2[b.Idx].Profit
		if math.Abs(pb-k*pa) > 1e-6*(1+math.Abs(pa)) {
			t.Fatalf("basket %d: rule profit not scaled by %g: %g vs %g", i, k, pa, pb)
		}
	}
}

// TestQuantityScaleLinearity: multiplying every target-sale quantity by a
// constant multiplies rule profits by the same constant under saving MOA.
func TestQuantityScaleLinearity(t *testing.T) {
	g := profitmining.NewGrocery(300, 41)
	scaled := &profitmining.Dataset{Catalog: g.Dataset.Catalog}
	for _, tr := range g.Dataset.Transactions {
		tr2 := tr
		tr2.Target.Qty *= 5
		scaled.Transactions = append(scaled.Transactions, tr2)
	}
	rec1, err := profitmining.Build(g.Dataset, profitmining.Options{MinSupportCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := profitmining.Build(scaled, profitmining.Options{MinSupportCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	rules1, rules2 := rec1.Rules(), rec2.Rules()
	for i := range g.Dataset.Transactions {
		a := rec1.Recommend(g.Dataset.Transactions[i].NonTarget)
		b := rec2.Recommend(scaled.Transactions[i].NonTarget)
		if a.Item != b.Item || a.Promo != b.Promo {
			t.Fatalf("basket %d: quantity scaling changed the recommendation", i)
		}
		pa, pb := rules1[a.Idx].Profit, rules2[b.Idx].Profit
		if math.Abs(pb-5*pa) > 1e-9*(1+math.Abs(pa)) {
			t.Fatalf("basket %d: profit not scaled ×5: %g vs %g", i, pa, pb)
		}
	}
}
