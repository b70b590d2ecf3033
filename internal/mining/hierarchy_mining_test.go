package mining

import (
	"math"
	"math/rand"
	"testing"

	"profitmining/internal/hierarchy"
	"profitmining/internal/model"
	"profitmining/internal/rules"
)

// hierFixture is a two-level concept hierarchy: Food ⊃ {Meat ⊃ {pork,
// beef}, Dairy ⊃ {milk}} plus an unclassified item soap, and a target T
// with two prices.
type hierFixture struct {
	cat                    *model.Catalog
	pork, beef, milk, soap model.ItemID
	pPork, pBeef           model.PromoID
	pMilk1, pMilk2, pSoap  model.PromoID
	t                      model.ItemID
	t5, t6                 model.PromoID
	space                  *hierarchy.Space
}

func newHierFixture(tb testing.TB, moa bool) *hierFixture {
	tb.Helper()
	f := &hierFixture{cat: model.NewCatalog()}
	f.pork = f.cat.AddItem("pork", false)
	f.pPork = f.cat.AddPromo(f.pork, 4, 2, 1)
	f.beef = f.cat.AddItem("beef", false)
	f.pBeef = f.cat.AddPromo(f.beef, 6, 3, 1)
	f.milk = f.cat.AddItem("milk", false)
	f.pMilk1 = f.cat.AddPromo(f.milk, 1, 0.5, 1)
	f.pMilk2 = f.cat.AddPromo(f.milk, 1.5, 0.5, 1)
	f.soap = f.cat.AddItem("soap", false)
	f.pSoap = f.cat.AddPromo(f.soap, 2, 1, 1)
	f.t = f.cat.AddItem("T", true)
	f.t5 = f.cat.AddPromo(f.t, 5, 3, 1)
	f.t6 = f.cat.AddPromo(f.t, 6, 3, 1)

	b := hierarchy.NewBuilder(f.cat)
	b.AddConcept("Food")
	b.AddConcept("Meat", "Food")
	b.AddConcept("Dairy", "Food")
	b.PlaceItem(f.pork, "Meat")
	b.PlaceItem(f.beef, "Meat")
	b.PlaceItem(f.milk, "Dairy")
	space, err := b.Compile(hierarchy.Options{MOA: moa})
	if err != nil {
		tb.Fatal(err)
	}
	f.space = space
	return f
}

func (f *hierFixture) txn(target model.PromoID, nonTarget ...model.PromoID) model.Transaction {
	t := model.Transaction{Target: model.Sale{Item: f.t, Promo: target, Qty: 1}}
	for _, p := range nonTarget {
		t.NonTarget = append(t.NonTarget, model.Sale{Item: f.cat.Promo(p).Item, Promo: p, Qty: 1})
	}
	return t
}

func TestMineConceptRules(t *testing.T) {
	f := newHierFixture(t, true)
	// Meat buyers (pork or beef) buy T at $6; milk buyers at $5.
	var txns []model.Transaction
	for i := 0; i < 6; i++ {
		p := f.pPork
		if i%2 == 0 {
			p = f.pBeef
		}
		txns = append(txns, f.txn(f.t6, p))
		txns = append(txns, f.txn(f.t5, f.pMilk1))
	}
	res, err := Mine(f.space, txns, Options{MinSupportCount: 4})
	if err != nil {
		t.Fatal(err)
	}

	// {Meat} → ⟨T,$6⟩ is only expressible with the hierarchy: pork and
	// beef alone have support 3 < 4.
	var meatRule *rules.Rule
	for _, r := range res.Rules {
		if len(r.Body) == 1 && f.space.Name(r.Body[0]) == "Meat" && f.space.Name(r.Head) == "⟨T,$6⟩" {
			meatRule = r
		}
		// pork/beef singleton bodies must have been pruned by support.
		if len(r.Body) == 1 {
			n := f.space.Name(r.Body[0])
			if n == "pork" || n == "beef" {
				t.Errorf("infrequent item rule %s survived", r.String(f.space))
			}
		}
	}
	if meatRule == nil {
		t.Fatal("concept rule {Meat} → ⟨T,$6⟩ not mined")
	}
	if meatRule.BodyCount != 6 || meatRule.HitCount != 6 || math.Abs(meatRule.Profit-18) > 1e-9 {
		t.Errorf("{Meat}→⟨T,$6⟩ = N%d hits%d prof%g, want 6/6/18", meatRule.BodyCount, meatRule.HitCount, meatRule.Profit)
	}
}

// hierTrials returns the inputs of TestMineHierarchyAgainstNaive: a space
// with concepts, multiple levels and MOA ladders.
func hierTrials(tb testing.TB) []trial {
	rng := rand.New(rand.NewSource(17))
	var out []trial
	for i := 0; i < 12; i++ {
		moa := i%2 == 0
		f := newHierFixture(tb, moa)
		promos := []model.PromoID{f.pPork, f.pBeef, f.pMilk1, f.pMilk2, f.pSoap}
		targets := []model.PromoID{f.t5, f.t6}

		var txns []model.Transaction
		n := 6 + rng.Intn(14)
		for j := 0; j < n; j++ {
			var nt []model.PromoID
			for _, p := range promos {
				if rng.Float64() < 0.35 {
					nt = append(nt, p)
				}
			}
			if len(nt) == 0 {
				nt = append(nt, promos[rng.Intn(len(promos))])
			}
			txns = append(txns, f.txn(targets[rng.Intn(2)], nt...))
		}
		minCount := 1 + rng.Intn(3)
		out = append(out, trial{index: i, moa: moa, space: f.space, txns: txns, minCount: minCount})
	}
	return out
}

// TestMineHierarchyAgainstNaive extends the miner/naive equivalence to a
// space with concepts, multiple levels and MOA ladders.
func TestMineHierarchyAgainstNaive(t *testing.T) {
	for _, tr := range hierTrials(t) {
		checkAgainstNaive(t, tr)
	}
}

// multiParentTrials returns inputs over a hierarchy whose items and
// concepts have several parents: concept W sits under X and Y, pork under
// W and Z, milk under X and Z. A body such as {W, Z} then generalizes the
// shorter {pork}. The fixture has two target items, so a rule's own item
// is not always the default rule's.
func multiParentTrials(tb testing.TB) []trial {
	rng := rand.New(rand.NewSource(23))
	var out []trial
	for i := 0; i < 12; i++ {
		moa := i%2 == 0
		cat := model.NewCatalog()
		var promos []model.PromoID
		for _, it := range []struct {
			name   string
			prices []float64
		}{{"pork", []float64{4, 5}}, {"beef", []float64{6}}, {"milk", []float64{1, 1.5}}, {"soap", []float64{2}}} {
			id := cat.AddItem(it.name, false)
			for _, p := range it.prices {
				promos = append(promos, cat.AddPromo(id, p, p/2, 1))
			}
		}
		var targets []model.PromoID
		for _, name := range []string{"T", "U"} {
			id := cat.AddItem(name, true)
			targets = append(targets, cat.AddPromo(id, 5, 3, 1), cat.AddPromo(id, 6, 3, 1))
		}
		b := hierarchy.NewBuilder(cat)
		b.AddConcept("X")
		b.AddConcept("Y")
		b.AddConcept("Z")
		b.AddConcept("W", "X", "Y")
		pork, _ := cat.ItemByName("pork")
		beef, _ := cat.ItemByName("beef")
		milk, _ := cat.ItemByName("milk")
		b.PlaceItem(pork, "W", "Z")
		b.PlaceItem(beef, "Y")
		b.PlaceItem(milk, "X", "Z")
		space, err := b.Compile(hierarchy.Options{MOA: moa})
		if err != nil {
			tb.Fatal(err)
		}

		var txns []model.Transaction
		n := 8 + rng.Intn(24)
		for j := 0; j < n; j++ {
			var nt []model.Sale
			for _, p := range promos {
				if rng.Float64() < 0.35 {
					nt = append(nt, model.Sale{Item: cat.Promo(p).Item, Promo: p, Qty: 1})
				}
			}
			if len(nt) == 0 {
				p := promos[rng.Intn(len(promos))]
				nt = append(nt, model.Sale{Item: cat.Promo(p).Item, Promo: p, Qty: 1})
			}
			tp := targets[rng.Intn(len(targets))]
			txns = append(txns, model.Transaction{
				NonTarget: nt,
				Target:    model.Sale{Item: cat.Promo(tp).Item, Promo: tp, Qty: float64(1 + rng.Intn(2))},
			})
		}
		out = append(out, trial{index: i, moa: moa, space: space, txns: txns, minCount: 1 + rng.Intn(3)})
	}
	return out
}

// TestMineMultiParentAgainstNaive extends the miner/naive equivalence to a
// hierarchy with multiple parents.
func TestMineMultiParentAgainstNaive(t *testing.T) {
	for _, tr := range multiParentTrials(t) {
		checkAgainstNaive(t, tr)
	}
}
