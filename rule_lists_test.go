package profitmining_test

import (
	"fmt"
	"reflect"
	"testing"

	"profitmining"
	"profitmining/internal/core"
	"profitmining/internal/modelio"
	"profitmining/internal/rules"
)

// TestRuleListsReadOffTheImage builds the models TestGoldenModelDigests
// pins, plus an unpruned and a CF 0.1 variant, and requires each one's
// rule lists to be the same whether read from the built model or from
// its sealed bytes loaded back: Rules and Alternates field for field and
// in order. The built model's Rules must also be its covering tree's
// rules in MPF rank order, the build output they are sealed from.
func TestRuleListsReadOffTheImage(t *testing.T) {
	dsI, err := profitmining.GenerateDatasetI(profitmining.QuestConfig{
		NumTransactions: 3000,
		NumItems:        60,
		Seed:            1,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	build := func(opts profitmining.Options) func(t *testing.T) *profitmining.Recommender {
		return func(t *testing.T) *profitmining.Recommender {
			rec, err := profitmining.Build(dsI, opts)
			if err != nil {
				t.Fatal(err)
			}
			return rec
		}
	}
	rows := []struct {
		name  string
		build func(t *testing.T) *profitmining.Recommender
	}{
		{"support", build(profitmining.Options{MinSupport: 0.01})},
		{"nomoa", build(profitmining.Options{MinSupport: 0.01, DisableMOA: true})},
		{"binary", build(profitmining.Options{MinSupport: 0.01, BinaryProfit: true})},
		{"buying-conf-len4", build(profitmining.Options{
			MinSupport:    0.01,
			Quantity:      profitmining.BuyingMOA{},
			MinConfidence: 0.2,
			MaxBodyLen:    4,
		})},
		{"profit-only", build(profitmining.Options{MinRuleProfit: 40, MaxBodyLen: 2})},
		{"unpruned", build(profitmining.Options{MinSupport: 0.01, DisablePruning: true})},
		{"cf-0.1", build(profitmining.Options{MinSupport: 0.01, CF: 0.1})},
		{"grocery-hierarchy", func(t *testing.T) *profitmining.Recommender {
			g := profitmining.NewGrocery(2500, 5)
			rec, err := profitmining.Build(g.Dataset, profitmining.Options{MinSupport: 0.01, Hierarchy: g.Builder})
			if err != nil {
				t.Fatal(err)
			}
			return rec
		}},
		{"multi-parent-hierarchy", func(t *testing.T) *profitmining.Recommender {
			hb := profitmining.NewHierarchy(dsI.Catalog)
			for c := 0; c < 8; c++ {
				hb.AddConcept(fmt.Sprintf("c%d", c))
			}
			for _, item := range dsI.Catalog.Items() {
				if !item.Target {
					i := int(item.ID)
					hb.PlaceItem(item.ID, fmt.Sprintf("c%d", i%8), fmt.Sprintf("c%d", (i+3)%8))
				}
			}
			rec, err := profitmining.Build(dsI, profitmining.Options{MinSupport: 0.01, Hierarchy: hb})
			if err != nil {
				t.Fatal(err)
			}
			return rec
		}},
		{"interest-1.2", build(profitmining.Options{MinSupport: 0.01, MinInterest: 1.2})},
		{"incremental-two-slides", func(t *testing.T) *profitmining.Recommender {
			inc, err := profitmining.NewIncremental(&profitmining.Dataset{
				Catalog:      dsI.Catalog,
				Transactions: dsI.Transactions[:2100],
			}, profitmining.Options{MinSupport: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			for _, span := range [][2]int{{2100, 2500}, {2500, 3000}} {
				if _, err := inc.Slide(dsI.Transactions[span[0]:span[1]]); err != nil {
					t.Fatal(err)
				}
			}
			return inc.Recommender()
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			built := row.build(t)
			_, loaded, err := modelio.LoadBytes(built.Sealed().Bytes())
			if err != nil {
				t.Fatal(err)
			}

			var tree []*rules.Rule
			var walk func(*core.Node)
			walk = func(n *core.Node) {
				tree = append(tree, n.Rule)
				for _, c := range n.Children {
					walk(c)
				}
			}
			walk(built.Tree())
			rules.SortByRank(tree)
			want := make([]rules.Rule, len(tree))
			for i, r := range tree {
				want[i] = *r
			}
			if got := built.Rules(); !reflect.DeepEqual(got, want) {
				t.Fatalf("built Rules() differs from the covering tree's %d rules in rank order", len(want))
			}

			if got, want := loaded.Rules(), built.Rules(); !reflect.DeepEqual(got, want) {
				t.Errorf("loaded Rules() (%d rules) differs from built (%d rules)", len(got), len(want))
			}
			alt := built.Alternates()
			if len(alt) == 0 {
				t.Fatal("built model has no alternates")
			}
			if got := loaded.Alternates(); !reflect.DeepEqual(got, alt) {
				t.Errorf("loaded Alternates() (%d rules) differs from built (%d rules)", len(got), len(alt))
			}
		})
	}
}
