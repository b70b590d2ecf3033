package profitmining_test

import (
	"fmt"
	"testing"

	"profitmining"
)

// TestGoldenModelDigests pins the sealed image digest of a fixed set of
// builds to recorded values. The other byte-identity tests compare the
// code with itself — at another worker count, or a windowed model with a
// rebuild — so a change to the counting arithmetic that moves a mined
// profit sum by one ulp everywhere at once passes them. This test is the
// one that fails on it. Each row builds at Parallelism 1 and 4.
//
// A change that alters model bytes on purpose must update the digests
// here and say why.
func TestGoldenModelDigests(t *testing.T) {
	// Three transaction shards; the tail shard (952) is not a multiple of
	// 64, so the last word of every transaction bitset is partial.
	dsI, err := profitmining.GenerateDatasetI(profitmining.QuestConfig{
		NumTransactions: 3000,
		NumItems:        60,
		Seed:            1,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	build := func(opts profitmining.Options) func(t *testing.T, workers int) *profitmining.Recommender {
		return func(t *testing.T, workers int) *profitmining.Recommender {
			opts.Parallelism = workers
			rec, err := profitmining.Build(dsI, opts)
			if err != nil {
				t.Fatal(err)
			}
			return rec
		}
	}
	rows := []struct {
		name  string
		build func(t *testing.T, workers int) *profitmining.Recommender
		want  string
	}{
		{"support", build(profitmining.Options{MinSupport: 0.01}), "2664410e2dfda8fa05becb2e61561e8feb115a5c08edb7c80f8fc8a2b7e3839c"},
		{"nomoa", build(profitmining.Options{MinSupport: 0.01, DisableMOA: true}), "7e6838ee77b9027c343e53ef0b9ffda2e8cd3b7a56053cf043752d92afc4652e"},
		{"binary", build(profitmining.Options{MinSupport: 0.01, BinaryProfit: true}), "9ba71b76688b94e4aea7b3888b0782bb2e3623a3485fcccaa5bb49be74d9dbea"},
		{"buying-conf-len4", build(profitmining.Options{
			MinSupport:    0.01,
			Quantity:      profitmining.BuyingMOA{},
			MinConfidence: 0.2,
			MaxBodyLen:    4,
		}), "9a1b1ba0b2fdb73c3d246b4c639cdfc1423a2186b7647f00adaa84be19921e8d"},
		// Dataset I prices every target code above its cost, so profit-only
		// pruning applies.
		{"profit-only", build(profitmining.Options{MinRuleProfit: 40, MaxBodyLen: 2}), "76975dfb94bc4dc0784f9e1dc6a1ab5b5ccc2d4d734afe5ab82dc2ca103c608e"},
		{"grocery-hierarchy", func(t *testing.T, workers int) *profitmining.Recommender {
			g := profitmining.NewGrocery(2500, 5)
			rec, err := profitmining.Build(g.Dataset, profitmining.Options{
				MinSupport:  0.01,
				Hierarchy:   g.Builder,
				Parallelism: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			return rec
		}, "2cdfd007d0fd33f7ef981fb30a495be61bb604fefbaeb1da36bd92e9d761be28"},
		// Every non-target item sits under two of eight concepts, so a more
		// general body can be longer than the body it generalizes.
		{"multi-parent-hierarchy", func(t *testing.T, workers int) *profitmining.Recommender {
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
			rec, err := profitmining.Build(dsI, profitmining.Options{
				MinSupport:  0.01,
				Hierarchy:   hb,
				Parallelism: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			return rec
		}, "98732a30f022d92dddc119da9381beaf7ed544bbaa4b4456613e5b6447188a06"},
		{"interest-1.2", build(profitmining.Options{MinSupport: 0.01, MinInterest: 1.2}), "c28d668842631196c46464b8b3543df5d21e68c2e8b6eded77becf2a10ed5913"},
		{"incremental-two-slides", func(t *testing.T, workers int) *profitmining.Recommender {
			inc, err := profitmining.NewIncremental(&profitmining.Dataset{
				Catalog:      dsI.Catalog,
				Transactions: dsI.Transactions[:2100],
			}, profitmining.Options{MinSupport: 0.01, Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			for _, span := range [][2]int{{2100, 2500}, {2500, 3000}} {
				if _, err := inc.Slide(dsI.Transactions[span[0]:span[1]]); err != nil {
					t.Fatal(err)
				}
			}
			return inc.Recommender()
		}, "ff98a04643e6fbd957438a228682809b796532cee149926cfa3424b4b268b706"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				got := row.build(t, workers).Sealed().ContentHash()
				if got != row.want {
					t.Errorf("Parallelism=%d: digest %s, want %s", workers, got, row.want)
				}
			}
		})
	}
}
