package mining

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"profitmining/internal/datagen"
	"profitmining/internal/hierarchy"
	"profitmining/internal/quest"
)

// TestStreamSlideMatchesMine slides a Stream through windows that grow,
// shrink, drop below one shard and cross shard and word boundaries, and
// checks every result against Mine over the same window: the same rules
// in the same order, with bit-equal profits, and the same lattice
// counts, under support mining and under profit-only pruning (Dataset I
// prices every target code above its cost).
func TestStreamSlideMatchesMine(t *testing.T) {
	ds, err := datagen.Generate(datagen.DatasetIConfig(quest.Config{NumTransactions: 6000, NumItems: 200, Seed: 3}, 4))
	if err != nil {
		t.Fatal(err)
	}
	space := hierarchy.Flat(ds.Catalog, hierarchy.Options{MOA: true})
	for _, base := range []Options{
		{MinSupport: 0.03},
		{MinRuleProfit: 40, MaxBodyLen: 2},
	} {
		for _, workers := range []int{1, 3} {
			opts := base
			opts.Parallelism = workers
			start, end := 0, 1500
			s, err := NewStream(space, ds.Transactions[start:end], opts)
			if err != nil {
				t.Fatal(err)
			}
			check := func(step string, got *Result) {
				t.Helper()
				want, err := Mine(space, ds.Transactions[start:end], opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%+v %s: window [%d,%d) result differs from Mine", opts, step, start, end)
				}
				for i, r := range got.Rules {
					if math.Float64bits(r.Profit) != math.Float64bits(want.Rules[i].Profit) {
						t.Fatalf("%+v %s: rule %d profit %v, Mine has %v", opts, step, i, r.Profit, want.Rules[i].Profit)
					}
				}
			}
			check("initial", s.Result())
			for i, sl := range []struct{ enter, evict int }{
				{600, 0},    // grow across a shard boundary: 2100
				{100, 900},  // shrink: 1300
				{0, 337},    // below one shard, partial last word: 963
				{1200, 100}, // grow again: 2063
				{64, 64},    // steady
			} {
				res, err := s.Slide(ds.Transactions[end:end+sl.enter], sl.evict)
				if err != nil {
					t.Fatal(err)
				}
				start, end = start+sl.evict, end+sl.enter
				if s.Len() != end-start {
					t.Fatalf("window length %d, want %d", s.Len(), end-start)
				}
				check(fmt.Sprintf("slide %d", i), res)
			}
		}
	}
}
