package profitmining_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"profitmining"
)

// TestServingEquivalenceAcrossParallelism is the serving-side
// determinism contract backing the zero-allocation hot path: models
// built at any Parallelism must produce byte-identical recommendation
// lists — same items, same promotion codes, same rules, same rank order
// — over a large randomized basket stream. It complements
// TestParallelBuildIsByteIdentical (which pins the serialized model) by
// pinning what the model *says*, end to end through ExpandBasketInto,
// the flattened matcher, and the pooled top-K scan.
func TestServingEquivalenceAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed recommend matrix")
	}
	const numBaskets = 1000
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ds, err := profitmining.GenerateDatasetI(profitmining.QuestConfig{
				NumTransactions: 3000,
				NumItems:        60,
				Seed:            seed,
			}, seed+1)
			if err != nil {
				t.Fatal(err)
			}
			baskets := randomBaskets(ds, numBaskets, seed+2)
			opts := profitmining.Options{MinSupport: 0.003, MaxBodyLen: 3}

			var reference []byte
			for _, workers := range []int{1, 2, 8} {
				got := recommendationTranscript(t, ds, opts, workers, baskets)
				if workers == 1 {
					reference = got
					continue
				}
				if !bytes.Equal(got, reference) {
					t.Errorf("Parallelism=%d recommendations diverge from the serial model (%d vs %d transcript bytes)",
						workers, len(got), len(reference))
				}
			}
		})
	}
}

// randomBaskets draws n baskets of 1–6 non-target sales with seeded
// randomness: promotion codes and quantities vary, items may repeat.
func randomBaskets(ds *profitmining.Dataset, n int, seed int64) []profitmining.Basket {
	rng := rand.New(rand.NewSource(seed))
	cat := ds.Catalog
	var nonTargets []profitmining.ItemID
	for _, it := range cat.Items() {
		if !it.Target {
			nonTargets = append(nonTargets, it.ID)
		}
	}
	baskets := make([]profitmining.Basket, n)
	for i := range baskets {
		size := 1 + rng.Intn(6)
		bk := make(profitmining.Basket, 0, size)
		for j := 0; j < size; j++ {
			item := nonTargets[rng.Intn(len(nonTargets))]
			promos := cat.Promos(item)
			bk = append(bk, profitmining.Sale{
				Item:  item,
				Promo: promos[rng.Intn(len(promos))],
				Qty:   float64(1 + rng.Intn(3)),
			})
		}
		baskets[i] = bk
	}
	return baskets
}

// recommendationTranscript builds a model at the given parallelism and
// serializes every basket's top-5 recommendation list (and the single
// best, which must equal slot 0) into one canonical byte stream.
func recommendationTranscript(t *testing.T, ds *profitmining.Dataset, opts profitmining.Options, workers int, baskets []profitmining.Basket) []byte {
	t.Helper()
	opts.Parallelism = workers
	rec, err := profitmining.Build(ds, opts)
	if err != nil {
		t.Fatalf("Parallelism=%d: %v", workers, err)
	}
	var buf bytes.Buffer
	for i, bk := range baskets {
		top := rec.RecommendTopK(bk, 5)
		best := rec.Recommend(bk)
		if len(top) == 0 || top[0] != best {
			t.Fatalf("Parallelism=%d basket %d: Recommend disagrees with RecommendTopK slot 0", workers, i)
		}
		fmt.Fprintf(&buf, "basket %d:", i)
		for _, r := range top {
			fmt.Fprintf(&buf, " ⟨%d,%d⟩rule%d", r.Item, r.Promo, rec.Sealed().Rules().Order[r.Idx])
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}
