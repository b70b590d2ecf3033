package profitmining_test

import (
	"bytes"
	"fmt"
	"testing"

	"profitmining"
)

// TestParallelBuildIsByteIdentical is the determinism contract of the
// parallel build pipeline: for any worker count, the mined rules, the
// covering tree, and the projected profits — everything a saved model
// serializes — must be byte-identical to the strictly serial build. The
// dataset spans several transaction shards so the sharded counting
// passes, the MPF cover merge, and the projection fan-out all actually
// run multi-shard. The test runs under -race in CI, so it also vouches
// for the pipeline's memory safety.
func TestParallelBuildIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed build matrix")
	}
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

			variants := []struct {
				name string
				opts profitmining.Options
			}{
				// Support mining: head statistics for frequent bodies only.
				{"support", profitmining.Options{MinSupport: 0.003}},
				// Profit-only pruning: head statistics for every matched body.
				{"profit", profitmining.Options{MinRuleProfit: 40, MaxBodyLen: 2}},
				// Unpruned tree: projectTree results are the final values.
				{"noprune", profitmining.Options{MinSupport: 0.005, DisablePruning: true}},
			}
			for _, v := range variants {
				t.Run(v.name, func(t *testing.T) {
					serial := buildModelBytes(t, ds, v.opts, 1)
					for _, workers := range []int{2, 3, 8} {
						if got := buildModelBytes(t, ds, v.opts, workers); !bytes.Equal(got, serial) {
							t.Errorf("Parallelism=%d produced a different model than the serial build (%d vs %d bytes)",
								workers, len(got), len(serial))
						}
					}
				})
			}
		})
	}
}

// TestIncrementalSlideMatchesRebuild is the byte-identity contract of
// incremental maintenance: after any schedule of window slides, the
// model maintained by Incremental.Slide must serialize to exactly the
// bytes a from-scratch Build over the same window produces — at any
// worker count. A slide re-mines and rebuilds its window with Build's
// code, so what this checks is that the window is the right one (the
// evicted transactions leave, the entering ones are expanded once and
// kept in order) and that the shared code is deterministic. The
// schedules cover steady turnover, an empty slide (a no-op), a
// single-transaction nudge, a bulk slide turning over a quarter of the
// window, and an odd remainder; one keeps the window on the 1024-
// transaction counting-shard grid, breaks it, and restores it. Runs
// under -race in CI.
func TestIncrementalSlideMatchesRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed slide matrix")
	}
	schedules := []struct {
		window int
		slides []int
	}{
		{700, []int{80, 0, 80}},       // steady slides around a no-op empty slide
		{700, []int{1, 170, 29}},      // a nudge, a bulk turnover, an odd remainder
		{2048, []int{1024, 100, 924}}, // shard-aligned → unaligned → realigned
	}
	for _, seed := range []int64{1, 7, 42} {
		ds, err := profitmining.GenerateDatasetI(profitmining.QuestConfig{
			NumTransactions: 4200,
			NumItems:        60,
			Seed:            seed,
		}, seed+1)
		if err != nil {
			t.Fatal(err)
		}
		for si, schedule := range schedules {
			window, schedule := schedule.window, schedule.slides
			t.Run(fmt.Sprintf("seed=%d/schedule=%d", seed, si), func(t *testing.T) {
				opts := profitmining.Options{MinSupport: 0.012}
				init := &profitmining.Dataset{
					Catalog:      ds.Catalog,
					Transactions: ds.Transactions[:window],
				}
				// One maintainer per worker count; both must match one
				// shared rebuild baseline (model bytes are worker-
				// independent — the batch determinism contract above).
				workerCounts := []int{1, 8}
				incs := make([]*profitmining.Incremental, len(workerCounts))
				for i, workers := range workerCounts {
					wopts := opts
					wopts.Parallelism = workers
					inc, err := profitmining.NewIncremental(init, wopts)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					incs[i] = inc
				}
				check := func(step string) {
					t.Helper()
					cur := &profitmining.Dataset{Catalog: ds.Catalog, Transactions: incs[0].Window()}
					want := buildModelBytes(t, cur, opts, 8)
					for i, inc := range incs {
						var buf bytes.Buffer
						if err := profitmining.WriteModel(&buf, ds.Catalog, nil, inc.Recommender()); err != nil {
							t.Fatalf("%s: workers=%d: serializing: %v", step, workerCounts[i], err)
						}
						if !bytes.Equal(buf.Bytes(), want) {
							t.Fatalf("%s: workers=%d: incremental model diverged from rebuild (%d vs %d bytes)",
								step, workerCounts[i], buf.Len(), len(want))
						}
					}
				}
				check("initial")
				pos := window
				for step, n := range schedule {
					batch := ds.Transactions[pos : pos+n]
					pos += n
					for i, inc := range incs {
						if _, err := inc.Slide(batch); err != nil {
							t.Fatalf("slide %d (+%d): workers=%d: %v", step, n, workerCounts[i], err)
						}
					}
					check(fmt.Sprintf("slide %d (+%d)", step, n))
				}
			})
		}
	}
}

func buildModelBytes(t *testing.T, ds *profitmining.Dataset, opts profitmining.Options, workers int) []byte {
	t.Helper()
	opts.Parallelism = workers
	rec, err := profitmining.Build(ds, opts)
	if err != nil {
		t.Fatalf("Parallelism=%d: %v", workers, err)
	}
	var buf bytes.Buffer
	if err := profitmining.WriteModel(&buf, ds.Catalog, nil, rec); err != nil {
		t.Fatalf("Parallelism=%d: serializing: %v", workers, err)
	}
	return buf.Bytes()
}
