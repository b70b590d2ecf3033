package mining

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"profitmining/internal/hierarchy"
	"profitmining/internal/rules"
)

// pruningTrials returns every reference-test input: the flat fixture's
// trials, the hierarchy fixture's and the multi-parent fixture's.
func pruningTrials(tb testing.TB) []trial {
	return slices.Concat(flatTrials(tb), hierTrials(tb), multiParentTrials(tb))
}

// firingReference returns the exhaustive rules minus each rule r for
// which a rule d of r's target item — a generated rule or the default
// rule — outranks r, generalizes r's body, and has a body shorter than
// r's or equal to it: the rules Mine must return, in the same order.
func firingReference(space *hierarchy.Space, all *Result) []*rules.Rule {
	dominators := append(slices.Clone(all.Rules), all.Default)
	var out []*rules.Rule
	for _, r := range all.Rules {
		dominated := false
		for _, d := range dominators {
			if d == r || space.ItemOf(d.Head) != space.ItemOf(r.Head) {
				continue
			}
			if (len(d.Body) < len(r.Body) || slices.Equal(d.Body, r.Body)) &&
				rules.Outranks(d, r) && rules.MoreGeneral(space, d, r) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, r)
		}
	}
	return out
}

// TestMineKeepsExactlyTheFiringRules checks Mine against the exhaustive
// miner on every reference input, at Parallelism 1 and 3 and under
// several thresholds: Mine returns exactly firingReference of the
// exhaustive result, rule for rule with bit-equal profits, in the same
// order and with the same Order; it counts every exhaustive rule in
// Generated; and the rest of the result is identical.
func TestMineKeepsExactlyTheFiringRules(t *testing.T) {
	variants := []struct {
		name string
		opts func(minCount int) Options
	}{
		{"support", func(c int) Options { return Options{MinSupportCount: c, MaxBodyLen: 3} }},
		{"confidence", func(c int) Options { return Options{MinSupportCount: c, MinConfidence: 0.4, MaxBodyLen: 3} }},
		{"binary", func(c int) Options { return Options{MinSupportCount: c, BinaryProfit: true, MaxBodyLen: 3} }},
		{"profit-only", func(c int) Options { return Options{MinRuleProfit: 2 * float64(c), MaxBodyLen: 3} }},
	}
	pruned := 0
	for i, tr := range pruningTrials(t) {
		for _, v := range variants {
			for _, workers := range []int{1, 3} {
				opts := v.opts(tr.minCount)
				opts.Parallelism = workers
				name := fmt.Sprintf("input %d (trial %d, moa=%v) %s workers=%d", i, tr.index, tr.moa, v.name, workers)
				all, err := mineExhaustive(tr.space, tr.txns, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Mine(tr.space, tr.txns, opts)
				if err != nil {
					t.Fatal(err)
				}
				want := firingReference(tr.space, all)
				pruned += len(all.Rules) - len(want)
				checkFiring(t, name, tr.space, all, got, want)
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no input has a rule to prune")
	}
}

func checkFiring(t *testing.T, name string, space *hierarchy.Space, all, got *Result, want []*rules.Rule) {
	t.Helper()
	if all.Generated != len(all.Rules) || got.Generated != all.Generated {
		t.Fatalf("%s: Generated %d, exhaustive %d with %d rules", name, got.Generated, all.Generated, len(all.Rules))
	}
	if len(got.Rules) != len(want) {
		t.Fatalf("%s: %d rules, want %d of %d", name, len(got.Rules), len(want), len(all.Rules))
	}
	for i, w := range want {
		g := got.Rules[i]
		if !slices.Equal(g.Body, w.Body) || g.Head != w.Head || g.BodyCount != w.BodyCount ||
			g.HitCount != w.HitCount || math.Float64bits(g.Profit) != math.Float64bits(w.Profit) || g.Order != w.Order {
			t.Fatalf("%s: rule %d is %s order %d, want %s order %d", name, i, g.String(space), g.Order, w.String(space), w.Order)
		}
	}
	a, b := *all, *got
	a.Rules, b.Rules = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: result beyond the rules differs:\n got %+v\nwant %+v", name, b, a)
	}
}
