package rules

import (
	"math/rand"
	"sort"
	"testing"

	"profitmining/internal/hierarchy"
)

func TestMatcherSubsetQueries(t *testing.T) {
	ts := newTestSpace(t)
	rA := &Rule{Body: []hierarchy.GenID{ts.a1}, Head: ts.t5, BodyCount: 5, HitCount: 5, Profit: 50, Order: 0}
	rAB := &Rule{Body: sortedIDs(ts.a1, ts.b1), Head: ts.t6, BodyCount: 3, HitCount: 3, Profit: 60, Order: 1}
	rB := &Rule{Body: []hierarchy.GenID{ts.b1}, Head: ts.t5, BodyCount: 4, HitCount: 2, Profit: 8, Order: 2}
	def := &Rule{Head: ts.t5, BodyCount: 10, HitCount: 5, Profit: 10, Order: 3}
	m := NewMatcher([]*Rule{rA, rAB, rB, def})

	collect := func(xs []hierarchy.GenID) map[int]bool {
		got := map[int]bool{}
		m.MatchAll(xs, func(r *Rule) { got[r.Order] = true })
		return got
	}

	both := sortedIDs(ts.a1, ts.b1)
	got := collect(both)
	for o := 0; o < 4; o++ {
		if !got[o] {
			t.Errorf("query {a1,b1}: rule %d missing", o)
		}
	}
	onlyA := collect([]hierarchy.GenID{ts.a1})
	if !onlyA[0] || !onlyA[3] || onlyA[1] || onlyA[2] {
		t.Errorf("query {a1} matched %v", onlyA)
	}
	if empty := collect(nil); !empty[3] || len(empty) != 1 {
		t.Errorf("empty query matched %v", empty)
	}

	// Best respects MPF rank: rAB has the highest ProfRe (20).
	if best := m.Best(both); best != rAB {
		t.Errorf("Best = order %d, want rAB", best.Order)
	}
	if !m.Any(nil) {
		t.Error("Any must be true with a default present")
	}

	noDef := NewMatcher([]*Rule{rA, rAB})
	if noDef.Any([]hierarchy.GenID{ts.b1}) {
		t.Error("Any must be false when nothing matches")
	}
	if noDef.Best([]hierarchy.GenID{ts.b1}) != nil {
		t.Error("Best must be nil when nothing matches")
	}
	if !noDef.Any([]hierarchy.GenID{ts.a1}) {
		t.Error("Any must find the singleton match")
	}
}

func TestExpandBody(t *testing.T) {
	ts := newTestSpace(t)
	exp := ExpandBody(ts.s, []hierarchy.GenID{ts.a2})
	// a2's generalizers: itself, a1 (more favorable), item A, Snacks —
	// root excluded.
	want := map[hierarchy.GenID]bool{ts.a2: true, ts.a1: true, ts.aN: true, ts.snacks: true}
	if len(exp) != len(want) {
		t.Fatalf("ExpandBody = %d nodes, want %d", len(exp), len(want))
	}
	for _, g := range exp {
		if !want[g] {
			t.Errorf("unexpected expansion element %s", ts.s.Name(g))
		}
	}
	if !sort.SliceIsSorted(exp, func(i, j int) bool { return exp[i] < exp[j] }) {
		t.Error("ExpandBody not sorted")
	}
	if ExpandBody(ts.s, nil) != nil {
		t.Error("empty body expands to nothing")
	}
}

// TestMatcherGeneralityEquivalence verifies the core identity behind the
// fast domination/parent queries: p is more general than r iff
// body(p) ⊆ ExpandBody(body(r)).
func TestMatcherGeneralityEquivalence(t *testing.T) {
	ts := newTestSpace(t)
	cands := []hierarchy.GenID{ts.a1, ts.a2, ts.b1, ts.aN, ts.bN, ts.snacks}
	rng := rand.New(rand.NewSource(4))

	randomBody := func() []hierarchy.GenID {
		var body []hierarchy.GenID
		for _, g := range cands {
			if rng.Float64() < 0.3 {
				ok := true
				for _, h := range body {
					if ts.s.Comparable(g, h) {
						ok = false
					}
				}
				if ok {
					body = append(body, g)
				}
			}
		}
		sort.Slice(body, func(i, j int) bool { return body[i] < body[j] })
		return body
	}

	for trial := 0; trial < 2000; trial++ {
		p := &Rule{Body: randomBody(), Head: ts.t5}
		r := &Rule{Body: randomBody(), Head: ts.t5}
		naive := MoreGeneral(ts.s, p, r)
		m := NewMatcher([]*Rule{p})
		fast := m.Any(ExpandBody(ts.s, r.Body))
		if naive != fast {
			t.Fatalf("trial %d: naive %v, matcher %v (p=%v, r=%v)", trial, naive, fast, p.Body, r.Body)
		}
	}
}

func TestRemoveDominatedMatchesNaive(t *testing.T) {
	ts := newTestSpace(t)
	cands := []hierarchy.GenID{ts.a1, ts.a2, ts.b1, ts.aN, ts.bN, ts.snacks}
	rng := rand.New(rand.NewSource(8))

	for trial := 0; trial < 200; trial++ {
		var rs []*Rule
		n := 2 + rng.Intn(12)
		for i := 0; i < n; i++ {
			var body []hierarchy.GenID
			for _, g := range cands {
				if rng.Float64() < 0.25 {
					ok := true
					for _, h := range body {
						if ts.s.Comparable(g, h) {
							ok = false
						}
					}
					if ok {
						body = append(body, g)
					}
				}
			}
			sort.Slice(body, func(i, j int) bool { return body[i] < body[j] })
			rs = append(rs, &Rule{
				Body:      body,
				Head:      ts.t5,
				BodyCount: 1 + rng.Intn(10),
				HitCount:  1 + rng.Intn(5),
				Profit:    float64(rng.Intn(50)),
				Order:     i,
			})
		}

		// Naive O(n²) domination.
		ranked := append([]*Rule(nil), rs...)
		SortByRank(ranked)
		var naive []*Rule
		for _, r := range ranked {
			dominated := false
			for _, k := range naive {
				if MoreGeneral(ts.s, k, r) {
					dominated = true
					break
				}
			}
			if !dominated {
				naive = append(naive, r)
			}
		}

		fast := RemoveDominated(ts.s, rs)
		if len(fast) != len(naive) {
			t.Fatalf("trial %d: fast kept %d, naive %d", trial, len(fast), len(naive))
		}
		for i := range fast {
			if fast[i] != naive[i] {
				t.Fatalf("trial %d: survivor %d differs", trial, i)
			}
		}
	}
}

// TestMatcherBestMatchesBruteForce checks the sealed matcher's Best
// against a scan of every rule, on a trie whose sibling blocks are wide
// (hundreds of distinct first elements) under short and long queries,
// so the walk both skips long runs and advances node by node.
func TestMatcherBestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	randomSet := func(n, universe int) []hierarchy.GenID {
		seen := map[hierarchy.GenID]bool{}
		var xs []hierarchy.GenID
		for len(xs) < n {
			if g := hierarchy.GenID(1 + rng.Intn(universe)); !seen[g] {
				seen[g] = true
				xs = append(xs, g)
			}
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		return xs
	}
	var rs []*Rule
	for i := 0; i < 2000; i++ {
		rs = append(rs, &Rule{Body: randomSet(1+rng.Intn(3), 600), BodyCount: 10, HitCount: 1 + rng.Intn(10), Profit: float64(rng.Intn(50)), Order: i})
	}
	m := NewMatcher(rs)
	for q := 0; q < 3000; q++ {
		n := 1 + rng.Intn(12)
		if q%10 == 0 {
			n = 100 + rng.Intn(300)
		}
		xs := randomSet(n, 600)
		var want *Rule
		for _, r := range rs {
			if isSubset(r.Body, xs) && (want == nil || Outranks(r, want)) {
				want = r
			}
		}
		if got := m.Best(xs); got != want {
			t.Fatalf("query %d (%d elements): Best = %v, want %v", q, len(xs), got, want)
		}
	}
}

// isSubset reports whether sorted a is a subset of sorted b.
func isSubset(a, b []hierarchy.GenID) bool {
	j := 0
	for _, g := range a {
		for j < len(b) && b[j] < g {
			j++
		}
		if j == len(b) || b[j] != g {
			return false
		}
		j++
	}
	return true
}
