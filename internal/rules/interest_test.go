package rules

import (
	"testing"

	"profitmining/internal/hierarchy"
)

func TestFilterInteresting(t *testing.T) {
	ts := newTestSpace(t)
	// general: {A} → t5, ProfRe 1.0.
	general := &Rule{Body: []hierarchy.GenID{ts.aN}, Head: ts.t5, BodyCount: 10, HitCount: 8, Profit: 10, Order: 0}
	// redundant specialization: {⟨A,$2⟩} → t5, ProfRe 1.05 (< 1.5×).
	redundant := &Rule{Body: []hierarchy.GenID{ts.a2}, Head: ts.t5, BodyCount: 4, HitCount: 3, Profit: 4.2, Order: 1}
	// interesting specialization: {⟨A,$1⟩} → t6, ProfRe 2.0 (≥ 1.5×).
	interesting := &Rule{Body: []hierarchy.GenID{ts.a1}, Head: ts.t6, BodyCount: 4, HitCount: 4, Profit: 8, Order: 2}
	// unrelated rule with no generalization in the set: kept.
	unrelated := &Rule{Body: []hierarchy.GenID{ts.b1}, Head: ts.t5, BodyCount: 5, HitCount: 1, Profit: 0.5, Order: 3}
	def := &Rule{Head: ts.t5, BodyCount: 20, HitCount: 9, Profit: 11, Order: 4} // ProfRe 0.55

	all := []*Rule{general, redundant, interesting, unrelated, def}
	kept := FilterInteresting(ts.s, all, 1.5)

	want := map[int]bool{0: true, 2: true, 4: true}
	// general survives? Its generalization is only the default (ProfRe
	// 0.55): 1.0 ≥ 1.5×0.55 = 0.825 ✓. unrelated: 0.1 < 1.5×0.55 → dropped.
	for _, r := range kept {
		if !want[r.Order] {
			t.Errorf("unexpected survivor Order=%d", r.Order)
		}
		delete(want, r.Order)
	}
	if len(want) != 0 {
		t.Errorf("missing survivors: %v", want)
	}
}

func TestFilterInterestingKeepsAllAtROne(t *testing.T) {
	ts := newTestSpace(t)
	// With r = 1, a rule is dropped only if strictly worse than a
	// generalization.
	general := &Rule{Body: []hierarchy.GenID{ts.aN}, Head: ts.t5, BodyCount: 10, HitCount: 5, Profit: 10, Order: 0}
	equal := &Rule{Body: []hierarchy.GenID{ts.a1}, Head: ts.t5, BodyCount: 5, HitCount: 3, Profit: 5, Order: 1}
	worse := &Rule{Body: []hierarchy.GenID{ts.a2}, Head: ts.t5, BodyCount: 5, HitCount: 2, Profit: 2.5, Order: 2}
	kept := FilterInteresting(ts.s, []*Rule{general, equal, worse}, 1)
	if len(kept) != 2 {
		t.Fatalf("kept %d rules, want 2 (equal ProfRe survives, worse dropped)", len(kept))
	}
}

func TestFilterInterestingNoGeneralizations(t *testing.T) {
	ts := newTestSpace(t)
	rs := []*Rule{
		{Body: []hierarchy.GenID{ts.a1}, Head: ts.t5, BodyCount: 5, HitCount: 1, Profit: 0.1, Order: 0},
		{Body: []hierarchy.GenID{ts.b1}, Head: ts.t6, BodyCount: 5, HitCount: 1, Profit: 0.1, Order: 1},
	}
	kept := FilterInteresting(ts.s, rs, 100)
	if len(kept) != 2 {
		t.Error("rules without generalizations must always survive")
	}
}

// TestFilterInterestingSiblingHeadsDoNotVeto checks that the other heads
// of a rule's own body are not counted as its generalizations: two heads
// of {A} that both beat the default rule by the factor both survive,
// though each is within the factor of the other.
func TestFilterInterestingSiblingHeadsDoNotVeto(t *testing.T) {
	ts := newTestSpace(t)
	t5 := &Rule{Body: []hierarchy.GenID{ts.aN}, Head: ts.t5, BodyCount: 10, HitCount: 5, Profit: 10, Order: 0} // ProfRe 1.0
	t6 := &Rule{Body: []hierarchy.GenID{ts.aN}, Head: ts.t6, BodyCount: 10, HitCount: 3, Profit: 9, Order: 1}  // ProfRe 0.9
	def := &Rule{Head: ts.t5, BodyCount: 20, HitCount: 2, Profit: 2, Order: 2}                                 // ProfRe 0.1
	kept := FilterInteresting(ts.s, []*Rule{t5, t6, def}, 1.5)
	if len(kept) != 3 {
		t.Fatalf("kept %d rules, want all 3: same-body heads are siblings, not generalizations", len(kept))
	}
}
