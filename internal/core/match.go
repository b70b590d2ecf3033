package core

import (
	"profitmining/internal/arena"
	"profitmining/internal/hierarchy"
)

// best returns the table index of the highest-ranked rule of the
// image's matcher trie whose body is a subset of xs, or -1 (impossible
// for a valid model: the default rule matches every basket).
//
//hot:path
func (r *Recommender) best(xs []hierarchy.GenID) int32 {
	t := r.image.Trie()
	rt := r.image.Rules()
	best := int32(-1)
	for _, d := range t.Defaults {
		if best < 0 || rt.Outranks(d, best) {
			best = d
		}
	}
	return bestWalk(t, rt, 0, t.RootHi, xs, best)
}

// bestWalk is the two-pointer subset walk over one sibling block of
// the flattened trie, comparing table indices with the sealed rank
// columns.
//
//hot:path
func bestWalk(t *arena.Trie, rt *arena.RuleTable, lo, hi int32, xs []hierarchy.GenID, best int32) int32 {
	ni, xi := lo, 0
	for ni < hi && xi < len(xs) {
		switch {
		case t.Item[ni] < xs[xi]:
			ni++
		case t.Item[ni] > xs[xi]:
			xi++
		default:
			for ri := t.RuleLo[ni]; ri < t.RuleHi[ni]; ri++ {
				if cand := t.Rules[ri]; best < 0 || rt.Outranks(cand, best) {
					best = cand
				}
			}
			if t.ChildLo[ni] < t.ChildHi[ni] {
				best = bestWalk(t, rt, t.ChildLo[ni], t.ChildHi[ni], xs[xi+1:], best)
			}
			ni++
			xi++
		}
	}
	return best
}

// appendMatches appends the table index of every rule of trie t whose
// body is a subset of xs: defaults first, then the subset walk.
//
//hot:path
func appendMatches(t *arena.Trie, dst []int32, xs []hierarchy.GenID) []int32 {
	dst = append(dst, t.Defaults...)
	return appendWalk(t, 0, t.RootHi, xs, dst)
}

//hot:path
func appendWalk(t *arena.Trie, lo, hi int32, xs []hierarchy.GenID, dst []int32) []int32 {
	ni, xi := lo, 0
	for ni < hi && xi < len(xs) {
		switch {
		case t.Item[ni] < xs[xi]:
			ni++
		case t.Item[ni] > xs[xi]:
			xi++
		default:
			dst = append(dst, t.Rules[t.RuleLo[ni]:t.RuleHi[ni]]...)
			if t.ChildLo[ni] < t.ChildHi[ni] {
				dst = appendWalk(t, t.ChildLo[ni], t.ChildHi[ni], xs[xi+1:], dst)
			}
			ni++
			xi++
		}
	}
	return dst
}

// sortRanked sorts table indices into MPF rank order: a stable
// insertion sort under the total Outranks order. The rest list is one
// rule per distinct target item — small — so insertion sort beats an
// allocation-prone comparator sort here.
//
//hot:path
func sortRanked(rt *arena.RuleTable, v []int32) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && rt.Outranks(v[j], v[j-1]); j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
