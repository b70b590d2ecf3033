package hierarchy

import (
	"slices"

	"profitmining/internal/model"
)

// Expansions is the pooled, offset-based form of the per-promotion sale
// expansions: the expansion of promo p occupies Pool[Off[p]:Off[p+1]],
// sorted ascending and excluding the root. Promo IDs are 1-based, so
// Off has NumPromos+2 entries and Off[0] == Off[1] == 0.
//
// The layout is shared between a compiled Space (which builds it) and a
// sealed arena model (which aliases it straight out of the image's
// bytes), so both serve baskets through the identical merge code below.
type Expansions struct {
	Off  []int32
	Pool []GenID
}

// PackExpansions pools per-promo expansion lists (indexed by 1-based
// promo ID; index 0 unused) into the offset form.
func PackExpansions(perPromo [][]GenID) Expansions {
	e := Expansions{Off: make([]int32, len(perPromo)+1)}
	total := 0
	for _, l := range perPromo {
		total += len(l)
	}
	e.Pool = make([]GenID, 0, total)
	for p, l := range perPromo {
		e.Off[p] = int32(len(e.Pool))
		e.Pool = append(e.Pool, l...)
		e.Off[p+1] = int32(len(e.Pool))
	}
	return e
}

// NumPromos returns the number of promotion codes covered.
func (e Expansions) NumPromos() int {
	if len(e.Off) < 2 {
		return 0
	}
	return len(e.Off) - 2
}

// Of returns the expansion of promo p. The returned slice must not be
// modified.
//
//hot:path
func (e Expansions) Of(p model.PromoID) []GenID {
	return e.Pool[e.Off[p]:e.Off[p+1]]
}

// maxMergeWays is the widest basket the cursor-based k-way merge of
// ExpandBasketInto handles with stack-resident cursors. Wider baskets
// fall back to gather-sort-dedup, which stays allocation-free as long
// as dst has capacity.
const maxMergeWays = 16

// ExpandBasketInto appends the sorted, deduplicated union of the
// basket's per-sale expansions into dst's backing storage — the serving
// hot path calls it once per request with a pooled buffer. Each
// ⟨item, promo⟩ leaf has a fixed, sorted ancestor expansion precomputed
// at space-compile (or model-seal) time, so expanding a basket is a
// k-way merge of k precomputed sorted lists: no per-call sort, no dedup
// pass, no allocation once dst has grown to a basket's steady-state
// size.
//
//hot:path
func (e Expansions) ExpandBasketInto(dst []GenID, sales []model.Sale) []GenID {
	dst = dst[:0]
	switch len(sales) {
	case 0:
		return dst
	case 1:
		return append(dst, e.Of(sales[0].Promo)...)
	}
	if len(sales) <= maxMergeWays {
		// k-way merge over the unconsumed suffixes of the k lists:
		// repeatedly emit the smallest head and advance every list
		// sitting on it (which also deduplicates — shared ancestors
		// appear in several lists). Exhausted lists are swap-removed so
		// k shrinks, and the final survivor is appended wholesale — the
		// common case once the per-item tails diverge.
		var lists [maxMergeWays][]GenID
		k := 0
		for i := range sales {
			if l := e.Of(sales[i].Promo); len(l) > 0 {
				lists[k] = l
				k++
			}
		}
		for k > 1 {
			if k == 2 {
				return merge2(dst, lists[0], lists[1])
			}
			min := lists[0][0]
			for i := 1; i < k; i++ {
				if h := lists[i][0]; h < min {
					min = h
				}
			}
			dst = append(dst, min)
			for i := 0; i < k; {
				if lists[i][0] == min {
					if lists[i] = lists[i][1:]; len(lists[i]) == 0 {
						k--
						lists[i] = lists[k]
						continue
					}
				}
				i++
			}
		}
		if k == 1 {
			dst = append(dst, lists[0]...)
		}
		return dst
	}
	// Gather, sort, dedup in place — still allocation-free given capacity.
	for _, sl := range sales {
		dst = append(dst, e.Of(sl.Promo)...)
	}
	slices.Sort(dst)
	w := 0
	for i, g := range dst {
		if i == 0 || g != dst[w-1] {
			dst[w] = g
			w++
		}
	}
	return dst[:w]
}

// merge2 appends the sorted-set union of two sorted lists to dst.
//
//hot:path
func merge2(dst []GenID, a, b []GenID) []GenID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}
