// Package rules defines recommendation rules and their profit-mining
// measures (Definitions 4–6 of the paper): support, confidence, rule
// profit Prof_ru, recommendation profit Prof_re, the most-profitable-first
// (MPF) rank order, the body-generalization relation between rules, and
// the removal of dominated rules that can never fire.
package rules

import (
	"fmt"
	"sort"
	"strings"

	"profitmining/internal/hierarchy"
)

// Rule is a recommendation rule {g1,…,gk} → ⟨I,P⟩. The body is a sorted
// antichain of generalized non-target sales; the head is an item-promo
// node of a target item. The measure fields are filled by the miner from
// the training transactions:
//
//   - BodyCount is N, the number of transactions the body matches — the
//     denominator of Prof_re (Definition 5).
//   - HitCount is the number of matched transactions whose target sale is
//     generalized by the head, i.e. the absolute support of G ∪ {g}.
//   - Profit is Prof_ru = Σ_t p(r, t) over matched transactions.
//   - Order is the generation order, the final MPF tie-break.
type Rule struct {
	Body []hierarchy.GenID
	Head hierarchy.GenID

	BodyCount int
	HitCount  int
	Profit    float64
	Order     int
}

// Supp returns the relative support Supp(G ∪ {g}) given the total number
// of training transactions.
func (r *Rule) Supp(total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(r.HitCount) / float64(total)
}

// Conf returns the confidence Supp(G∪{g})/Supp(G) = hits per body match.
func (r *Rule) Conf() float64 {
	if r.BodyCount == 0 {
		return 0
	}
	return float64(r.HitCount) / float64(r.BodyCount)
}

// ProfRe returns the recommendation profit Prof_re = Prof_ru / N: expected
// profit per time the rule fires. It factors in both the hit rate and the
// profit of the recommended promotion (Definition 5).
func (r *Rule) ProfRe() float64 {
	if r.BodyCount == 0 {
		return 0
	}
	return r.Profit / float64(r.BodyCount)
}

// IsDefault reports whether the rule is a default rule ∅ → g, which
// matches every customer.
func (r *Rule) IsDefault() bool { return len(r.Body) == 0 }

// String renders the rule with its measures using the space's node names.
func (r *Rule) String(s *hierarchy.Space) string {
	var b strings.Builder
	b.WriteString("{")
	for i, g := range r.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.Name(g))
	}
	fmt.Fprintf(&b, "} → %s  [N=%d hits=%d prof_ru=%.4g prof_re=%.4g conf=%.3f]",
		s.Name(r.Head), r.BodyCount, r.HitCount, r.Profit, r.ProfRe(), r.Conf())
	return b.String()
}

// Outranks reports whether a is ranked strictly higher than b under the
// MPF order of Definition 6: greater recommendation profit, then greater
// support, then smaller body, then earlier generation.
func Outranks(a, b *Rule) bool {
	ap, bp := a.ProfRe(), b.ProfRe()
	if ap != bp { //lint:allow floatcmp -- rank comparators need exact comparison: epsilon-equality is not transitive and would break the strict weak order
		return ap > bp
	}
	if a.HitCount != b.HitCount {
		return a.HitCount > b.HitCount
	}
	if len(a.Body) != len(b.Body) {
		return len(a.Body) < len(b.Body)
	}
	return a.Order < b.Order
}

// SortByRank sorts rules in place from highest to lowest MPF rank. The
// order is total because Order is unique per rule. Rank keys are
// precomputed: with hundreds of thousands of mined rules, recomputing
// ProfRe in the comparator dominated model-building profiles.
func SortByRank(rs []*Rule) {
	type entry struct {
		r      *Rule
		profRe float64
	}
	entries := make([]entry, len(rs))
	for i, r := range rs {
		entries[i] = entry{r: r, profRe: r.ProfRe()}
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := &entries[i], &entries[j]
		if a.profRe != b.profRe { //lint:allow floatcmp -- must order exactly as Outranks does; see the comparator note there
			return a.profRe > b.profRe
		}
		if a.r.HitCount != b.r.HitCount {
			return a.r.HitCount > b.r.HitCount
		}
		if len(a.r.Body) != len(b.r.Body) {
			return len(a.r.Body) < len(b.r.Body)
		}
		return a.r.Order < b.r.Order
	})
	for i := range entries {
		rs[i] = entries[i].r
	}
}

// MoreGeneral reports whether a's body generalizes b's body (Section 4.1):
// every element of body(a) generalizes-or-equals some element of body(b).
// It is reflexive; a default rule is more general than everything.
func MoreGeneral(s *hierarchy.Space, a, b *Rule) bool {
	return s.SetGeneralizes(a.Body, b.Body)
}

// RemoveDominated drops every rule that is more special than and ranked
// lower than some other rule: such a rule can never be an MPF
// recommendation rule, because whatever it matches, the more general rule
// matches too and wins the rank comparison (Section 4.1). The surviving
// rules are returned in rank order. Heads play no role: domination is
// about which rule fires, not what it recommends.
//
// Walking in rank order, a rule is dominated iff some earlier (higher
// ranked) kept rule is more general — checking against kept rules only is
// sound because generality is transitive, so a removed dominator's own
// dominator also dominates the candidate. The check is a Matcher subset
// query over the candidate's body expansion, making the whole pass
// near-linear in the rule count.
func RemoveDominated(s *hierarchy.Space, rs []*Rule) []*Rule {
	ranked := append([]*Rule(nil), rs...)
	SortByRank(ranked)
	kept := make([]*Rule, 0, len(ranked))
	m := NewMatcher(nil)
	var buf []hierarchy.GenID
	for _, r := range ranked {
		buf = AppendExpandBody(s, r.Body, buf)
		if m.Any(buf) {
			continue
		}
		kept = append(kept, r)
		m.Insert(r)
	}
	return kept
}

// FilterInteresting keeps rules whose recommendation profit beats that of
// every strictly more general rule by at least the factor r — the
// R-interest idea of Srikant–Agrawal's generalized rule mining [SA95]
// carried over from support to Prof_re: a specialization that does not
// improve the per-recommendation profit of its generalizations carries no
// actionable information. Rules with no proper generalization (including
// the default rule) are always kept. r ≤ 1 keeps any improvement;
// typical values are 1.1–2.
func FilterInteresting(s *hierarchy.Space, rs []*Rule, r float64) []*Rule {
	m := NewMatcher(rs)
	var kept []*Rule
	for _, rule := range rs {
		bestGeneral := 0.0
		found := false
		m.MatchAll(ExpandBody(s, rule.Body), func(g *Rule) {
			if g == rule {
				return
			}
			found = true
			if pr := g.ProfRe(); pr > bestGeneral {
				bestGeneral = pr
			}
		})
		if !found || rule.ProfRe() >= r*bestGeneral {
			kept = append(kept, rule)
		}
	}
	return kept
}

// Matches reports whether the rule's body matches the expanded basket (as
// produced by Space.ExpandBasket). Default rules match everything.
func (r *Rule) Matches(s *hierarchy.Space, expanded []hierarchy.GenID) bool {
	return s.BodyMatches(r.Body, expanded)
}

// BodyKey returns a compact string key identifying the rule's body, for
// use in maps. Bodies are sorted, so the key is canonical.
func BodyKey(body []hierarchy.GenID) string {
	b := make([]byte, 4*len(body))
	for i, g := range body {
		b[4*i] = byte(g)
		b[4*i+1] = byte(g >> 8)
		b[4*i+2] = byte(g >> 16)
		b[4*i+3] = byte(g >> 24)
	}
	return string(b)
}
