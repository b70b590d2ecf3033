package core

import (
	"fmt"
	"sort"
	"strings"

	"profitmining/internal/model"
)

// Report renders a human-readable summary of the model: size and
// depth, rule-length distribution, which target items the rules recommend
// and how much projected profit each carries, and how much of the
// training data falls through to the default rule. It is the
// interpretability surface of Requirement 5 at the model (rather than
// per-recommendation) level. The first three lines come from the sealed
// image; the per-target and default-rule sections need the covering
// tree, so a model opened from disk reports without them.
func (r *Recommender) Report() string {
	var b strings.Builder
	st := r.Stats()
	fmt.Fprintf(&b, "model: %d rules (mined %d, non-dominated %d), covering-tree depth %d\n",
		st.RulesFinal, st.RulesGenerated, st.RulesNonDominated, st.TreeDepth)
	fmt.Fprintf(&b, "projected profit on covered customers: %.2f\n", st.ProjectedProfit)

	// Rule-length distribution over the final rules, which lead the
	// image's rule table.
	rt := r.image.Rules()
	byLen := map[int]int{}
	maxLen := 0
	for i := 0; i < st.RulesFinal; i++ {
		l := int(rt.BodyLen(int32(i)))
		byLen[l]++
		if l > maxLen {
			maxLen = l
		}
	}
	b.WriteString("rules by body length:")
	for l := 0; l <= maxLen; l++ {
		if byLen[l] > 0 {
			fmt.Fprintf(&b, "  |body|=%d: %d", l, byLen[l])
		}
	}
	b.WriteString("\n")
	if r.tree == nil {
		return b.String()
	}

	// Per-target head distribution with projected profit.
	type headStat struct {
		rules     int
		projected float64
		cover     int
	}
	perItem := map[model.ItemID]*headStat{}
	var walk func(n *Node)
	walk = func(n *Node) {
		item := r.space.ItemOf(n.Rule.Head)
		hs := perItem[item]
		if hs == nil {
			hs = &headStat{}
			perItem[item] = hs
		}
		hs.rules++
		hs.projected += n.Projected
		hs.cover += len(n.Cover)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(r.tree)

	items := make([]model.ItemID, 0, len(perItem))
	//lint:allow detguard -- iteration order is discarded: items are sorted by the total order below
	for item := range perItem {
		items = append(items, item)
	}
	sort.Slice(items, func(i, j int) bool {
		// Tie-break on the item id: equal projected profits are common
		// (e.g. several targets with zero projection), and without a
		// total order the report would shuffle between runs because the
		// items were collected from a map.
		pi, pj := perItem[items[i]].projected, perItem[items[j]].projected
		if pi != pj { //lint:allow floatcmp -- sort comparators need exact comparison to stay strict weak orders
			return pi > pj
		}
		return items[i] < items[j]
	})
	b.WriteString("recommended targets (by projected profit):\n")
	cat := r.space.Catalog()
	for _, item := range items {
		hs := perItem[item]
		fmt.Fprintf(&b, "  %-20s %4d rules  cover %6d  projected %10.2f\n",
			cat.Item(item).Name, hs.rules, hs.cover, hs.projected)
	}

	// Default-rule reliance.
	var sumCover func(n *Node) int
	sumCover = func(n *Node) int {
		s := len(n.Cover)
		for _, c := range n.Children {
			s += sumCover(c)
		}
		return s
	}
	totalCover := sumCover(r.tree)
	if totalCover > 0 {
		fmt.Fprintf(&b, "default rule covers %d/%d training transactions (%.1f%%)\n",
			len(r.tree.Cover), totalCover, 100*float64(len(r.tree.Cover))/float64(totalCover))
	}
	return b.String()
}
