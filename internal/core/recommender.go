// Package core implements the paper's primary contribution: the MPF
// recommender over profit-sensitive generalized association rules and its
// cut-optimal pruning (Sections 3.2 and 4).
//
// Build takes the mined rule set R (see internal/mining), removes rules
// that can never fire, arranges the survivors into the covering tree of
// Definition 8, and prunes the tree bottom-up to the unique optimal cut
// of Definition 9, maximizing the pessimistically projected profit on
// future customers. The resulting Recommender answers Recommend queries
// by most-profitable-first rule selection (Definition 6).
//
// The miner already leaves out most rules that can never fire: those a
// rule of their own target item with a shorter or the same body
// dominates. Build's filters stay exact. RemoveDominated and the
// per-item alternates also remove the dominators the miner cannot see (a
// same-length body, or a longer one in a multi-parent hierarchy), and
// they keep exactly the rules they would keep from the exhaustive set: a
// chain of dominators within an item always ends at a rule the miner
// kept.
package core

import (
	"fmt"
	"strings"
	"sync"

	"profitmining/internal/arena"
	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
	"profitmining/internal/model"
	"profitmining/internal/par"
	"profitmining/internal/rules"
	"profitmining/internal/stats"
)

// Config controls recommender construction.
type Config struct {
	// CF is the confidence level of the pessimistic estimate U_CF
	// (default stats.DefaultCF = 0.25, as in C4.5).
	CF float64

	// Prune enables cut-optimal pruning. PruneOff keeps the full MPF
	// recommender of Section 3 (used by tests and ablations).
	Prune PruneMode

	// BinaryProfit must match the mining option: p(r,t) ∈ {0,1}. It makes
	// the projected profit a projected hit count (the CONF variants).
	BinaryProfit bool

	// Quantity must match the mining option (default model.SavingMOA).
	Quantity model.QuantityModel

	// MinInterest, when above 1, drops rules whose recommendation profit
	// does not beat every more general rule's by this factor before the
	// covering tree is built — the R-interest filter of [SA95] adapted to
	// Prof_re (see rules.FilterInteresting). 0 disables it.
	MinInterest float64

	// Parallelism bounds the worker pool used for covering-tree
	// construction (MPF cover assignment and per-node profit projection).
	// 0 (default) uses one worker per available CPU; 1 runs strictly
	// serial. Every setting yields byte-identical recommenders. When
	// Parallelism != 1, Quantity must be safe for concurrent use (the
	// built-in models are stateless).
	Parallelism int
}

// PruneMode selects whether Build prunes the covering tree.
type PruneMode int

const (
	// PruneCutOptimal applies the bottom-up optimal-cut pruning (default).
	PruneCutOptimal PruneMode = iota
	// PruneOff keeps every non-dominated rule.
	PruneOff
)

// BuildStats reports what construction did.
type BuildStats struct {
	// RulesGenerated counts the mined rules passing the thresholds, with
	// the default rule: mining.Result.Generated + 1. The miner allocates
	// only the rules that can fire, but counts every one.
	RulesGenerated    int
	RulesNonDominated int     // after removing rules that can never fire
	RulesFinal        int     // after cut-optimal pruning
	ProjectedProfit   float64 // Σ Prof_pr over the final tree
	TreeDepth         int
}

// Recommender is the built model: a pruned rule set with MPF selection.
// It is immutable and safe for concurrent use.
//
// Every recommender serves from its sealed arena image (modelio format
// v3): Build seals the model where it assembles it, and FromSealed
// wraps an image opened from disk. Every rule it reports (Rules,
// Alternates, Explain) is read off the image, so a built model and its
// sealed file opened from disk answer alike. A built recommender also
// keeps the two pieces of build output the image does not hold — the
// space, which names concepts, and the covering tree with its covers —
// for Report's per-target sections and modelio.Save; neither is on the
// serving path.
type Recommender struct {
	// Build output; both nil for an image opened from disk.
	space *hierarchy.Space
	tree  *Node

	// image is the sealed serving image; exp caches its expansion view
	// so the hot path does not re-derive it per call.
	image *arena.Model
	exp   hierarchy.Expansions

	// scratch pools the per-call working state of Recommend and
	// RecommendTopK, keyed per recommender because the dense
	// best-per-item table is sized to this model's catalog.
	scratch sync.Pool
}

// scratch is the reusable per-call state of the recommend hot path. All
// slices keep their backing storage between calls; best is a dense
// table indexed by model.ItemID (assigned from 1, so its length is
// NumItems+1) holding rule-table index+1 so the zero value means empty,
// and it is cleared back to zero via the touched list — O(touched), not
// O(items) — before the scratch is returned.
type scratch struct {
	expanded []hierarchy.GenID
	matches  []int32
	best     []int32
	touched  []model.ItemID
	rest     []int32
}

func (r *Recommender) getScratch() *scratch {
	return r.scratch.Get().(*scratch)
}

func (r *Recommender) putScratch(sc *scratch) {
	r.scratch.Put(sc)
}

// Recommendation is one recommended (target item, promotion code) pair
// together with the rule that produced it, for explanation (Requirement 5
// of Section 1.2; see Explain). ID is the fired rule's stable
// content-hash identity (rules.StableID): the join key an outcome report
// uses to find its way back to this exact rule, even after the serving
// model has been hot-swapped.
type Recommendation struct {
	Item  model.ItemID
	Promo model.PromoID
	ID    string

	// Idx is the fired rule's index in the image's rule table: the
	// serving layer writes that rule's pre-marshaled blob, and
	// Sealed().Rules() holds its measures and rendered string. It is -1
	// only when nothing matched, impossible for a valid model (the
	// default rule matches every basket).
	Idx int32
}

// Build constructs the recommender from mined rules over the same space
// and training transactions used for mining.
func Build(space *hierarchy.Space, txns []model.Transaction, mined *mining.Result, cfg Config) (*Recommender, error) {
	if space == nil || mined == nil || mined.Default == nil {
		return nil, fmt.Errorf("core: nil space or mining result")
	}
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	workers := par.Workers(cfg.Parallelism)

	all := mined.AllRules()
	filtered := all
	if cfg.MinInterest > 1 {
		filtered = rules.FilterInteresting(space, all, cfg.MinInterest)
		// The default rule has no generalization so it always survives
		// the filter; the covering tree keeps its root.
	}
	kept := rules.RemoveDominated(space, filtered)

	root := buildCoveringTree(space, kept, txns, workers)
	eval := &pessimisticEvaluator{
		space:    space,
		txns:     txns,
		cf:       cfg.CF,
		binary:   cfg.BinaryProfit,
		quantity: cfg.Quantity,
	}
	// Own-cover projections are independent per node, so they fan out
	// over the pool; under PruneOff they are the final values, and under
	// cut-optimal pruning they seed the serial bottom-up traversal
	// (which only re-evaluates merged covers).
	projectTree(root, eval, workers)
	if cfg.Prune == PruneCutOptimal {
		pruneCutOptimal(root, eval)
	}

	final := collectRules(root)
	rules.SortByRank(final)

	alt := computeAlternates(space, all)

	return assemble(space, root, final, alt, mined.Generated+1, len(kept))
}

// normalized applies Config defaults and validates the explicit fields.
func (cfg Config) normalized() (Config, error) {
	if cfg.CF == 0 { //lint:allow floatcmp -- exact zero is the unset-field sentinel; any explicit CF is validated below
		cfg.CF = stats.DefaultCF
	}
	if cfg.CF <= 0 || cfg.CF >= 1 {
		return cfg, fmt.Errorf("core: CF %g outside (0,1)", cfg.CF)
	}
	if cfg.Quantity == nil {
		cfg.Quantity = model.SavingMOA{}
	}
	if cfg.Parallelism < 0 {
		return cfg, fmt.Errorf("core: negative Parallelism %d", cfg.Parallelism)
	}
	return cfg, nil
}

// computeAlternates derives the per-item alternate rules for top-K
// recommendation: within each target item's rules, the usual domination
// argument applies unchanged.
func computeAlternates(space *hierarchy.Space, all []*rules.Rule) []*rules.Rule {
	byItem := map[model.ItemID][]*rules.Rule{}
	for _, rule := range all {
		item := space.ItemOf(rule.Head)
		byItem[item] = append(byItem[item], rule)
	}
	var alt []*rules.Rule
	//lint:allow detguard -- group order is discarded: alt is re-sorted into the total MPF order below
	for _, group := range byItem {
		alt = append(alt, rules.RemoveDominated(space, group)...)
	}
	// Sort the concatenated groups back into rank order so the matcher
	// layout — and anything that serializes the alternates, such as
	// model persistence — is identical across runs.
	rules.SortByRank(alt)
	return alt
}

// assemble seals a built covering tree into the image the recommender
// serves from, keeping the space and tree as build output. final must
// be collectRules(root) in rank order; alt is the per-item alternate
// rule list in rank order. It is the exit of Build.
func assemble(space *hierarchy.Space, root *Node, final, alt []*rules.Rule, generated, nonDominated int) (*Recommender, error) {
	// NewMatcher always flattens, so both trie views exist.
	mainView, _ := rules.NewMatcher(final).TrieView()
	altm := rules.NewMatcher(alt)
	altView, _ := altm.TrieView()
	var altOrder []*rules.Rule
	altm.MatchAllRules(func(rule *rules.Rule) { altOrder = append(altOrder, rule) })

	st := BuildStats{
		RulesGenerated:    generated,
		RulesNonDominated: nonDominated,
		RulesFinal:        len(final),
		ProjectedProfit:   treeProjected(root),
		TreeDepth:         depth(root),
	}
	data, err := seal(space, root, final, altOrder, mainView, altView, st)
	if err != nil {
		return nil, err
	}
	m, err := arena.OpenBytes(data)
	if err != nil {
		return nil, fmt.Errorf("core: sealed image fails to re-open: %w", err)
	}
	r := &Recommender{space: space, tree: root}
	r.serveFrom(m)
	return r, nil
}

// serveFrom points the recommender's serving path at image m.
func (r *Recommender) serveFrom(m *arena.Model) {
	r.image = m
	r.exp = m.Expansions()
	numItems := m.Meta().NumItems
	r.scratch.New = func() any {
		return &scratch{best: make([]int32, numItems+1)}
	}
}

// FromSealed wraps an opened sealed image as a Recommender. Nothing is
// decoded and nothing per-rule or per-item happens here, so
// construction is O(1) in model size (even the heap catalog stays
// unmaterialized until someone asks for it). The recommender has no
// build output and serves from the image's bytes, which it keeps
// reachable.
func FromSealed(m *arena.Model) (*Recommender, error) {
	if m == nil {
		return nil, fmt.Errorf("core: nil sealed model")
	}
	r := &Recommender{}
	r.serveFrom(m)
	return r, nil
}

// Sealed returns the image the recommender serves from. The serving
// layer writes pre-marshaled recommendation blobs straight from it, and
// its embedded digest (ContentHash) is the model's identity.
func (r *Recommender) Sealed() *arena.Model { return r.image }

// Catalog returns the catalog the recommender serves against: the
// catalog it was built over, or the image's lazily materialized one for
// an image opened from disk. Every serving path reaches an opened image
// through modelio's verified open, which materializes (or rejects) the
// catalog before the recommender escapes, so the error is already
// screened here; a nil return is only reachable on a recommender built
// around an unverified, corrupt image.
func (r *Recommender) Catalog() *model.Catalog {
	if r.space != nil {
		return r.space.Catalog()
	}
	cat, _ := r.image.Catalog() //lint:allow droppederr -- screened by modelio's verified open; see doc comment
	return cat
}

// Alternates returns the per-item alternate rules backing RecommendTopK,
// read off the image's alternates trie in pre-order, defaults first:
// the order modelio.Save exports them in. Rule bodies alias the image
// and must not be modified.
func (r *Recommender) Alternates() []rules.Rule {
	t, rt := r.image.Alternates(), r.image.Rules()
	out := make([]rules.Rule, 0, len(t.Defaults)+len(t.Rules))
	for _, i := range t.Defaults {
		out = append(out, ruleAt(rt, i))
	}
	var walk func(lo, hi int32)
	walk = func(lo, hi int32) {
		for n := lo; n < hi; n++ {
			for _, i := range t.Rules[t.RuleLo[n]:t.RuleHi[n]] {
				out = append(out, ruleAt(rt, i))
			}
			walk(t.ChildLo[n], t.ChildHi[n])
		}
	}
	walk(0, t.RootHi)
	return out
}

// ruleAt rebuilds rule-table entry i as the rules.Rule it was sealed
// from; the body aliases the image, and an empty body is nil, as the
// miner leaves the default rule's.
func ruleAt(rt *arena.RuleTable, i int32) rules.Rule {
	r := rules.Rule{
		Head:      rt.Head[i],
		BodyCount: int(rt.BodyCount[i]),
		HitCount:  int(rt.Hits[i]),
		Profit:    rt.Profit[i],
		Order:     int(rt.Order[i]),
	}
	if body := rt.Body(i); len(body) > 0 {
		r.Body = body[:len(body):len(body)]
	}
	return r
}

func depth(n *Node) int {
	d := 0
	for _, c := range n.Children {
		if cd := depth(c); cd > d {
			d = cd
		}
	}
	return d + 1
}

// Recommend returns the MPF recommendation for a basket of non-target
// sales: the highest-ranked matching rule's head. The default rule
// guarantees a recommendation for any basket.
//
// The steady-state path is allocation-free: basket expansion merges
// precomputed per-sale ancestor lists into a pooled buffer, and the
// trie walk over the image carries no per-call state.
//
//hot:path
func (r *Recommender) Recommend(basket model.Basket) Recommendation {
	sc := r.getScratch()
	sc.expanded = r.exp.ExpandBasketInto(sc.expanded, basket)
	rec := r.toRecommendation(r.best(sc.expanded))
	r.putScratch(sc)
	return rec
}

// RecommendTopK returns up to k recommendations for distinct target
// items — the paper's extension for recommending several target items per
// customer (Section 2). The first recommendation is always the plain MPF
// answer (identical to Recommend); further slots are filled with the best
// matching rule of each remaining target item, in rank order, drawn from
// the per-item non-dominated rule sets.
func (r *Recommender) RecommendTopK(basket model.Basket, k int) []Recommendation {
	if k <= 0 {
		return nil
	}
	return r.RecommendTopKInto(nil, basket, k)
}

// RecommendTopKInto is RecommendTopK appending into dst's backing
// storage — the serving hot path passes a pooled slice so a steady-state
// call allocates nothing. The result is identical to RecommendTopK.
//
//hot:path
func (r *Recommender) RecommendTopKInto(dst []Recommendation, basket model.Basket, k int) []Recommendation {
	dst = dst[:0]
	if k <= 0 {
		return dst
	}
	sc := r.getScratch()
	sc.expanded = r.exp.ExpandBasketInto(sc.expanded, basket)
	first := r.best(sc.expanded)
	dst = append(dst, r.toRecommendation(first))
	if k == 1 || first < 0 {
		r.putScratch(sc)
		return dst
	}

	// Best matching alternate per remaining target item, in the dense
	// table. The MPF winner's item is skipped during the scan — filling
	// its slot only to discard it afterwards would waste both the rank
	// comparisons and the table operation.
	rt := r.image.Rules()
	firstItem := rt.HeadItem[first]
	sc.matches = appendMatches(r.image.Alternates(), sc.matches[:0], sc.expanded)
	sc.touched = sc.touched[:0]
	for _, ri := range sc.matches {
		item := rt.HeadItem[ri]
		if item == firstItem {
			continue
		}
		if cur := sc.best[item]; cur == 0 {
			sc.best[item] = ri + 1
			sc.touched = append(sc.touched, model.ItemID(item))
		} else if rt.Outranks(ri, cur-1) {
			sc.best[item] = ri + 1
		}
	}
	sc.rest = sc.rest[:0]
	for _, item := range sc.touched {
		sc.rest = append(sc.rest, sc.best[item]-1)
		sc.best[item] = 0
	}
	sortRanked(rt, sc.rest)
	for _, ri := range sc.rest {
		dst = append(dst, r.toRecommendation(ri))
		if len(dst) == k {
			break
		}
	}
	r.putScratch(sc)
	return dst
}

// toRecommendation builds the Recommendation for rule-table index i. ID
// is a zero-copy string over the image's ID pool.
//
//hot:path
func (r *Recommender) toRecommendation(i int32) Recommendation {
	if i < 0 {
		return Recommendation{Idx: -1}
	}
	rt := r.image.Rules()
	return Recommendation{
		Item:  model.ItemID(rt.HeadItem[i]),
		Promo: model.PromoID(rt.HeadPromo[i]),
		ID:    rt.ID(i),
		Idx:   i,
	}
}

// Rules returns the final rules in MPF rank order, read off the image:
// the first Meta().NumFinal entries of its rule table. Rule bodies
// alias the image and must not be modified.
func (r *Recommender) Rules() []rules.Rule {
	rt := r.image.Rules()
	out := make([]rules.Rule, r.image.Meta().NumFinal)
	for i := range out {
		out[i] = ruleAt(rt, int32(i))
	}
	return out
}

// Stats returns construction statistics, as sealed into the image.
func (r *Recommender) Stats() BuildStats {
	meta := r.image.Meta()
	return BuildStats{
		RulesGenerated:    meta.Generated,
		RulesNonDominated: meta.NonDominated,
		RulesFinal:        meta.NumFinal,
		ProjectedProfit:   meta.ProjectedProfit,
		TreeDepth:         meta.TreeDepth,
	}
}

// Space returns the generalized-sale space the recommender was built
// over; nil for an image opened from disk.
func (r *Recommender) Space() *hierarchy.Space { return r.space }

// Tree returns the root of the (pruned) covering tree, for inspection and
// explanation; nil for an image opened from disk. The tree must not be
// modified.
func (r *Recommender) Tree() *Node { return r.tree }

// Explain renders the recommendation's rationale: the fired rule and its
// covering-tree lineage up to the default rule, as rendered at seal
// time. Rules outside the tree (per-item alternates from RecommendTopK)
// explain without a lineage.
func (r *Recommender) Explain(rec Recommendation) []string {
	if rec.Idx < 0 {
		return nil
	}
	return strings.Split(r.image.Rules().ExplainJoined(rec.Idx), "\n")
}
