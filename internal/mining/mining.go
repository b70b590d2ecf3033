// Package mining implements the rule-generation step of profit mining
// (Section 3.1): level-wise (Apriori-style) discovery of generalized
// association rules {g1,…,gk} → ⟨I,P⟩ over MOA(H), following the
// multi-level mining of [SA95, HF95] specialised to single-head rules
// over target item/promotion pairs.
//
// Transactions are first expanded to their generalized sales (ancestors in
// MOA(H)); rule bodies are antichains of generalized non-target sales and
// are mined level-wise with support-based pruning. Because the number of
// possible heads is small (target items × promotion codes), each frequent
// body carries a dense per-head accumulator of hits and generated profit
// p(r, t), which yields every measure of Definition 5: support,
// confidence, rule profit and recommendation profit.
//
// Counting is vertical. Each counted singleton has a bitset of the
// transactions that contain it. Level 1 and level 2 count into dense
// integer arrays (per generalized sale, then per pair of frequent
// singletons); level k ≥ 3 counts a candidate by AND + popcount of its
// prefix's bitset and its last element's. A body's head statistics walk
// its bitset one par.ShardSize-transaction shard at a time: each shard's
// partial is summed from zero in transaction order and the partials are
// added in ascending shard order. Candidates are counted in parallel, but
// every candidate's float sums stay on one goroutine in that fixed order,
// so the result does not depend on the worker count.
//
// Only rules that can fire are allocated. A rule that a rule of its own
// target item outranks and generalizes is dominated (Section 4.1): it
// can fire neither as the MPF answer nor as its item's top-K alternate.
// Each frequent body keeps at most its best head per target item, and
// that head only if neither the default rule nor a rule of its item kept
// at a lower level dominates it. Every rule passing the thresholds is
// still counted (Result.Generated) and numbered (Rule.Order), so the
// kept rules carry exactly the orders an exhaustive run gives them.
// Dominators of the same length with another body, and the longer ones a
// multi-parent hierarchy allows, are left to core's exact filters.
package mining

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"profitmining/internal/hierarchy"
	"profitmining/internal/model"
	"profitmining/internal/par"
	"profitmining/internal/rules"
)

// Options configures rule generation. The zero value is not valid: a
// minimum support (or a minimum rule profit, Section 3.1) must be given.
type Options struct {
	// MinSupport is the minimum relative support of a rule (fraction of
	// transactions matched by body and head), e.g. 0.001 for 0.1%.
	// Ignored if MinSupportCount is set.
	MinSupport float64
	// MinSupportCount is the absolute form of MinSupport.
	MinSupportCount int

	// MinRuleProfit, when positive, requires Prof_ru(r) ≥ MinRuleProfit.
	// If no minimum support is given it also drives search-space pruning,
	// which is sound when all target items have non-negative profit
	// (Section 3.1); Mine returns an error otherwise.
	MinRuleProfit float64

	// MinConfidence, when positive, requires Conf(r) ≥ MinConfidence —
	// one of the optional worth thresholds of Definition 5. Unlike
	// support it is not anti-monotone, so it filters emitted rules
	// without pruning the search space.
	MinConfidence float64

	// MaxBodyLen bounds the number of generalized sales in a rule body
	// (default 3).
	MaxBodyLen int

	// BinaryProfit replaces p(r,t) with 1 on a hit and 0 otherwise,
	// turning profit-driven mining into confidence-driven mining — the
	// CONF±MOA baselines of Section 5.1.
	BinaryProfit bool

	// Quantity estimates the purchase quantity at the recommended
	// promotion code (default model.SavingMOA).
	Quantity model.QuantityModel

	// Parallelism caps the number of worker goroutines used to expand
	// transactions and to count candidates. 0 (the default) uses one
	// worker per available CPU; 1 runs strictly serial. Every setting
	// yields byte-identical results: workers split the candidates, not
	// the transactions, and each candidate's head statistics are summed
	// on one goroutine in a fixed order (per par.ShardSize shard in
	// transaction order, then the shard partials in ascending shard
	// order), so the floating-point profit additions never depend on the
	// schedule. When Parallelism != 1, Quantity must be safe for
	// concurrent use (the built-in models are: they are stateless).
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.MaxBodyLen == 0 {
		o.MaxBodyLen = 3
	}
	if o.Quantity == nil {
		o.Quantity = model.SavingMOA{}
	}
	return o
}

// Result is the outcome of rule generation.
type Result struct {
	// Rules are the generated rules that can fire, in generation order,
	// not including the default rule. A rule passing the thresholds is
	// left out when the default rule, a rule of its own body, or a rule of
	// a shorter body outranks it and generalizes its body, all of the same
	// target item: such a rule is dominated within its item and never
	// fires. The kept rules keep the Order an exhaustive run gives them.
	Rules []*rules.Rule
	// Generated counts every rule passing the thresholds, kept in Rules
	// or left out; the default rule is not counted.
	Generated int
	// Default is the default rule ∅ → g with the maximum recommendation
	// profit (Section 3.1). Its Order is after all generated rules.
	Default *rules.Rule

	// NumTransactions is the number of training transactions.
	NumTransactions int
	// MinSupportCount is the resolved absolute support threshold (0 when
	// mining is driven purely by MinRuleProfit).
	MinSupportCount int
	// FrequentBodies counts frequent bodies per level (index 0 = level 1).
	FrequentBodies []int
	// CandidateBodies counts candidate bodies per level.
	CandidateBodies []int
}

// headStat accumulates per-head counts for one candidate body. fires
// marks the head whose rule can fire; emitRules allocates only those.
type headStat struct {
	hits   int32
	fires  bool
	profit float64
}

// txnData is a transaction pre-expanded for counting.
type txnData struct {
	items      []hierarchy.GenID // expanded non-target sales, sorted
	heads      []int32           // indexes into Space.AllHeads() that hit this txn
	headProfit []float64         // p(r,t) for each of heads
}

// Mine generates the rule set R of Section 3.1 from the training
// transactions.
func Mine(space *hierarchy.Space, txns []model.Transaction, opts Options) (*Result, error) {
	m, err := newMiner(space, opts, len(txns))
	if err != nil {
		return nil, err
	}
	m.prepare(txns)
	return m.run(), nil
}

// resolveMinCount turns the relative support threshold into an absolute
// transaction count for a window of the given size: the least count c
// with c/numTxns ≥ MinSupport, in the division Rule.Supp uses, so a rule
// exactly at the threshold is mined. (The product MinSupport × numTxns
// can round up past an integer: 0.07 × 100 is 7.000000000000001.) 0
// means mining is driven purely by MinRuleProfit.
func resolveMinCount(opts Options, numTxns int) int {
	if opts.MinSupportCount != 0 || opts.MinSupport <= 0 {
		return opts.MinSupportCount
	}
	n := float64(numTxns)
	c := int(math.Ceil(opts.MinSupport * n))
	for c > 1 && float64(c-1)/n >= opts.MinSupport {
		c--
	}
	for float64(c)/n < opts.MinSupport {
		c++
	}
	return max(c, 1)
}

// newMiner validates the options against a window of numTxns transactions
// and builds a miner ready for prepare + run. Shared by the batch Mine
// entry point and the windowed Stream.
func newMiner(space *hierarchy.Space, opts Options, numTxns int) (*miner, error) {
	opts = opts.withDefaults()
	if numTxns == 0 {
		return nil, fmt.Errorf("mining: no transactions")
	}
	if opts.MinSupport < 0 || opts.MinSupport > 1 {
		return nil, fmt.Errorf("mining: MinSupport %g outside [0,1]", opts.MinSupport)
	}
	if opts.MinSupportCount < 0 {
		return nil, fmt.Errorf("mining: negative MinSupportCount %d", opts.MinSupportCount)
	}
	if opts.MaxBodyLen < 1 {
		return nil, fmt.Errorf("mining: MaxBodyLen %d must be at least 1", opts.MaxBodyLen)
	}
	if opts.MinConfidence < 0 || opts.MinConfidence > 1 {
		return nil, fmt.Errorf("mining: MinConfidence %g outside [0,1]", opts.MinConfidence)
	}
	if opts.Parallelism < 0 {
		return nil, fmt.Errorf("mining: negative Parallelism %d", opts.Parallelism)
	}

	minCount := resolveMinCount(opts, numTxns)
	profitPruning := false
	if minCount == 0 {
		if opts.MinRuleProfit <= 0 {
			return nil, fmt.Errorf("mining: either a minimum support or a minimum rule profit is required")
		}
		// Support-free pruning by rule profit is only anti-monotone when
		// profits cannot be negative (Section 3.1).
		cat := space.Catalog()
		for _, h := range space.AllHeads() {
			if cat.Promo(space.PromoOf(h)).Profit() < 0 {
				return nil, fmt.Errorf("mining: profit-only pruning requires non-negative target profits (head %s has negative profit)", space.Name(h))
			}
		}
		profitPruning = true
	}

	heads := space.AllHeads()
	if len(heads) == 0 {
		return nil, fmt.Errorf("mining: catalog has no target promotion codes")
	}
	headIdx := make(map[hierarchy.GenID]int32, len(heads))
	headItem := make([]int32, len(heads))
	itemIdx := make(map[model.ItemID]int32)
	for i, h := range heads {
		headIdx[h] = int32(i)
		it, ok := itemIdx[space.ItemOf(h)]
		if !ok {
			it = int32(len(itemIdx))
			itemIdx[space.ItemOf(h)] = it
		}
		headItem[i] = it
	}

	return &miner{
		space:         space,
		opts:          opts,
		minCount:      minCount,
		profitPruning: profitPruning,
		heads:         heads,
		headIdx:       headIdx,
		headItem:      headItem,
		numItems:      len(itemIdx),
		workers:       par.Workers(opts.Parallelism),
	}, nil
}

type miner struct {
	space         *hierarchy.Space
	opts          Options
	minCount      int
	profitPruning bool

	heads    []hierarchy.GenID
	headIdx  map[hierarchy.GenID]int32
	headItem []int32 // dense target-item index of each head
	numItems int     // number of target items
	workers  int

	// exhaustive allocates every rule passing the thresholds; only the
	// package's tests set it, as the reference the pruning is checked
	// against.
	exhaustive bool

	txns      []txnData
	orderNext int

	// The vertical layout of the window, built by run for one mine and
	// dropped when it returns. bits[g] is the transaction bitset of the
	// counted singleton g (nil for every other generalized sale), words
	// the length of every bitset, and withHeads the transactions with at
	// least one head hit — the only ones head statistics visit.
	bits      [][]uint64
	words     int
	withHeads []uint64
	scratch   *sync.Pool // of *countScratch sized for this window

	// dominators[i] is a sealed matcher over target item i's rules kept so
	// far, the default rule among them if it is item i's (nil when there
	// are none). sealDominators rebuilds them serially before a level is
	// counted; the counting workers only read them.
	dominators []*rules.Matcher

	result Result
}

// countScratch is one counting task's working memory: the AND of a
// prefix's singleton bitsets, one shard's head partials, the best head
// per target item (-1 for none) and a body's expansion.
type countScratch struct {
	prefix []uint64
	row    []headStat
	best   []int32
	exp    []hierarchy.GenID
}

// prepare expands every transaction once: its generalized basket and its
// per-head hit profits. Expansions are independent per transaction (the
// space and catalog are immutable), so they fan out across the workers;
// each worker writes only its own txnData slots.
func (m *miner) prepare(txns []model.Transaction) {
	m.txns = make([]txnData, len(txns))
	par.For(m.workers, len(txns), func(i int) {
		m.expandTxn(&txns[i], &m.txns[i])
	})
}

// expandTxn expands one transaction into its counting form. Safe to call
// concurrently for distinct td slots: the space and catalog are immutable.
func (m *miner) expandTxn(t *model.Transaction, td *txnData) {
	cat := m.space.Catalog()
	td.items = m.space.ExpandBasket(t.NonTarget)
	hitHeads := m.space.HeadsOf(t.Target)
	td.heads = make([]int32, len(hitHeads))
	td.headProfit = make([]float64, len(hitHeads))
	recorded := cat.Promo(t.Target.Promo)
	for j, h := range hitHeads {
		td.heads[j] = m.headIdx[h]
		if m.opts.BinaryProfit {
			td.headProfit[j] = 1
			continue
		}
		rec := cat.Promo(m.space.PromoOf(h))
		qty := m.opts.Quantity.Quantity(rec, recorded, t.Target.Qty)
		td.headProfit[j] = rec.Profit() * qty
	}
}

// run mines the prepared window level by level and returns the result.
func (m *miner) run() *Result {
	m.result = Result{NumTransactions: len(m.txns), MinSupportCount: m.minCount}
	m.orderNext = 0
	m.words = (len(m.txns) + 63) / 64
	m.scratch = &sync.Pool{New: func() any {
		best := make([]int32, m.numItems)
		for i := range best {
			best[i] = -1
		}
		return &countScratch{prefix: make([]uint64, m.words), row: make([]headStat, len(m.heads)), best: best}
	}}
	defer func() { m.bits, m.withHeads, m.scratch, m.dominators = nil, nil, nil, nil }()

	m.emitDefault()
	m.sealDominators()

	frequent := m.level1()
	for k := 2; ; k++ {
		m.result.FrequentBodies = append(m.result.FrequentBodies, len(frequent))
		m.emitRules(frequent)
		if k > m.opts.MaxBodyLen || len(frequent) < 2 {
			break
		}
		m.sealDominators()
		var pairs *pairCounts
		if k == 2 {
			pairs = m.countPairs(frequent)
		}
		next, candidates := m.extend(frequent, pairs)
		if candidates == 0 {
			break
		}
		m.result.CandidateBodies = append(m.result.CandidateBodies, candidates)
		frequent = next
	}

	// The default rule's order must be after all generated rules so that
	// every generated rule outranks it on ties; it was emitted first only
	// to reserve its statistics. Re-number it last.
	m.result.Default.Order = m.orderNext
	m.orderNext++
	res := m.result
	return &res
}

// candidate is one counted body.
type candidate struct {
	items []hierarchy.GenID
	count int
	stats []headStat // dense, indexed by head index; nil when no head hit
}

// counted is the smallest body count that can matter: the support
// threshold, or under profit-only pruning any body with a match (a body
// never matched has no head statistics to keep it).
func (m *miner) counted() int {
	return max(m.minCount, 1)
}

// keep reports whether a counted body can still yield or extend to a
// rule: body support at least the threshold, or (under profit-only
// pruning) some head profit at least the threshold.
func (m *miner) keep(c *candidate) bool {
	if m.minCount > 0 {
		return c.count >= m.minCount
	}
	// Profit pruning: Prof_ru is anti-monotone in the body when all
	// profits are non-negative, so the max head profit bounds every
	// extension.
	for h := range c.stats {
		if c.stats[h].profit >= m.opts.MinRuleProfit {
			return true
		}
	}
	return false
}

// level1 counts every body candidate of the space into a dense array
// indexed by generalized sale, builds the transaction bitsets of the
// singletons that reach the counted threshold, and returns the frequent
// singletons in ascending order with their head statistics.
func (m *miner) level1() []*candidate {
	bcs := m.space.BodyCandidates()
	if len(bcs) > 0 {
		m.result.CandidateBodies = append(m.result.CandidateBodies, len(bcs))
	}
	counts := make([]int32, m.space.NumNodes())
	for i := range m.txns {
		for _, g := range m.txns[i].items {
			counts[g]++
		}
	}
	var cands []*candidate
	for _, g := range bcs {
		if n := int(counts[g]); n >= m.counted() {
			cands = append(cands, &candidate{items: []hierarchy.GenID{g}, count: n})
		}
	}

	m.bits = make([][]uint64, m.space.NumNodes())
	store := make([]uint64, len(cands)*m.words)
	for i, c := range cands {
		m.bits[c.items[0]] = store[i*m.words : (i+1)*m.words : (i+1)*m.words]
	}
	m.withHeads = make([]uint64, m.words)
	for t := range m.txns {
		w, bit := t>>6, uint64(1)<<(t&63)
		if len(m.txns[t].heads) > 0 {
			m.withHeads[w] |= bit
		}
		for _, g := range m.txns[t].items {
			if b := m.bits[g]; b != nil {
				b[w] |= bit
			}
		}
	}

	par.For(m.workers, len(cands), func(i int) {
		sc := m.scratch.Get().(*countScratch)
		c := cands[i]
		c.stats = m.headStats(m.bits[c.items[0]], nil, sc.row)
		if m.keep(c) {
			m.markFiring(c, sc)
		}
		m.scratch.Put(sc)
	})
	frequent := cands[:0]
	for _, c := range cands {
		if m.keep(c) {
			frequent = append(frequent, c)
		}
	}
	return frequent
}

// pairCounts holds the support of every pair of frequent singletons in
// a dense upper-triangular array, indexed by the singletons' positions
// in the frequent list.
type pairCounts struct {
	n      int
	counts []int32
}

// at returns the count of the pair of frequent singletons i < j.
func (p *pairCounts) at(i, j int) int {
	return int(p.counts[i*(2*p.n-i-1)/2+j-i-1])
}

// countPairs counts every pair of frequent singletons by one walk over
// the transactions. The counts are integers, so one serial pass is
// exact; it is a small share of a mine.
func (m *miner) countPairs(freq1 []*candidate) *pairCounts {
	n := len(freq1)
	pos := make([]int32, m.space.NumNodes())
	for i := range pos {
		pos[i] = -1
	}
	for i, c := range freq1 {
		pos[c.items[0]] = int32(i)
	}
	p := &pairCounts{n: n, counts: make([]int32, n*(n-1)/2)}
	var in []int
	for t := range m.txns {
		// Items are sorted and frequent positions ascend with GenID, so
		// in is ascending too.
		in = in[:0]
		for _, g := range m.txns[t].items {
			if i := pos[g]; i >= 0 {
				in = append(in, int(i))
			}
		}
		for a, i := range in {
			base := i*(2*n-i-1)/2 - i - 1 // pair (i, j) sits at base+j
			for _, j := range in[a+1:] {
				p.counts[base+j]++
			}
		}
	}
	return p
}

// extend counts level k+1 from the frequent k-bodies, lexicographically
// sorted. A candidate joins two frequent k-bodies sharing their first
// k−1 elements, provided the two last elements are incomparable (bodies
// are antichains, Definition 4) and every k-subset is frequent (the
// Apriori condition, checked against a trie of the frequent bodies). At
// level 2 counts come from pairs; deeper, from AND + popcount of the
// prefix's bitset and the last element's. Candidates reaching the
// counted threshold get head statistics. Workers split the frequent
// prefixes; each prefix's candidates are counted on one goroutine and
// the groups are concatenated in prefix order, so the frequent (k+1)-
// bodies come back in lexicographic order, with the number of
// candidates counted.
func (m *miner) extend(frequent []*candidate, pairs *pairCounts) ([]*candidate, int) {
	k := len(frequent[0].items)
	var freqTrie *trieNode
	if k >= 2 {
		freqTrie = buildBodyTrie(frequent) // for the subset checks
	}
	type group struct {
		candidates int
		frequent   []*candidate
	}
	groups := make([]group, len(frequent))
	par.For(m.workers, len(frequent), func(i int) {
		sc := m.scratch.Get().(*countScratch)
		g := &groups[i]
		g.candidates, g.frequent = m.extendPrefix(frequent, i, freqTrie, pairs, sc)
		m.scratch.Put(sc)
	})
	var next []*candidate
	candidates := 0
	for _, g := range groups {
		candidates += g.candidates
		next = append(next, g.frequent...)
	}
	return next, candidates
}

// extendPrefix counts the candidates joining frequent[i] with a later
// frequent body of the same (k−1)-prefix.
func (m *miner) extendPrefix(frequent []*candidate, i int, freqTrie *trieNode, pairs *pairCounts, sc *countScratch) (int, []*candidate) {
	a := frequent[i]
	k := len(a.items)
	prefix := m.bits[a.items[0]]
	if k > 1 {
		prefix = sc.prefix
		copy(prefix, m.bits[a.items[0]])
		for _, g := range a.items[1:] {
			b := m.bits[g]
			for w := range prefix {
				prefix[w] &= b[w]
			}
		}
	}
	join := make([]hierarchy.GenID, k+1) // scratch: the joined body
	sub := make([]hierarchy.GenID, k)    // scratch: one subset of it
	copy(join, a.items)

	candidates := 0
	var out []*candidate
	for j := i + 1; j < len(frequent); j++ {
		b := frequent[j]
		if !samePrefix(a.items, b.items, k-1) {
			break // frequent is lexicographically sorted
		}
		x, y := a.items[k-1], b.items[k-1]
		// x < y by lexicographic order of the frequent list.
		if m.space.Comparable(x, y) {
			continue // bodies must be antichains (Definition 4)
		}
		join[k] = y
		if k >= 2 && !m.allSubsetsFrequent(join, sub, freqTrie) {
			continue
		}
		candidates++
		last := m.bits[y]
		var count int
		if pairs != nil {
			count = pairs.at(i, j)
		} else {
			for w, x := range prefix {
				count += bits.OnesCount64(x & last[w])
			}
		}
		if count < m.counted() {
			continue
		}
		c := &candidate{count: count, stats: m.headStats(prefix, last, sc.row)}
		if !m.keep(c) {
			continue
		}
		c.items = append([]hierarchy.GenID(nil), join...)
		m.markFiring(c, sc)
		out = append(out, c)
	}
	return candidates, out
}

// shardWords is the number of bitset words per counting shard.
const shardWords = par.ShardSize / 64

// headStats returns the per-head hits and profit of the body whose
// transactions are body AND last (last nil: body alone), or nil when no
// such transaction has a head hit. The sum order is fixed: each
// par.ShardSize shard accumulates its partial from zero in transaction
// order, and a shard with at least one hit adds its whole partial row in
// ascending shard order. row is zeroed scratch of one entry per head,
// and is left zeroed.
func (m *miner) headStats(body, last []uint64, row []headStat) []headStat {
	var stats []headStat
	for lo := 0; lo < m.words; lo += shardWords {
		hi := min(lo+shardWords, m.words)
		hit := false
		for w := lo; w < hi; w++ {
			x := body[w] & m.withHeads[w]
			if last != nil {
				x &= last[w]
			}
			for ; x != 0; x &= x - 1 {
				td := &m.txns[w<<6|bits.TrailingZeros64(x)]
				for j, h := range td.heads {
					row[h].hits++
					row[h].profit += td.headProfit[j]
				}
				hit = true
			}
		}
		if !hit {
			continue
		}
		if stats == nil {
			stats = make([]headStat, len(row))
		}
		for h := range row {
			stats[h].hits += row[h].hits
			stats[h].profit += row[h].profit
			row[h] = headStat{}
		}
	}
	return stats
}

// emitDefault computes the default rule ∅ → g maximizing Prof_re over all
// heads (body matches every transaction), breaking profit ties by hits.
// Its statistics sum serially, in transaction order.
func (m *miner) emitDefault() {
	stats := make([]headStat, len(m.heads))
	for i := range m.txns {
		td := &m.txns[i]
		for j, h := range td.heads {
			stats[h].hits++
			stats[h].profit += td.headProfit[j]
		}
	}
	best := 0
	for h := 1; h < len(stats); h++ {
		if stats[h].profit > stats[best].profit ||
			//lint:allow floatcmp -- argmax tie-break: an epsilon tie would make the winner depend on the tolerance rather than on hits
			(stats[h].profit == stats[best].profit && stats[h].hits > stats[best].hits) {
			best = h
		}
	}
	m.result.Default = &rules.Rule{
		Head:      m.heads[best],
		BodyCount: len(m.txns),
		HitCount:  int(stats[best].hits),
		Profit:    stats[best].profit,
		Order:     m.orderNext,
	}
	m.orderNext++
}

// trieNode is a node of the prefix trie of a level's frequent bodies,
// which the Apriori subset check searches. Children are sorted by item.
type trieNode struct {
	item     hierarchy.GenID
	children []*trieNode
	cand     *candidate
}

// buildBodyTrie builds the prefix trie of a list of bodies. They must be
// in lexicographic order of their items, so the trie can be built by
// sequential insertion.
func buildBodyTrie(cands []*candidate) *trieNode {
	root := &trieNode{}
	for _, c := range cands {
		node := root
		for _, g := range c.items {
			n := len(node.children)
			if n > 0 && node.children[n-1].item == g {
				node = node.children[n-1]
				continue
			}
			child := &trieNode{item: g}
			node.children = append(node.children, child)
			node = child
		}
		node.cand = c
	}
	return root
}

// emits reports whether a head's statistics over a body of count
// matches pass the emission thresholds. Support and confidence are
// tested in the divisions Rule.Supp and Rule.Conf use.
func (m *miner) emits(st *headStat, count int) bool {
	switch {
	case st.hits == 0:
		return false
	case m.minCount > 0 && int(st.hits) < m.minCount:
		return false
	case m.opts.MinRuleProfit > 0 && st.profit < m.opts.MinRuleProfit:
		return false
	case m.opts.MinConfidence > 0 && float64(st.hits)/float64(count) < m.opts.MinConfidence:
		return false
	}
	return true
}

// headRule is the rule of body c and head h, with the head index as its
// order: within one body, heads are numbered in index order.
func (m *miner) headRule(c *candidate, h int) rules.Rule {
	return rules.Rule{
		Body:      c.items,
		Head:      m.heads[h],
		BodyCount: c.count,
		HitCount:  int(c.stats[h].hits),
		Profit:    c.stats[h].profit,
		Order:     h,
	}
}

// markFiring marks the heads of a frequent body whose rules can fire.
// Among the heads passing the emission thresholds it takes the best per
// target item by rules.Outranks; the others are dominated by it. It
// marks that head unless the best rule of its item in the dominators
// matcher whose body generalizes c's — the default rule or a rule kept
// at a lower level — outranks it. The matchers are sealed and only read
// here, so the marks do not depend on the schedule. Runs on a counting
// worker; it writes only c's own statistics. An exhaustive miner marks
// every head that passes the thresholds.
func (m *miner) markFiring(c *candidate, sc *countScratch) {
	if m.exhaustive {
		for h := range c.stats {
			c.stats[h].fires = m.emits(&c.stats[h], c.count)
		}
		return
	}
	best := sc.best
	for h := range c.stats {
		if !m.emits(&c.stats[h], c.count) {
			continue
		}
		it := m.headItem[h]
		if b := best[it]; b >= 0 {
			hr, br := m.headRule(c, h), m.headRule(c, int(b))
			if !rules.Outranks(&hr, &br) {
				continue
			}
		}
		best[it] = int32(h)
	}
	sc.exp = sc.exp[:0]
	for it, h := range best {
		if h < 0 {
			continue
		}
		best[it] = -1
		if d := m.dominators[it]; d != nil {
			if len(sc.exp) == 0 {
				sc.exp = rules.AppendExpandBody(m.space, c.items, sc.exp)
			}
			hr := m.headRule(c, int(h))
			if top := d.Best(sc.exp); top != nil && rules.Outranks(top, &hr) {
				continue
			}
		}
		c.stats[h].fires = true
	}
}

// emitRules numbers every rule of the frequent bodies that passes the
// emission thresholds and allocates those that can fire.
func (m *miner) emitRules(frequent []*candidate) {
	for _, c := range frequent {
		for h := range c.stats {
			st := &c.stats[h]
			if !m.emits(st, c.count) {
				continue
			}
			order := m.orderNext
			m.orderNext++
			m.result.Generated++
			if !st.fires {
				continue
			}
			body := make([]hierarchy.GenID, len(c.items))
			copy(body, c.items)
			m.result.Rules = append(m.result.Rules, &rules.Rule{
				Body:      body,
				Head:      m.heads[h],
				BodyCount: c.count,
				HitCount:  int(st.hits),
				Profit:    st.profit,
				Order:     order,
			})
		}
	}
}

// sealDominators rebuilds the dominators matchers from the default rule
// and the rules kept so far. It runs serially between levels, so the
// counting workers of the next level read a fixed set.
func (m *miner) sealDominators() {
	byItem := make([][]*rules.Rule, m.numItems)
	add := func(r *rules.Rule) {
		it := m.headItem[m.headIdx[r.Head]]
		byItem[it] = append(byItem[it], r)
	}
	add(m.result.Default)
	for _, r := range m.result.Rules {
		add(r)
	}
	m.dominators = make([]*rules.Matcher, m.numItems)
	for it, rs := range byItem {
		if len(rs) > 0 {
			m.dominators[it] = rules.NewMatcher(rs)
		}
	}
}

// allSubsetsFrequent checks the Apriori condition for the subsets that
// drop one of the first k−1 elements (dropping either of the last two
// yields the generating pair, which is frequent by construction).
func (m *miner) allSubsetsFrequent(items, sub []hierarchy.GenID, freq *trieNode) bool {
	n := len(items)
	for drop := 0; drop < n-2; drop++ {
		sub = sub[:0]
		for i, g := range items {
			if i != drop {
				sub = append(sub, g)
			}
		}
		if node := descend(freq, sub); node == nil || node.cand == nil {
			return false
		}
	}
	return true
}

// findChild binary-searches a node's sorted children for item g.
func findChild(ch []*trieNode, g hierarchy.GenID) *trieNode {
	lo, hi := 0, len(ch)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ch[mid].item < g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ch) && ch[lo].item == g {
		return ch[lo]
	}
	return nil
}

// descend follows items down the trie, returning the node at the end of
// the path or nil if the path is absent.
func descend(root *trieNode, items []hierarchy.GenID) *trieNode {
	node := root
	for _, g := range items {
		if node = findChild(node.children, g); node == nil {
			return nil
		}
	}
	return node
}

func samePrefix(a, b []hierarchy.GenID, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// AllRules returns the generated rules plus the default rule, in
// generation order (default last).
func (r *Result) AllRules() []*rules.Rule {
	out := make([]*rules.Rule, 0, len(r.Rules)+1)
	out = append(out, r.Rules...)
	out = append(out, r.Default)
	return out
}

// SortedByRank returns AllRules sorted by MPF rank.
func (r *Result) SortedByRank() []*rules.Rule {
	out := r.AllRules()
	rules.SortByRank(out)
	return out
}
