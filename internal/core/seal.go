package core

import (
	"encoding/json"
	"fmt"
	"strings"

	"profitmining/internal/arena"
	"profitmining/internal/hierarchy"
	"profitmining/internal/model"
	"profitmining/internal/rules"
)

// seal renders a built model into its sealed arena image (modelio
// format v3; see internal/arena for the byte layout) — the one
// representation every recommender serves from. The rule table lists
// the final rules in MPF rank order followed by the per-item alternates
// (alt, in matcher trie order) not already present: the exact set and
// order the serving layer enumerates. Every derived string and response
// blob is rendered here, once, so serving never re-derives them. It
// returns the image and the rule behind each rule-table index.
func seal(space *hierarchy.Space, root *Node, final, alt []*rules.Rule, mainView, altView rules.TrieView, st BuildStats) ([]byte, []*rules.Rule, error) {
	table := append([]*rules.Rule(nil), final...)
	idxOf := make(map[*rules.Rule]int32, len(final)+len(alt))
	for i, r := range final {
		idxOf[r] = int32(i)
	}
	for _, r := range alt {
		if _, dup := idxOf[r]; !dup {
			idxOf[r] = int32(len(table))
			table = append(table, r)
		}
	}

	w, err := arena.NewWriter()
	if err != nil {
		return nil, nil, err
	}
	cat := space.Catalog()
	sealCatalog(w, cat)
	exp := space.Expansions()
	w.PutI32(arena.SecExpOff, exp.Off)
	w.PutGen(arena.SecExpPool, exp.Pool)
	if err := sealRules(w, space, root, table, idxOf); err != nil {
		return nil, nil, err
	}
	if err := sealTrie(w, arena.SecTrieItem, mainView, idxOf); err != nil {
		return nil, nil, err
	}
	if err := sealTrie(w, arena.SecAltItem, altView, idxOf); err != nil {
		return nil, nil, err
	}
	w.SetMeta(arena.Meta{
		NumItems:        cat.NumItems(),
		NumPromos:       cat.NumPromos(),
		NumRules:        len(table),
		NumFinal:        len(final),
		Generated:       st.RulesGenerated,
		NonDominated:    st.RulesNonDominated,
		TreeDepth:       st.TreeDepth,
		MOA:             space.MOA(),
		ProjectedProfit: st.ProjectedProfit,
		TrieRootHi:      mainView.RootHi,
		AltRootHi:       altView.RootHi,
	})
	data, err := w.Finish()
	if err != nil {
		return nil, nil, err
	}
	return data, table, nil
}

// sealCatalog fills the catalog sections: names pooled with offsets,
// target flags, and per-promo owning item + economics in global promo
// ID order (which is exactly what arena's catalog materialization
// replays).
func sealCatalog(w *arena.Writer, cat *model.Catalog) {
	items := cat.Items()
	nameOff := make([]int32, len(items)+1)
	var namePool []byte
	targets := make([]byte, len(items))
	for i, it := range items {
		nameOff[i] = int32(len(namePool))
		namePool = append(namePool, it.Name...)
		if it.Target {
			targets[i] = 1
		}
	}
	nameOff[len(items)] = int32(len(namePool))

	n := cat.NumPromos()
	promoItem := make([]int32, n)
	econ := make([]float64, 3*n)
	for p := 1; p <= n; p++ {
		pc := cat.Promo(model.PromoID(p))
		promoItem[p-1] = int32(pc.Item)
		econ[3*(p-1)] = pc.Price
		econ[3*(p-1)+1] = pc.Cost
		econ[3*(p-1)+2] = pc.Packing
	}

	w.PutI32(arena.SecItemNameOff, nameOff)
	w.PutBytes(arena.SecItemNamePool, namePool)
	w.PutBytes(arena.SecItemTarget, targets)
	w.PutI32(arena.SecPromoItem, promoItem)
	w.PutF64(arena.SecPromoEcon, econ)
}

// sealRules fills the columnar rule table, rendering per-rule strings,
// covering-tree explanations and response blobs. idxOf maps each rule
// to its table index.
func sealRules(w *arena.Writer, space *hierarchy.Space, root *Node, table []*rules.Rule, idxOf map[*rules.Rule]int32) error {
	cat := space.Catalog()
	nodeOf := make(map[*rules.Rule]*Node)
	var index func(*Node)
	index = func(n *Node) {
		nodeOf[n.Rule] = n
		for _, c := range n.Children {
			index(c)
		}
	}
	index(root)

	n := len(table)
	bodyOff := make([]int32, n+1)
	var bodyPool []hierarchy.GenID
	head := make([]hierarchy.GenID, n)
	headItem := make([]int32, n)
	headPromo := make([]int32, n)
	bodyCount := make([]int32, n)
	hits := make([]int32, n)
	order := make([]int32, n)
	profit := make([]float64, n)
	profRe := make([]float64, n)
	idPool := make([]byte, 0, n*arena.RuleIDLen)
	strs := make([]string, n)
	for i, r := range table {
		strs[i] = r.String(space)
	}
	expls := make([]string, n)
	blobs := make([][]byte, n)

	for i, r := range table {
		item, promo := space.ItemOf(r.Head), space.PromoOf(r.Head)
		bodyOff[i] = int32(len(bodyPool))
		bodyPool = append(bodyPool, r.Body...)
		head[i] = r.Head
		headItem[i] = int32(item)
		headPromo[i] = int32(promo)
		bodyCount[i] = int32(r.BodyCount)
		hits[i] = int32(r.HitCount)
		order[i] = int32(r.Order)
		profit[i] = r.Profit
		profRe[i] = r.ProfRe()

		id := rules.StableID(space, r)
		if len(id) != arena.RuleIDLen {
			return fmt.Errorf("core: rule ID %q is %d bytes, the sealed format stores %d", id, len(id), arena.RuleIDLen)
		}
		idPool = append(idPool, id...)

		// The explanation is the fired rule and its covering-tree lineage
		// up to the default rule; rules outside the tree (per-item
		// alternates) explain without a lineage. Tree rules are final
		// rules, so every ancestor's string is already in strs.
		explain := []string{"recommend " + space.Name(space.PromoNode(promo)) + " [rule " + id + "]: fired " + strs[i]}
		for nd := nodeOf[r]; nd != nil && nd.Parent != nil; nd = nd.Parent {
			explain = append(explain, "  fallback: "+strs[idxOf[nd.Parent.Rule]])
		}
		expls[i] = strings.Join(explain, "\n")
		blobs[i] = marshalWire(wireOf(cat, item, promo, r.ProfRe(), r.Conf(), id, strs[i], explain))
	}
	bodyOff[n] = int32(len(bodyPool))
	strPool, strOff := concat[string, int32](strs)
	explPool, explOff := concat[string, int32](expls)
	blobPool, blobOff := concat[[]byte, int64](blobs)

	w.PutI32(arena.SecRuleBodyOff, bodyOff)
	w.PutGen(arena.SecRuleBodyPool, bodyPool)
	w.PutGen(arena.SecRuleHead, head)
	w.PutI32(arena.SecRuleHeadItem, headItem)
	w.PutI32(arena.SecRuleHeadPromo, headPromo)
	w.PutI32(arena.SecRuleBodyCount, bodyCount)
	w.PutI32(arena.SecRuleHits, hits)
	w.PutI32(arena.SecRuleOrder, order)
	w.PutF64(arena.SecRuleProfit, profit)
	w.PutF64(arena.SecRuleProfRe, profRe)
	w.PutBytes(arena.SecRuleIDPool, idPool)
	w.PutI32(arena.SecRuleStrOff, strOff)
	w.PutBytes(arena.SecRuleStrPool, strPool)
	w.PutI32(arena.SecRuleExplainOff, explOff)
	w.PutBytes(arena.SecRuleExplainPool, explPool)
	w.PutI64(arena.SecRuleBlobOff, blobOff)
	w.PutBytes(arena.SecRuleBlobPool, blobPool)
	return nil
}

// concat lays parts end to end in one exactly sized pool: part i
// occupies pool[off[i]:off[i+1]]. Sizing the pool up front keeps a
// seal from leaving a trail of outgrown pool copies behind it.
func concat[S ~string | ~[]byte, O int32 | int64](parts []S) (pool []byte, off []O) {
	off = make([]O, len(parts)+1)
	for i, p := range parts {
		off[i+1] = off[i] + O(len(p))
	}
	pool = make([]byte, 0, off[len(parts)])
	for _, p := range parts {
		pool = append(pool, p...)
	}
	return pool, off
}

// sealTrie persists one flattened matcher trie verbatim, translating
// its *Rule lists into rule-table indices.
func sealTrie(w *arena.Writer, base int, v rules.TrieView, idxOf map[*rules.Rule]int32) error {
	ruleIdx := make([]int32, len(v.Rules))
	for i, r := range v.Rules {
		ix, ok := idxOf[r]
		if !ok {
			return fmt.Errorf("core: trie references a rule outside the sealed table")
		}
		ruleIdx[i] = ix
	}
	defaults := make([]int32, len(v.Defaults))
	for i, r := range v.Defaults {
		ix, ok := idxOf[r]
		if !ok {
			return fmt.Errorf("core: default rule outside the sealed table")
		}
		defaults[i] = ix
	}
	w.PutGen(base+0, v.Item)
	w.PutI32(base+1, v.ChildLo)
	w.PutI32(base+2, v.ChildHi)
	w.PutI32(base+3, v.RuleLo)
	w.PutI32(base+4, v.RuleHi)
	w.PutI32(base+5, ruleIdx)
	w.PutI32(base+6, defaults)
	return nil
}

// marshalWire encodes one wire recommendation, degrading to an error
// object on a pathological value so one bad slot never fails a whole
// response.
func marshalWire(wr WireRecommendation) json.RawMessage {
	data, err := json.Marshal(wr)
	if err != nil {
		// Unreachable for validated models (plain strings and finite
		// floats).
		return json.RawMessage(`{"error":"unencodable recommendation"}`)
	}
	return data
}
