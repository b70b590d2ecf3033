package arena

import (
	"encoding/binary"
	"math"
	"sync"

	"profitmining/internal/hierarchy"
	"profitmining/internal/model"
)

// genID abbreviates the interned generalized-sale ID inside this
// package; sealed files store the same int32 values the space interned
// at build time (the expansion pool and the rule bodies come from one
// space, so they stay mutually consistent without the space itself).
type genID = hierarchy.GenID

// Model is the index-based view of one sealed image: typed slices
// aliasing its bytes plus the lazily materialized catalog. It is
// immutable and safe for concurrent use; it keeps the image reachable,
// so views remain valid for the Model's lifetime.
type Model struct {
	data []byte
	meta Meta
	sec  func(int) []byte
	exp  expansions
	rt   RuleTable
	trie Trie
	alt  Trie

	catOnce sync.Once
	cat     *model.Catalog
	catErr  error
}

// Meta returns the sealed counts and build statistics.
func (m *Model) Meta() Meta { return m.meta }

// Catalog materializes the heap catalog on first call — O(items+promos)
// — and memoizes it. Deferring this is what keeps Open O(1) in model
// size: the hot serving path never touches the heap catalog, and the
// staging path pays the build exactly once per swapped-in model.
// Materialization re-screens the catalog sections' structural bounds
// (Verify also scans them, but a raw unverified open must not be able
// to panic here), and an error — impossible in a file that passed
// Verify — is memoized like success.
func (m *Model) Catalog() (*model.Catalog, error) {
	m.catOnce.Do(func() { m.cat, m.catErr = materializeCatalog(m.meta, m.sec) })
	return m.cat, m.catErr
}

// Expansions returns the per-promotion sale expansions as the shared
// hierarchy view, aliasing the image.
func (m *Model) Expansions() hierarchy.Expansions {
	return hierarchy.Expansions{Off: m.exp.off, Pool: m.exp.pool}
}

// Rules returns the columnar rule table.
func (m *Model) Rules() *RuleTable { return &m.rt }

// Trie returns the flattened matcher trie over the final rules.
func (m *Model) Trie() *Trie { return &m.trie }

// Alternates returns the flattened per-item alternates trie.
func (m *Model) Alternates() *Trie { return &m.alt }

// Bytes returns the whole sealed image, for shipping verbatim (cluster
// model distribution) or writing to a file. Must not be modified.
func (m *Model) Bytes() []byte { return m.data }

// expansions is the aliased hierarchy.Expansions layout.
type expansions struct {
	off  []int32
	pool []genID
}

// validate bounds-checks the offset array once at open — O(promos) —
// so a structurally corrupt file cannot index outside the pool at
// serve time.
func (e expansions) validate(poolBytes int) error {
	n := poolBytes / 4
	prev := int32(0)
	for i, off := range e.off {
		if off < prev || int(off) > n {
			return errf("expansion offset %d at promo %d escapes its %d-entry pool", off, i, n)
		}
		prev = off
	}
	if len(e.off) > 0 && int(e.off[len(e.off)-1]) != n {
		return errf("expansion offsets end at %d, pool holds %d entries", e.off[len(e.off)-1], n)
	}
	return nil
}

// RuleTable is the columnar form of every servable rule: the final
// rules in MPF rank order (the first Meta.NumFinal entries) followed
// by the per-item alternates not already present. All slices alias the
// image; none may be modified.
type RuleTable struct {
	BodyOff   []int32
	BodyPool  []genID
	Head      []genID
	HeadItem  []int32
	HeadPromo []int32
	BodyCount []int32
	Hits      []int32
	Order     []int32
	Profit    []float64
	ProfRe    []float64

	idPool   []byte
	strOff   []int32
	strPool  []byte
	explOff  []int32
	explPool []byte
	blobOff  []int64
	blobPool []byte
}

// N returns the number of rules in the table.
func (t *RuleTable) N() int { return len(t.Head) }

// Body returns rule i's sorted body.
func (t *RuleTable) Body(i int32) []genID {
	return t.BodyPool[t.BodyOff[i]:t.BodyOff[i+1]]
}

// BodyLen returns len(body) for rule i without slicing.
//
//hot:path
func (t *RuleTable) BodyLen(i int32) int32 { return t.BodyOff[i+1] - t.BodyOff[i] }

// Conf returns rule i's confidence, hits per body match, guarding the
// division exactly as rules.Rule.Conf does: a rule with no body matches
// has confidence 0, never NaN.
func (t *RuleTable) Conf(i int32) float64 {
	if t.BodyCount[i] == 0 {
		return 0
	}
	return float64(t.Hits[i]) / float64(t.BodyCount[i])
}

// ID returns rule i's stable content-hash identity ("r"+16 hex,
// rules.StableID) as a zero-copy string over the image.
//
//hot:path
func (t *RuleTable) ID(i int32) string {
	return byteString(t.idPool[int(i)*RuleIDLen : (int(i)+1)*RuleIDLen])
}

// String returns rule i rendered with its measures, as
// rules.Rule.String produced it at seal time. Zero-copy.
func (t *RuleTable) String(i int32) string {
	return byteString(t.strPool[t.strOff[i]:t.strOff[i+1]])
}

// ExplainJoined returns rule i's explanation lines joined with '\n'
// (the covering-tree lineage rendered at seal time). Zero-copy.
func (t *RuleTable) ExplainJoined(i int32) string {
	return byteString(t.explPool[t.explOff[i]:t.explOff[i+1]])
}

// Blob returns rule i's pre-marshaled recommendation JSON, served
// verbatim by the HTTP layer. Must not be modified.
//
//hot:path
func (t *RuleTable) Blob(i int32) []byte {
	return t.blobPool[t.blobOff[i]:t.blobOff[i+1]]
}

// Outranks reports whether rule a outranks rule b under the MPF order
// of Definition 6 — the index twin of rules.Outranks, reading the
// sealed Prof_re column instead of recomputing the division.
//
//hot:path
func (t *RuleTable) Outranks(a, b int32) bool {
	ap, bp := t.ProfRe[a], t.ProfRe[b]
	if ap != bp { //lint:allow floatcmp -- rank comparators need exact comparison, as in rules.Outranks
		return ap > bp
	}
	if t.Hits[a] != t.Hits[b] {
		return t.Hits[a] > t.Hits[b]
	}
	if la, lb := t.BodyLen(a), t.BodyLen(b); la != lb {
		return la < lb
	}
	return t.Order[a] < t.Order[b]
}

// Trie is the sealed form of rules.Matcher's flattened trie: node i's
// children occupy nodes [ChildLo[i], ChildHi[i]) and its rules occupy
// Rules[RuleLo[i]:RuleHi[i]] as global rule-table indices. The root's
// children are [0, RootHi); Defaults lists the empty-body rules.
type Trie struct {
	Item                             []genID
	ChildLo, ChildHi, RuleLo, RuleHi []int32
	Rules                            []int32
	Defaults                         []int32
	RootHi                           int32
}

// validate checks the rule table's interior — O(rules): every offset
// column is nondecreasing (parse checked that each starts at 0 and ends
// at its pool's length, so every rule's slice lies inside its pool),
// and every head names an item and a promo of the sealed catalog.
func (t *RuleTable) validate(meta Meta) error {
	for _, c := range []struct {
		what string
		at   int
	}{
		{"rule body", firstDecrease(t.BodyOff)},
		{"rule string", firstDecrease(t.strOff)},
		{"rule explain", firstDecrease(t.explOff)},
		{"rule blob", firstDecrease(t.blobOff)},
	} {
		if c.at >= 0 {
			return errf("%s offsets decrease at entry %d", c.what, c.at)
		}
	}
	for i := range t.Head {
		if item, promo := t.HeadItem[i], t.HeadPromo[i]; item < 1 || int(item) > meta.NumItems || promo < 1 || int(promo) > meta.NumPromos {
			return errf("rule %d head (item %d, promo %d) is outside the %d-item, %d-promo catalog", i, item, promo, meta.NumItems, meta.NumPromos)
		}
	}
	return nil
}

// firstDecrease returns the first i with off[i] < off[i-1], or -1.
func firstDecrease[T int32 | int64](off []T) int {
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return i
		}
	}
	return -1
}

// validate bounds-checks the trie — O(nodes + rule entries): each
// node's child block lies inside the node columns, its rule range inside
// Rules, and every Rules entry indexes the rcount-rule table, so a walk
// cannot index outside a column at serve time.
func (t *Trie) validate(rcount int, what string) error {
	nodes := int32(len(t.Item))
	for i := range t.Item {
		if lo, hi := t.ChildLo[i], t.ChildHi[i]; lo < 0 || lo > hi || hi > nodes {
			return errf("%s node %d children [%d,%d) escape its %d nodes", what, i, lo, hi, nodes)
		}
		if lo, hi := t.RuleLo[i], t.RuleHi[i]; lo < 0 || lo > hi || int(hi) > len(t.Rules) {
			return errf("%s node %d rules [%d,%d) escape its %d-entry rule list", what, i, lo, hi, len(t.Rules))
		}
	}
	for i, r := range t.Rules {
		if r < 0 || int(r) >= rcount {
			return errf("%s rule entry %d: index %d outside the %d-rule table", what, i, r, rcount)
		}
	}
	return nil
}

// validateCatalog bounds-checks the catalog sections at open —
// O(items+promos) with no allocations — so a structurally corrupt file
// fails Open loudly instead of handing out views that blow up on first
// materialization.
func validateCatalog(meta Meta, sec func(int) []byte) error {
	nameOff := alias[int32](sec(SecItemNameOff))
	poolLen := len(sec(SecItemNamePool))
	prev := int32(0)
	for i := 0; i < meta.NumItems; i++ {
		lo, hi := nameOff[i], nameOff[i+1]
		if lo < prev || hi <= lo || int(hi) > poolLen {
			return errf("item %d name offsets [%d,%d) escape the name pool or name an empty item", i+1, lo, hi)
		}
		prev = hi
	}
	for p, item := range alias[int32](sec(SecPromoItem)) {
		if item < 1 || int(item) > meta.NumItems {
			return errf("promo %d belongs to unknown item %d", p+1, item)
		}
	}
	return nil
}

// materializeCatalog rebuilds a *model.Catalog from the catalog
// sections. Promos are stored in global ID order, so AddPromo
// reproduces both the IDs and each item's ladder order exactly as the
// original catalog had them. Offsets and ranges are screened up front
// (redundantly with Verify, deliberately — see Catalog); beyond that,
// only name uniqueness needs checking here (the one property a map is
// needed for).
func materializeCatalog(meta Meta, sec func(int) []byte) (*model.Catalog, error) {
	if err := validateCatalog(meta, sec); err != nil {
		return nil, err
	}
	nameOff := alias[int32](sec(SecItemNameOff))
	namePool := sec(SecItemNamePool)
	targets := sec(SecItemTarget)
	promoItem := alias[int32](sec(SecPromoItem))
	econ := alias[float64](sec(SecPromoEcon))

	cat := model.NewCatalog()
	seen := make(map[string]bool, meta.NumItems)
	for i := 0; i < meta.NumItems; i++ {
		name := string(namePool[nameOff[i]:nameOff[i+1]])
		if seen[name] {
			return nil, errf("item %d duplicates the name %q", i+1, name)
		}
		seen[name] = true
		cat.AddItem(name, targets[i] != 0)
	}
	for p := 0; p < meta.NumPromos; p++ {
		cat.AddPromo(model.ItemID(promoItem[p]), econ[3*p], econ[3*p+1], econ[3*p+2])
	}
	return cat, nil
}

func lefloat(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func putLefloat(b []byte, v float64) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
}
