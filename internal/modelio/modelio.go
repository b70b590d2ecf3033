// Package modelio moves built recommenders in and out of files. A
// model is served, shipped and loaded only as its sealed arena image
// (format v3, see sealed.go and internal/arena): LoadFile and LoadBytes
// are the two ways in, and both refuse anything else. The v2 JSON
// format written by Save is an export for inspection: a self-contained
// structural description — catalog, concept hierarchy, MOA flag, the
// pruned covering tree (rules with their measures and projected
// profits) and the per-item alternate rules — that nothing reads back.
//
// Generalized sales are written structurally (item names, promotion
// indexes, concept names) rather than as interned IDs, so an export
// reads without knowing the internal numbering.
package modelio

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"profitmining/internal/core"
	"profitmining/internal/dataio"
	"profitmining/internal/hierarchy"
	"profitmining/internal/model"
	"profitmining/internal/rules"
)

// formatV2 is the JSON export's format version. Its payload checksum
// lets a reader of an export detect a truncated or edited file.
const formatV2 = "profitmining-model/v2"

// genJSON is the structural form of one generalized sale.
type genJSON struct {
	Kind    string `json:"kind"`              // "concept" | "item" | "promo"
	Name    string `json:"name,omitempty"`    // concept or item name
	Item    string `json:"item,omitempty"`    // promo: owning item name
	PromoIx int    `json:"promoIx,omitempty"` // promo: index within the item's promos
}

type ruleJSON struct {
	// ID is the rule's stable content-hash identity (rules.StableID),
	// recorded so operators can join serving logs and feedback outcomes
	// against the export offline.
	ID string `json:"id,omitempty"`

	Body      []genJSON `json:"body,omitempty"`
	Head      genJSON   `json:"head"`
	BodyCount int       `json:"n"`
	HitCount  int       `json:"hits"`
	Profit    float64   `json:"profit"`
	Order     int       `json:"order"`
}

type nodeJSON struct {
	Rule      ruleJSON    `json:"rule"`
	Projected float64     `json:"projected"`
	CoverSize int         `json:"coverSize"`
	Children  []*nodeJSON `json:"children,omitempty"`
}

type modelFile struct {
	Format       string                `json:"format"`
	Checksum     string                `json:"checksum,omitempty"` // sha256 of the compact encoding with Checksum cleared
	MOA          bool                  `json:"moa"`
	Items        []dataio.ItemJSON     `json:"items"`
	Promos       []dataio.PromoJSON    `json:"promos"`
	Hierarchy    *dataio.HierarchySpec `json:"hierarchy,omitempty"`
	Generated    int                   `json:"rulesGenerated"`
	NonDominated int                   `json:"rulesNonDominated"`
	Tree         *nodeJSON             `json:"tree"`
	Alternates   []ruleJSON            `json:"alternates,omitempty"`
}

// Save writes a recommender's v2 JSON export with its catalog and
// hierarchy spec. It needs the build output (space and covering tree),
// which an image opened from disk does not carry; the alternates come
// off the image.
func Save(w io.Writer, cat *model.Catalog, spec *dataio.HierarchySpec, rec *core.Recommender) error {
	space := rec.Space()
	if space == nil {
		return fmt.Errorf("modelio: a recommender opened from a sealed image has no covering tree to save")
	}
	enc := encoder{space: space, cat: cat}

	mf := modelFile{
		Format:       formatV2,
		MOA:          space.MOA(),
		Hierarchy:    spec,
		Generated:    rec.Stats().RulesGenerated,
		NonDominated: rec.Stats().RulesNonDominated,
	}
	mf.Items, mf.Promos = dataio.EncodeCatalog(cat)

	var err error
	mf.Tree, err = enc.node(rec.Tree())
	if err != nil {
		return err
	}
	for _, r := range rec.Alternates() {
		rj, err := enc.rule(&r)
		if err != nil {
			return err
		}
		mf.Alternates = append(mf.Alternates, rj)
	}

	if mf.Checksum, err = checksum(&mf); err != nil {
		return err
	}
	e := json.NewEncoder(w)
	e.SetIndent("", " ")
	return e.Encode(&mf)
}

// checksum hashes the compact JSON encoding of mf with the Checksum
// field cleared, so a reader that re-encodes the same struct gets the
// same bytes whatever the indentation, while any content change — a
// flipped bit inside a name, a dropped rule — shows up. encoding/json
// is deterministic here: struct fields encode in declaration order and
// map keys sort.
func checksum(mf *modelFile) (string, error) {
	clean := *mf
	clean.Checksum = ""
	data, err := json.Marshal(&clean)
	if err != nil {
		return "", fmt.Errorf("modelio: hashing model: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// SaveFile writes the v2 JSON export to path.
func SaveFile(path string, cat *model.Catalog, spec *dataio.HierarchySpec, rec *core.Recommender) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Save(f, cat, spec, rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type encoder struct {
	space *hierarchy.Space
	cat   *model.Catalog
}

func (e encoder) gen(g hierarchy.GenID) (genJSON, error) {
	switch e.space.Kind(g) {
	case hierarchy.KindConcept:
		return genJSON{Kind: "concept", Name: e.space.Name(g)}, nil
	case hierarchy.KindItem:
		return genJSON{Kind: "item", Name: e.cat.Item(e.space.ItemOf(g)).Name}, nil
	case hierarchy.KindItemPromo:
		item := e.space.ItemOf(g)
		pid := e.space.PromoOf(g)
		for i, p := range e.cat.Promos(item) {
			if p == pid {
				return genJSON{Kind: "promo", Item: e.cat.Item(item).Name, PromoIx: i}, nil
			}
		}
		return genJSON{}, fmt.Errorf("modelio: promo %d not found on item %d", pid, item)
	default:
		return genJSON{}, fmt.Errorf("modelio: cannot serialize node kind %v", e.space.Kind(g))
	}
}

func (e encoder) rule(r *rules.Rule) (ruleJSON, error) {
	rj := ruleJSON{
		ID:        rules.StableID(e.space, r),
		BodyCount: r.BodyCount,
		HitCount:  r.HitCount,
		Profit:    r.Profit,
		Order:     r.Order,
	}
	var err error
	if rj.Head, err = e.gen(r.Head); err != nil {
		return rj, err
	}
	for _, g := range r.Body {
		gj, err := e.gen(g)
		if err != nil {
			return rj, err
		}
		rj.Body = append(rj.Body, gj)
	}
	return rj, nil
}

func (e encoder) node(n *core.Node) (*nodeJSON, error) {
	rj, err := e.rule(n.Rule)
	if err != nil {
		return nil, err
	}
	nj := &nodeJSON{Rule: rj, Projected: n.Projected, CoverSize: len(n.Cover)}
	for _, c := range n.Children {
		cj, err := e.node(c)
		if err != nil {
			return nil, err
		}
		nj.Children = append(nj.Children, cj)
	}
	return nj, nil
}
