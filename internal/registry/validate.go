package registry

import (
	"fmt"

	"profitmining/internal/core"
	"profitmining/internal/model"
)

// Probe is a golden basket a candidate model must answer before it can
// serve: items are referenced by name and promotion codes by index, the
// wire format of the serving layer. A probe passes when the candidate
// returns a non-empty recommendation (and, if ExpectItem is set, that
// item specifically).
type Probe struct {
	Basket     []ProbeSale
	ExpectItem string // optional: required top-1 recommended item name
}

// ProbeSale is one basket line of a probe.
type ProbeSale struct {
	Item    string
	PromoIx int
	Qty     float64
}

// Validate is the registry's gate: it rejects a candidate model that
// would crash or nonsense the serving layer. It checks that the pair is
// complete, the catalog validates, the recommender serves against this
// very catalog, the final rule list is non-empty, every rule head in
// the image's rule table is a target (item, promo) pair of the catalog,
// and every golden probe yields a recommendation.
//
// Structural integrity of the image itself is enforced before a model
// reaches here: arena.Open bounds-checks every section, and images from
// outside the process pass Verify's whole-file checksum and linear
// scans at load. Rule bodies are never resolved against the catalog
// when serving (the tries compare them as keys), so only the head
// columns need the per-rule pass.
func Validate(cat *model.Catalog, rec *core.Recommender, probes []Probe) error {
	if cat == nil || rec == nil {
		return fmt.Errorf("registry: incomplete candidate (nil catalog or recommender)")
	}
	if err := cat.Validate(); err != nil {
		return fmt.Errorf("registry: candidate catalog: %w", err)
	}
	if rec.Catalog() != cat {
		return fmt.Errorf("registry: candidate recommender serves a different catalog")
	}
	rt := rec.Sealed().Rules()
	if rec.Stats().RulesFinal == 0 || rt.N() == 0 {
		return fmt.Errorf("registry: candidate has an empty final rule list")
	}
	for i := 0; i < rt.N(); i++ {
		item, promo := model.ItemID(rt.HeadItem[i]), model.PromoID(rt.HeadPromo[i])
		if item < 1 || int(item) > cat.NumItems() {
			return fmt.Errorf("registry: rule %d: head references unknown item %d", i, item)
		}
		if promo < 1 || int(promo) > cat.NumPromos() {
			return fmt.Errorf("registry: rule %d: head references unknown promo %d", i, promo)
		}
		if p := cat.Promo(promo); p.Item != item {
			return fmt.Errorf("registry: rule %d: head promo %d belongs to item %d, not %d", i, promo, p.Item, item)
		}
		if !cat.Item(item).Target {
			return fmt.Errorf("registry: rule %d: head recommends non-target item %q", i, cat.Item(item).Name)
		}
	}
	for i, p := range probes {
		if err := runProbe(cat, rec, p); err != nil {
			return fmt.Errorf("registry: golden probe %d: %w", i, err)
		}
	}
	return nil
}

// runProbe decodes the golden basket against the candidate's catalog
// and requires a scoreable, non-empty recommendation.
func runProbe(cat *model.Catalog, rec *core.Recommender, p Probe) error {
	var basket model.Basket
	for i, ps := range p.Basket {
		item, ok := cat.ItemByName(ps.Item)
		if !ok {
			return fmt.Errorf("basket[%d]: unknown item %q", i, ps.Item)
		}
		if cat.Item(item).Target {
			return fmt.Errorf("basket[%d]: %q is a target item", i, ps.Item)
		}
		promos := cat.Promos(item)
		if ps.PromoIx < 0 || ps.PromoIx >= len(promos) {
			return fmt.Errorf("basket[%d]: item %q has no promo index %d", i, ps.Item, ps.PromoIx)
		}
		qty := ps.Qty
		if qty <= 0 {
			qty = 1
		}
		basket = append(basket, model.Sale{Item: item, Promo: promos[ps.PromoIx], Qty: qty})
	}
	recs := rec.RecommendTopK(basket, 1)
	if len(recs) == 0 {
		return fmt.Errorf("no recommendation for probe basket")
	}
	got := cat.Item(recs[0].Item).Name
	if p.ExpectItem != "" && got != p.ExpectItem {
		return fmt.Errorf("recommended %q, want %q", got, p.ExpectItem)
	}
	return nil
}
