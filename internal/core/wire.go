package core

import (
	"encoding/json"

	"profitmining/internal/model"
)

// WireRecommendation is the serving wire shape of one scored
// recommendation — the object POST /recommend returns per slot. It
// lives in core (not the HTTP layer) because sealing pre-marshals these
// objects into the image's blob pool, and the sealed bytes are what the
// server writes. Field order is part of the wire contract; do not
// reorder.
type WireRecommendation struct {
	Item    string   `json:"item"`
	PromoIx int      `json:"promoIx"`
	Price   float64  `json:"price"`
	Cost    float64  `json:"cost"`
	Packing float64  `json:"packing"`
	Profit  float64  `json:"profitPerSale"`
	ProfRe  float64  `json:"profRe"`
	Conf    float64  `json:"confidence"`
	RuleID  string   `json:"ruleID"`
	Rule    string   `json:"rule"`
	Explain []string `json:"explain,omitempty"`
}

// PromoIndex maps a promo ID back to its wire-format index within its
// item's ladder (-1 if absent, which cannot happen for a valid model).
func PromoIndex(cat *model.Catalog, item model.ItemID, promo model.PromoID) int {
	for i, pid := range cat.Promos(item) {
		if pid == promo {
			return i
		}
	}
	return -1
}

// wireOf assembles the wire object of one fired rule. Every field is a
// function of the rule alone, which is what lets sealing precompute the
// marshaled form per rule.
func wireOf(cat *model.Catalog, item model.ItemID, promo model.PromoID, profRe, conf float64, id, rule string, explain []string) WireRecommendation {
	p := cat.Promo(promo)
	return WireRecommendation{
		Item:    cat.Item(item).Name,
		PromoIx: PromoIndex(cat, item, promo),
		Price:   p.Price,
		Cost:    p.Cost,
		Packing: p.Packing,
		Profit:  p.Profit(),
		ProfRe:  profRe,
		Conf:    conf,
		RuleID:  id,
		Rule:    rule,
		Explain: explain,
	}
}

// MarshalWire re-renders one recommendation against cat from the
// image's rule columns and explanation, independently of the sealed
// blob pool; for a consistent image the result equals the blob the
// server writes for rec.
func MarshalWire(cat *model.Catalog, r *Recommender, rec Recommendation) json.RawMessage {
	if rec.Idx < 0 {
		return json.RawMessage(`{"error":"unencodable recommendation"}`)
	}
	rt := r.image.Rules()
	return marshalWire(wireOf(cat, rec.Item, rec.Promo, rt.ProfRe[rec.Idx], rt.Conf(rec.Idx), rec.ID, rt.String(rec.Idx), r.Explain(rec)))
}
