package modelio

import (
	"testing"

	"profitmining/internal/arena"
	"profitmining/internal/model"
)

// FuzzLoadBytes asserts the sealed loader's fail-closed contract:
// arbitrary bytes load into a model or return an error, never a panic,
// and a model that loads serves. Each input's header digest is
// re-stamped first, so mutations get past the checksum to the structural
// checks behind it. For any image that loads, RecommendTopK, Explain and
// the fired rules' blobs must return over fixed grocery baskets, each
// kept to the promotion codes the loaded catalog defines (as the serving
// layer resolves them).
func FuzzLoadBytes(f *testing.F) {
	g, rec, image := sealGrocery(f)
	f.Add(image)
	for _, bad := range badImages(rec, image) {
		f.Add(bad.data)
	}
	var baskets []model.Basket
	for _, txn := range g.Dataset.Transactions[:50] {
		baskets = append(baskets, txn.NonTarget)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= arena.HeaderPrefixLen {
			data = restamp(append([]byte(nil), data...))
		}
		cat, rec, err := LoadBytes(data)
		if err != nil {
			return
		}
		rules := rec.Sealed().Rules()
		var sales []model.Sale
		for _, basket := range baskets {
			sales = sales[:0]
			for _, s := range basket {
				if int(s.Promo) <= cat.NumPromos() {
					sales = append(sales, s)
				}
			}
			for _, r := range rec.RecommendTopK(sales, 3) {
				rec.Explain(r)
				if r.Idx >= 0 {
					rules.Blob(r.Idx)
				}
			}
		}
	})
}
