package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"profitmining/internal/core"
	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
	"profitmining/internal/model"
	"profitmining/internal/registry"
)

// buildScaledModel builds a tiny deterministic model whose every price,
// cost — and therefore every rule profit — is multiplied by scale. Two
// models with well-separated scales make torn (catalog, recommender)
// pairs detectable from a single response: the price comes from the
// catalog, the rule profit from the recommender, and in a torn pair
// their magnitudes disagree.
func buildScaledModel(t *testing.T, scale float64) (*model.Catalog, *core.Recommender) {
	t.Helper()
	cat := model.NewCatalog()
	bread := cat.AddItem("Bread", false)
	breadP := cat.AddPromo(bread, 2*scale, 1*scale, 1)
	milk := cat.AddItem("Milk", false)
	milkP := cat.AddPromo(milk, 1.5*scale, 0.7*scale, 1)
	egg := cat.AddItem("Egg", true)
	eggP := cat.AddPromo(egg, 1*scale, 0.4*scale, 1)
	egg4 := cat.AddPromo(egg, 3.2*scale, 1.6*scale, 4)
	chip := cat.AddItem("Chip", true)
	chipP := cat.AddPromo(chip, 2*scale, 0.8*scale, 1)

	var txns []model.Transaction
	for i := 0; i < 120; i++ {
		switch i % 3 {
		case 0:
			txns = append(txns, model.Transaction{
				NonTarget: []model.Sale{{Item: bread, Promo: breadP, Qty: 1}},
				Target:    model.Sale{Item: egg, Promo: eggP, Qty: 2},
			})
		case 1:
			txns = append(txns, model.Transaction{
				NonTarget: []model.Sale{{Item: milk, Promo: milkP, Qty: 1}},
				Target:    model.Sale{Item: chip, Promo: chipP, Qty: 1},
			})
		default:
			txns = append(txns, model.Transaction{
				NonTarget: []model.Sale{{Item: bread, Promo: breadP, Qty: 1}, {Item: milk, Promo: milkP, Qty: 1}},
				Target:    model.Sale{Item: egg, Promo: egg4, Qty: 1},
			})
		}
	}
	space := hierarchy.Flat(cat, hierarchy.Options{MOA: true})
	mined, err := mining.Mine(space, txns, mining.Options{MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := core.Build(space, txns, mined, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return cat, rec
}

// TestConcurrentSwapNoTornPairs hammers /recommend from many goroutines
// while the registry promotes alternating versions hundreds of times.
// Model A has unit-scale prices/profits, model B is scaled ×1000, and
// odd registry versions are always A. Every response must be internally
// consistent with exactly one version: the version header, the body's
// modelVersion, the catalog-derived price, and the recommender-derived
// rule profit must all agree on a scale. A torn pair — catalog from one
// version, recommender from another, or version read apart from the
// model — trips the scale check. Run under -race this also exercises the
// registry's publication safety.
func TestConcurrentSwapNoTornPairs(t *testing.T) {
	const scaleB = 1000.0
	catA, recA := buildScaledModel(t, 1)
	catB, recB := buildScaledModel(t, scaleB)

	reg, err := registry.New(registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Submit(catA, recA, "A", ""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewRegistry(reg, nil, nil).Handler())
	defer ts.Close()

	// Version parity encodes the expected scale: v1=A, v2=B, v3=A, …
	scaleOf := func(version int) float64 {
		if version%2 == 1 {
			return 1
		}
		return scaleB
	}

	stop := make(chan struct{})
	var promoErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 200; i++ {
			var err error
			if i%2 == 0 {
				_, _, err = reg.Submit(catB, recB, "B", "")
			} else {
				_, _, err = reg.Submit(catA, recA, "A", "")
			}
			if err != nil {
				promoErr = err
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const hammers = 8
	errc := make(chan error, hammers)
	for w := 0; w < hammers; w++ {
		go func() {
			for {
				select {
				case <-stop:
					errc <- nil
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/recommend", "application/json",
					strings.NewReader(`{"basket":[{"item":"Bread","promoIx":0,"qty":1}]}`))
				if err != nil {
					errc <- err
					return
				}
				var out struct {
					Recommendations []struct {
						Item   string  `json:"item"`
						Price  float64 `json:"price"`
						ProfRe float64 `json:"profRe"`
					} `json:"recommendations"`
					ModelVersion int `json:"modelVersion"`
				}
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
				if hdr := resp.Header.Get("X-Model-Version"); hdr != strconv.Itoa(out.ModelVersion) {
					errc <- fmt.Errorf("torn version: header %s, body %d", hdr, out.ModelVersion)
					return
				}
				if len(out.Recommendations) == 0 {
					errc <- fmt.Errorf("version %d: empty recommendation", out.ModelVersion)
					return
				}
				// All base prices and profits sit well inside (0, 50);
				// scaled ones well above 50×. A value on the wrong side
				// of 50×scale means the response mixed versions.
				s := scaleOf(out.ModelVersion)
				r := out.Recommendations[0]
				if lo, hi := 0.01*s, 50*s; r.Price < lo || r.Price >= hi {
					errc <- fmt.Errorf("torn pair: version %d (scale %g) served price %g", out.ModelVersion, s, r.Price)
					return
				}
				if lo, hi := 0.01*s, 50*s; r.ProfRe < lo || r.ProfRe >= hi {
					errc <- fmt.Errorf("torn pair: version %d (scale %g) served rule profit %g", out.ModelVersion, s, r.ProfRe)
					return
				}
			}
		}()
	}

	for w := 0; w < hammers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if promoErr != nil {
		t.Fatalf("promoter: %v", promoErr)
	}
	if v := reg.Active().Version; v != 201 {
		t.Fatalf("expected 201 promotions, ended at version %d", v)
	}
}
