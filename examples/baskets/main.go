// Baskets: profit mining over raw market-basket data.
//
// Public retail datasets usually come as one transaction per line,
// whitespace-separated item tokens, with no price information. This
// example converts such data with ReadBaskets — which synthesizes the
// m-price promotion ladders the format lacks — designates the snack
// tokens as targets, and builds a recommender, then persists it for
// profitserve.
//
// Run with: go run ./examples/baskets
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"profitmining"
)

func main() {
	// Stand-in for a retail.dat-style file: cosmetics buyers tend to buy
	// lipstick, snack buyers chips (with noise).
	var sb strings.Builder
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		switch rng.Intn(3) {
		case 0:
			sb.WriteString("perfume shampoo lipstick\n")
		case 1:
			sb.WriteString("beer pretzels chips\n")
		default:
			if rng.Intn(2) == 0 {
				sb.WriteString("perfume soap lipstick\n")
			} else {
				sb.WriteString("beer soda chips\n")
			}
		}
	}

	// Comparable target costs keep per-segment rules competitive with the
	// global default rule (a very expensive target would rationally be
	// recommended to everyone — see the grocery example's comments).
	ds, err := profitmining.ReadBaskets(strings.NewReader(sb.String()), profitmining.BasketOptions{
		Targets:     []string{"chips", "lipstick"},
		TargetCosts: map[string]float64{"chips": 5, "lipstick": 6},
		Seed:        1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converted %d transactions over %d items (2 targets, 4 synthesized prices each)\n\n",
		len(ds.Transactions), ds.Catalog.NumItems())

	rec, err := profitmining.Build(ds, profitmining.Options{MinSupport: 0.01})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rec.Report())

	for _, tokens := range [][]string{{"beer"}, {"perfume", "soap"}} {
		basket := profitmining.Basket{}
		for _, tok := range tokens {
			id, _ := ds.Catalog.ItemByName(tok)
			basket = append(basket, profitmining.Sale{
				Item: id, Promo: ds.Catalog.Promos(id)[0], Qty: 1,
			})
		}
		r := rec.Recommend(basket)
		promo := ds.Catalog.Promo(r.Promo)
		fmt.Printf("basket %-16v → %s at $%.2f\n", tokens, ds.Catalog.Item(r.Item).Name, promo.Price)
	}

	if err := profitmining.SealModel("/tmp/baskets-model.pma", ds.Catalog, rec); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmodel sealed to /tmp/baskets-model.pma (serve it: profitserve -model /tmp/baskets-model.pma)")
}
