// Quickstart: the paper's Introduction scenarios in thirty lines.
//
// Two lessons are reproduced on a tiny hand-built dataset:
//
//  1. The egg-pricing example — 100 customers bought eggs at $1/pack
//     (profit $0.50) and 100 at $3.2/4-pack (profit $1.20). A prediction
//     model "repeats the past" and splits its recommendations; profit
//     mining recommends the package price to everyone.
//  2. Perfume → Lipstick vs Diamond — neither the most likely item
//     (lipstick) nor the most expensive (diamond) is automatically right;
//     the recommendation profit Prof_re decides.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"profitmining"
)

func main() {
	cat := profitmining.NewCatalog()

	bread := cat.AddItem("Bread", false)
	breadP := cat.AddPromo(bread, 2.0, 1.0, 1)
	perfume := cat.AddItem("Perfume", false)
	perfumeP := cat.AddPromo(perfume, 30, 10, 1)

	egg := cat.AddItem("Egg", true)
	eggPack := cat.AddPromo(egg, 1.0, 0.5, 1)  // profit $0.50
	egg4Pack := cat.AddPromo(egg, 3.2, 2.0, 4) // profit $1.20
	lipstick := cat.AddItem("Lipstick", true)
	lipstickP := cat.AddPromo(lipstick, 10, 6, 1) // profit $4
	diamond := cat.AddItem("Diamond", true)
	diamondP := cat.AddPromo(diamond, 780, 700, 1) // profit $80

	var txns []profitmining.Transaction
	// Bread buyers split 50/50 between the two egg prices.
	for i := 0; i < 100; i++ {
		txns = append(txns,
			txn(sale(bread, breadP), sale(egg, eggPack)),
			txn(sale(bread, breadP), sale(egg, egg4Pack)),
		)
	}
	// Perfume buyers: 95 lipsticks, 5 diamonds.
	for i := 0; i < 95; i++ {
		txns = append(txns, txn(sale(perfume, perfumeP), sale(lipstick, lipstickP)))
	}
	for i := 0; i < 5; i++ {
		txns = append(txns, txn(sale(perfume, perfumeP), sale(diamond, diamondP)))
	}

	ds := &profitmining.Dataset{Catalog: cat, Transactions: txns}
	rec, err := profitmining.Build(ds, profitmining.Options{MinSupport: 0.01})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("built recommender: %d rules generated, %d kept\n\n",
		rec.Stats().RulesGenerated, rec.Stats().RulesFinal)

	for _, c := range []struct {
		label  string
		basket profitmining.Basket
	}{
		{"customer buying bread", profitmining.Basket{{Item: bread, Promo: breadP, Qty: 1}}},
		{"customer buying perfume", profitmining.Basket{{Item: perfume, Promo: perfumeP, Qty: 1}}},
	} {
		r := rec.Recommend(c.basket)
		promo := cat.Promo(r.Promo)
		fmt.Printf("%s →\n", c.label)
		fmt.Printf("  recommend %s at $%.2f/%g-pack (profit $%.2f per sale)\n",
			cat.Item(r.Item).Name, promo.Price, promo.Packing, promo.Profit())
		fmt.Printf("  because: %s\n\n", rec.Sealed().Rules().String(r.Idx))
	}

	// The egg lesson, quantified: recommending the 4-pack to all 200
	// bread buyers projects $240 versus the $170 the past recorded.
	recorded := 100*0.5 + 100*1.2
	smarter := 200 * cat.Promo(egg4Pack).Profit()
	fmt.Printf("egg lesson: past profit $%.0f; recommend the 4-pack to everyone → $%.0f\n",
		recorded, smarter)
}

func sale(i profitmining.ItemID, p profitmining.PromoID) profitmining.Sale {
	return profitmining.Sale{Item: i, Promo: p, Qty: 1}
}

// txn builds a transaction whose last sale is the target.
func txn(nonTarget, target profitmining.Sale) profitmining.Transaction {
	return profitmining.Transaction{NonTarget: []profitmining.Sale{nonTarget}, Target: target}
}
