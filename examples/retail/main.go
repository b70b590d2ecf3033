// Retail: profit mining over a concept hierarchy with MOA price ladders.
//
// This example uses the bundled grocery dataset — cosmetics, food with a
// Meat/Bakery sub-hierarchy, and four target items sold at several
// prices — to show the parts of the paper a flat dataset can't:
//
//   - rules whose bodies are concepts ("Meat → Sunchip") rather than
//     items, found by multi-level mining over MOA(H);
//   - MOA price recommendations: a customer seen paying $3.80 for chips
//     is also evidence for the $3.80 promotion when they paid $5;
//   - the covering tree: every recommendation is explained by its rule
//     and the fallback lineage up to the default rule;
//   - top-K recommendation across distinct target items.
//
// Run with: go run ./examples/retail
package main

import (
	"fmt"
	"log"

	"profitmining"
)

func main() {
	g := profitmining.NewGrocery(5000, 42)
	fmt.Printf("grocery dataset: %d transactions, %d items, recorded profit $%.2f\n\n",
		len(g.Dataset.Transactions), g.Dataset.Catalog.NumItems(), g.Dataset.RecordedProfit())

	rec, err := profitmining.Build(g.Dataset, profitmining.Options{
		MinSupport: 0.01,
		Hierarchy:  g.Builder, // Cosmetics, Food ⊃ {Meat, Bakery}
	})
	if err != nil {
		log.Fatal(err)
	}
	st := rec.Stats()
	fmt.Printf("model: %d rules mined → %d after domination → %d in the cut-optimal recommender\n\n",
		st.RulesGenerated, st.RulesNonDominated, st.RulesFinal)

	fmt.Println("final rules (MPF rank order):")
	rt := rec.Sealed().Rules()
	for i := 0; i < st.RulesFinal; i++ {
		fmt.Printf("%3d. %s\n", i+1, rt.String(int32(i)))
	}
	fmt.Println()

	baskets := []struct {
		label string
		b     profitmining.Basket
	}{
		{"chicken at the high price", profitmining.Basket{
			{Item: g.Items["FlakedChicken"], Promo: g.Promos["FC@3.8"], Qty: 1},
		}},
		{"beer + chicken", profitmining.Basket{
			{Item: g.Items["Beer"], Promo: g.Promos["Beer@9"], Qty: 1},
			{Item: g.Items["FlakedChicken"], Promo: g.Promos["FC@3"], Qty: 2},
		}},
		{"perfume + shampoo", profitmining.Basket{
			{Item: g.Items["Perfume"], Promo: g.Promos["Perfume"], Qty: 1},
			{Item: g.Items["Shampoo"], Promo: g.Promos["Shampoo"], Qty: 1},
		}},
		{"bread", profitmining.Basket{
			{Item: g.Items["Bread"], Promo: g.Promos["Bread"], Qty: 1},
		}},
	}
	for _, c := range baskets {
		fmt.Printf("== customer: %s ==\n", c.label)
		r := rec.Recommend(c.b)
		for _, line := range rec.Explain(r) {
			fmt.Println(line)
		}
		if top := rec.RecommendTopK(c.b, 2); len(top) > 1 {
			alt := top[1]
			fmt.Printf("  next-best item: %s via %s\n",
				g.Dataset.Catalog.Item(alt.Item).Name, rt.String(alt.Idx))
		}
		fmt.Println()
	}
}
