// Command profitminer builds a profit-mining recommender from a dataset
// file and reports the model: construction statistics, the final rules in
// MPF rank order, and sample recommendations with explanations.
//
//	profitminer -in dataset1.pmjl -minsup 0.001
//	profitminer -in grocery.pmjl -minsup 0.01 -show 25 -demo 3
//
// With -window N the model is maintained incrementally: it is built
// over the first N transactions and then slid through the rest of the
// dataset -slide transactions at a time, ending on the model over the
// last N — byte-identical to a batch build over that window, at a
// fraction of the cost.
//
//	profitminer -in dataset1.pmjl -minsup 0.002 -window 5000 -slide 250
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"profitmining"
)

func main() {
	var (
		in      = flag.String("in", "", "input dataset file (required)")
		minsup  = flag.Float64("minsup", 0.001, "minimum relative support")
		minprof = flag.Float64("minprofit", 0, "minimum rule profit (0 = off)")
		maxLen  = flag.Int("maxlen", 3, "maximum rule body length")
		cf      = flag.Float64("cf", 0.25, "pessimistic confidence level")
		noMOA   = flag.Bool("nomoa", false, "disable mining on availability")
		binary  = flag.Bool("binary", false, "confidence-driven building (CONF variant)")
		noPrune = flag.Bool("noprune", false, "skip cut-optimal pruning")
		buying  = flag.Bool("buying", false, "buying MOA (spending-preserving) instead of saving MOA")
		show    = flag.Int("show", 20, "number of top rules to print")
		demo    = flag.Int("demo", 0, "recommend-and-explain for the first N transactions")
		save    = flag.String("save", "", "write the built model's v2 JSON export to this file, for inspection (not loadable; serve -seal output)")
		seal    = flag.String("seal", "", "write the built model's sealed zero-copy image to this file (what profitserve -model serves)")
		report  = flag.Bool("report", false, "print the model summary report")
		par     = flag.Int("parallel", 0, "build worker count (0 = one per CPU, 1 = serial; identical output either way)")
		window  = flag.Int("window", 0, "maintain the model over a sliding window of this many transactions (0 = batch build over the whole dataset)")
		slide   = flag.Int("slide", 256, "transactions per window slide (with -window)")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "profitminer: -in is required")
		flag.Usage()
		os.Exit(2)
	}

	ds, spec, err := profitmining.LoadDataset(*in)
	if err != nil {
		fail(err)
	}
	var hb *profitmining.HierarchyBuilder
	if spec != nil {
		if hb, err = spec.Builder(ds.Catalog); err != nil {
			fail(err)
		}
	}
	opts := profitmining.Options{
		MinSupport:     *minsup,
		MinRuleProfit:  *minprof,
		MaxBodyLen:     *maxLen,
		CF:             *cf,
		DisableMOA:     *noMOA,
		BinaryProfit:   *binary,
		DisablePruning: *noPrune,
		Hierarchy:      hb,
		Parallelism:    *par,
	}
	if *buying {
		opts.Quantity = profitmining.BuyingMOA{}
	}

	var rec *profitmining.Recommender
	if *window > 0 {
		rec, err = mineWindowed(ds, opts, *window, *slide)
	} else {
		rec, err = profitmining.Build(ds, opts)
	}
	if err != nil {
		fail(err)
	}

	st := rec.Stats()
	fmt.Printf("dataset: %d transactions, %d items (%d targets), recorded profit %.2f\n",
		len(ds.Transactions), ds.Catalog.NumItems(), len(ds.Catalog.TargetItems()), ds.RecordedProfit())
	fmt.Printf("model:   %d rules generated → %d after domination → %d after pruning (tree depth %d)\n",
		st.RulesGenerated, st.RulesNonDominated, st.RulesFinal, st.TreeDepth)
	fmt.Printf("         projected profit on covered customers: %.2f\n\n", st.ProjectedProfit)

	if *report {
		fmt.Println(rec.Report())
	}

	rules := rec.Rules()
	n := *show
	if n > len(rules) {
		n = len(rules)
	}
	fmt.Printf("top %d rules (MPF rank order):\n", n)
	for i := 0; i < n; i++ {
		fmt.Printf("%4d. %s\n", i+1, rules[i].String(rec.Space()))
	}

	if *demo > 0 {
		fmt.Printf("\nsample recommendations:\n")
		for i := 0; i < *demo && i < len(ds.Transactions); i++ {
			r := rec.Recommend(ds.Transactions[i].NonTarget)
			fmt.Printf("-- transaction %d --\n", i)
			for _, line := range rec.Explain(r) {
				fmt.Println(line)
			}
		}
	}

	if *save != "" {
		if err := profitmining.SaveModel(*save, ds.Catalog, spec, rec); err != nil {
			fail(err)
		}
		fmt.Printf("\nmodel saved to %s\n", *save)
	}
	if *seal != "" {
		if err := profitmining.SealModel(*seal, ds.Catalog, rec); err != nil {
			fail(err)
		}
		fmt.Printf("\nsealed model written to %s\n", *seal)
	}
}

// mineWindowed builds the initial model over the first window
// transactions and slides it through the rest of the dataset, printing
// one line per slide. The returned model covers the last window
// transactions.
func mineWindowed(ds *profitmining.Dataset, opts profitmining.Options, window, slide int) (*profitmining.Recommender, error) {
	if slide < 1 {
		return nil, fmt.Errorf("-slide must be at least 1")
	}
	if window > len(ds.Transactions) {
		window = len(ds.Transactions)
	}
	init := &profitmining.Dataset{Catalog: ds.Catalog, Transactions: ds.Transactions[:window]}
	start := time.Now()
	inc, err := profitmining.NewIncremental(init, opts)
	if err != nil {
		return nil, err
	}
	fmt.Printf("window:  initial model over %d transactions (%.2fs)\n", window, time.Since(start).Seconds())
	for pos := window; pos < len(ds.Transactions); pos += slide {
		end := pos + slide
		if end > len(ds.Transactions) {
			end = len(ds.Transactions)
		}
		start = time.Now()
		rec, err := inc.Slide(ds.Transactions[pos:end])
		if err != nil {
			return nil, fmt.Errorf("slide @%d: %w", pos, err)
		}
		st := rec.Stats()
		fmt.Printf("slide @%d: +%d transactions, %d rules, projected %.2f (%.2fs)\n",
			pos, end-pos, st.RulesFinal, st.ProjectedProfit, time.Since(start).Seconds())
	}
	fmt.Println()
	return inc.Recommender(), nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "profitminer: %v\n", err)
	os.Exit(1)
}
