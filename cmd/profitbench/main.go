// Command profitbench reproduces the paper's full evaluation (Figures 3
// and 4 of Wang–Zhou–Han, EDBT 2002) at a configurable scale and prints
// one table per figure panel.
//
// Full paper scale (|T|=100K, |I|=1000 — takes a while):
//
//	profitbench -dataset both -txns 100000 -items 1000
//
// A laptop-sized run preserving the shapes:
//
//	profitbench -dataset I -txns 10000 -items 200
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"profitmining"
	"profitmining/internal/eval"
	"profitmining/internal/floats"
)

func main() {
	var (
		dataset  = flag.String("dataset", "I", `dataset: "I", "II" or "both"`)
		txns     = flag.Int("txns", 10000, "number of transactions (paper: 100000)")
		items    = flag.Int("items", 200, "number of non-target items (paper: 1000)")
		minsups  = flag.String("minsups", "0.0005,0.001,0.002,0.005,0.01", "comma-separated minimum supports")
		rangeSup = flag.Float64("rangesup", 0.0008, "minimum support for the profit-range panel (paper: 0.08%)")
		folds    = flag.Int("folds", 5, "cross-validation folds")
		maxLen   = flag.Int("maxlen", 3, "maximum rule body length")
		seed     = flag.Int64("seed", 1, "random seed")
		knnK     = flag.Int("k", 5, "kNN neighbor count")
		csvDir   = flag.String("csv", "", "also write raw sweep points as CSV into this directory")
		par      = flag.Int("parallel", 0, "per-build worker count (0 = one per CPU, 1 = serial; identical output either way)")
	)
	flag.Parse()

	sups, err := parseFloats(*minsups)
	if err != nil {
		fail(err)
	}

	var names []string
	switch *dataset {
	case "I", "i", "1":
		names = []string{"I"}
	case "II", "ii", "2":
		names = []string{"II"}
	case "both":
		names = []string{"I", "II"}
	default:
		fail(fmt.Errorf("unknown dataset %q", *dataset))
	}

	for _, name := range names {
		runDataset(name, *txns, *items, sups, *rangeSup, *folds, *maxLen, *seed, *knnK, *par, *csvDir)
	}
}

// genDataset generates synthetic dataset I or II at the given scale.
func genDataset(name string, txns, items int, seed int64) *profitmining.Dataset {
	q := profitmining.QuestConfig{NumTransactions: txns, NumItems: items, Seed: seed}
	var ds *profitmining.Dataset
	var err error
	if name == "I" {
		ds, err = profitmining.GenerateDatasetI(q, seed+1)
	} else {
		ds, err = profitmining.GenerateDatasetII(q, seed+1)
	}
	if err != nil {
		fail(err)
	}
	return ds
}

func runDataset(name string, txns, items int, sups []float64, rangeSup float64, folds, maxLen int, seed int64, knnK, par int, csvDir string) {
	fig := "3"
	if name == "II" {
		fig = "4"
	}
	fmt.Printf("==============================================================\n")
	fmt.Printf("Dataset %s  (|T|=%d, |I|=%d, %d-fold CV; paper Figure %s)\n", name, txns, items, folds, fig)
	fmt.Printf("==============================================================\n\n")

	ds := genDataset(name, txns, items, seed)
	spaces := profitmining.FlatSpaces(ds.Catalog)

	// Figure (e): profit distribution of target sales — cheap, print
	// first while the sweep runs.
	fmt.Printf("-- Figure %s(e): profit distribution of target sales --\n", fig)
	fmt.Println(eval.TargetProfitHistogram(ds, 10).String())

	allSups := append([]float64(nil), sups...)
	if !contains(allSups, rangeSup) {
		allSups = append(allSups, rangeSup)
	}

	start := time.Now()
	points, err := profitmining.RunSweep(ds, spaces, profitmining.SweepConfig{
		Variants:    profitmining.PaperVariants,
		MinSupports: allSups,
		Behaviors: []profitmining.Behavior{
			{},
			eval.NearBehavior,
			profitmining.PaperBehavior,
		},
		Folds:  folds,
		Seed:   seed,
		Config: eval.VariantConfig{MaxBodyLen: maxLen, K: knnK, Parallelism: par},
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("(sweep: %d points in %.1fs)\n\n", len(points), time.Since(start).Seconds())

	if csvDir != "" {
		path := filepath.Join(csvDir, "dataset"+name+".csv")
		f, err := os.Create(path)
		if err != nil {
			fail(err)
		}
		if err := eval.WriteSweepCSV(f, points); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("(raw points written to %s)\n\n", path)
	}

	onSweep := func(p profitmining.SweepPoint) bool { return contains(sups, p.MinSupport) }
	plain := eval.FilterPoints(points, func(p profitmining.SweepPoint) bool {
		return !p.Behavior.Enabled() && onSweep(p)
	})

	fmt.Printf("-- Figure %s(a): gain vs minimum support --\n", fig)
	fmt.Println(eval.FormatGainTable(plain))
	fmt.Printf("   per-fold variability (PROF+MOA):\n")
	fmt.Print(eval.FormatGainStdTable(eval.FilterPoints(plain, func(p profitmining.SweepPoint) bool {
		return p.Variant == profitmining.ProfMOA
	})))
	fmt.Println()

	fmt.Printf("-- Figure %s(b): gain with purchase-behavior settings (MOA recommenders) --\n", fig)
	behaved := eval.FilterPoints(points, func(p profitmining.SweepPoint) bool {
		return p.Behavior.Enabled() && p.Variant.UsesMOA() && onSweep(p)
	})
	fmt.Println(eval.FormatGainTable(behaved))

	fmt.Printf("-- Figure %s(c): hit rate vs minimum support --\n", fig)
	fmt.Println(eval.FormatHitRateTable(plain))

	fmt.Printf("-- Figure %s(d): hit rate by profit range (minsup %.3g%%) --\n", fig, rangeSup*100)
	ranged := eval.FilterPoints(points, func(p profitmining.SweepPoint) bool {
		return !p.Behavior.Enabled() && floats.Eq(p.MinSupport, rangeSup)
	})
	fmt.Println(eval.FormatRangeHitRates(ranged))

	fmt.Printf("-- Figure %s(f): number of rules vs minimum support (after pruning) --\n", fig)
	fmt.Println(eval.FormatRuleCountTable(eval.FilterPoints(plain, func(p profitmining.SweepPoint) bool {
		return p.Variant.RuleBased()
	})))
	fmt.Printf("   pre-pruning rule counts (generated, incl. default):\n")
	pre := eval.FilterPoints(plain, func(p profitmining.SweepPoint) bool { return p.Variant == profitmining.ProfMOA })
	for _, p := range pre {
		fmt.Printf("   PROF+MOA minsup %.3g%%: %.0f generated → %.0f final (×%.0f reduction)\n",
			p.MinSupport*100, p.Info.RulesGenerated, p.Info.RulesFinal,
			safeRatio(p.Info.RulesGenerated, p.Info.RulesFinal))
	}
	fmt.Println()

	// Section 5.3 text: the kNN post-processing variant.
	fmt.Printf("-- Section 5.3: kNN profit-rerank post-processing --\n")
	rerank, err := profitmining.RunSweep(ds, spaces, profitmining.SweepConfig{
		Variants:    []profitmining.Variant{profitmining.KNN, profitmining.KNNRerank},
		MinSupports: sups[:1],
		Folds:       folds,
		Seed:        seed,
		Config:      eval.VariantConfig{K: knnK},
	})
	if err != nil {
		fail(err)
	}
	var g, gr float64
	for _, p := range rerank {
		if p.Variant == profitmining.KNN {
			g = p.Metrics.Gain()
		} else {
			gr = p.Metrics.Gain()
		}
	}
	fmt.Printf("   kNN gain %.4f → rerank %.4f (Δ %+.1f%%)\n\n", g, gr, 100*(gr-g))
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad minsup %q: %w", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no minimum supports given")
	}
	return out, nil
}

// contains reports whether v is one of the sweep-grid values. The
// tolerant comparison keeps grid membership robust when support levels
// are recomputed (e.g. percent -> fraction round trips).
func contains(xs []float64, v float64) bool {
	for _, x := range xs {
		if floats.Eq(x, v) {
			return true
		}
	}
	return false
}

func safeRatio(a, b float64) float64 {
	if b == 0 { //lint:allow floatcmp -- exact guard for the division below; any nonzero denominator is valid
		return 0
	}
	return a / b
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "profitbench: %v\n", err)
	os.Exit(1)
}
