package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"profitmining"
)

// incReport is the schema of the -incbench JSON artifact consumed by CI.
type incReport struct {
	Dataset        string  `json:"dataset"`
	Txns           int     `json:"txns"`
	Items          int     `json:"items"`
	MinSupport     float64 `json:"minSupport"`
	Window         int     `json:"window"`
	Slide          int     `json:"slide"`
	Slides         int     `json:"slides"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	InitSeconds    float64 `json:"initSeconds"`
	IncSeconds     float64 `json:"incSeconds"`
	RebuildSeconds float64 `json:"rebuildSeconds"`
	Identical      bool    `json:"identical"`
	RulesFinal     int     `json:"rulesFinal"`
}

// maxAvgSlideSeconds bounds the average slide of -incbench. CI runs it
// at GOMAXPROCS=1 on the default input (1,000 items, a 16,384-transaction
// window at 0.4% support, four slides of 1,024), where a slide re-mines
// and rebuilds the whole window; the bound is a regression gate on that
// cost, not a measurement.
const maxAvgSlideSeconds = 1.4

// runIncBench maintains a model over a sliding window and, after every
// slide, rebuilds the same window from scratch as the byte-identity
// oracle. Divergence is a hard failure (exit 1), as is an average slide
// slower than maxAvgSlideSeconds.
func runIncBench(name string, txns, items int, minsup float64, maxLen int, seed int64, window, slide, slides int, out string) {
	if window < 1 || slide < 1 || slides < 1 {
		fail(fmt.Errorf("incbench: -incwindow, -incslide and -incslides must be positive"))
	}
	if need := window + slide*slides; txns < need {
		txns = need
	}
	ds := genDataset(name, txns, items, seed)
	opts := profitmining.Options{MinSupport: minsup, MaxBodyLen: maxLen}

	start := time.Now()
	inc, err := profitmining.NewIncremental(&profitmining.Dataset{
		Catalog:      ds.Catalog,
		Transactions: ds.Transactions[:window],
	}, opts)
	if err != nil {
		fail(err)
	}
	initSecs := time.Since(start).Seconds()
	fmt.Printf("incbench: dataset %s |I|=%d minsup %g, window %d, slide %d ×%d\n",
		name, items, minsup, window, slide, slides)
	fmt.Printf("incbench: initial model in %.2fs, %d rules\n",
		initSecs, inc.Recommender().Stats().RulesFinal)

	saved := func(rec *profitmining.Recommender) []byte {
		var buf bytes.Buffer
		if err := profitmining.WriteModel(&buf, ds.Catalog, nil, rec); err != nil {
			fail(err)
		}
		return buf.Bytes()
	}

	var incSecs, rebuildSecs float64
	identical := true
	for i := 0; i < slides; i++ {
		at := window + i*slide
		batch := ds.Transactions[at : at+slide]

		t0 := time.Now()
		rec, err := inc.Slide(batch)
		if err != nil {
			fail(fmt.Errorf("incbench: slide @%d: %w", at, err))
		}
		ds2 := time.Since(t0).Seconds()
		incSecs += ds2

		cur := &profitmining.Dataset{Catalog: ds.Catalog, Transactions: inc.Window()}
		t0 = time.Now()
		full, err := profitmining.Build(cur, opts)
		if err != nil {
			fail(fmt.Errorf("incbench: rebuild @%d: %w", at, err))
		}
		rb := time.Since(t0).Seconds()
		rebuildSecs += rb

		same := bytes.Equal(saved(rec), saved(full))
		if !same {
			identical = false
		}
		fmt.Printf("incbench: slide @%d: %.3fs, rebuild %.3fs, identical=%v\n", at, ds2, rb, same)
	}

	rep := incReport{
		Dataset:        name,
		Txns:           txns,
		Items:          items,
		MinSupport:     minsup,
		Window:         window,
		Slide:          slide,
		Slides:         slides,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		InitSeconds:    initSecs,
		IncSeconds:     incSecs,
		RebuildSeconds: rebuildSecs,
		Identical:      identical,
		RulesFinal:     inc.Recommender().Stats().RulesFinal,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fail(err)
	}

	avg := incSecs / float64(slides)
	fmt.Printf("incbench: %d slides in %.2fs (%.3fs each), rebuilds %.2fs; report: %s\n",
		slides, incSecs, avg, rebuildSecs, out)
	if !identical {
		fail(fmt.Errorf("incremental model diverged from the full rebuild"))
	}
	fmt.Println("incbench: incremental model byte-identical to every rebuild")
	if avg > maxAvgSlideSeconds {
		fail(fmt.Errorf("average slide %.3fs exceeds the %.1fs bound", avg, maxAvgSlideSeconds))
	}
}
