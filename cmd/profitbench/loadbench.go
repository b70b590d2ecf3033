package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"profitmining"
	"profitmining/internal/arena"
	"profitmining/internal/core"
)

// loadScale is one model size in the -loadbench sweep. The three scales
// are chosen to spread the sealed file size by well over an order of
// magnitude, so the gate below can distinguish O(1) open from anything
// that walks the model.
type loadScale struct {
	Label  string
	Txns   int
	Items  int
	MinSup float64
}

var loadScales = []loadScale{
	{Label: "small", Txns: 2000, Items: 100, MinSup: 0.03},
	{Label: "medium", Txns: 8000, Items: 400, MinSup: 0.004},
	{Label: "large", Txns: 16000, Items: 800, MinSup: 0.0015},
}

// loadSizeStats is the per-size record of the -loadbench JSON artifact.
type loadSizeStats struct {
	Label            string  `json:"label"`
	Txns             int     `json:"txns"`
	Items            int     `json:"items"`
	MinSupport       float64 `json:"minSupport"`
	Rules            int     `json:"rules"`
	SealedBytes      int64   `json:"sealedBytes"`
	SealedOpenMs     float64 `json:"sealedOpenMs"`
	SealedOpenAllocs float64 `json:"sealedOpenAllocs"`
}

// loadReport is the schema of the -loadbench JSON artifact consumed by
// CI.
type loadReport struct {
	Iters           int             `json:"iters"`
	Sizes           []loadSizeStats `json:"sizes"`
	SizeSpread      float64         `json:"sizeSpread"`
	SealedOpenRatio float64         `json:"sealedOpenRatio"`
	MaxOpenRatio    float64         `json:"maxOpenRatio"`
	Pass            bool            `json:"pass"`
}

// runLoadBench measures the cold sealed open at three model sizes. The
// timing is arena.OpenFile + core.FromSealed without Verify — Verify is
// the O(file) trust gate run once per staged content hash, while open
// is the per-process (and per-hot-swap) cost whose O(1) claim this
// benchmark enforces: sealed open time may grow at most maxRatio from
// the smallest to the largest model while the file size spreads ~16×.
func runLoadBench(seed int64, iters int, maxRatio float64, out string) {
	if iters < 1 {
		iters = 1
	}
	dir, err := os.MkdirTemp("", "pmloadbench")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)

	sizes := make([]loadSizeStats, 0, len(loadScales))
	for _, sc := range loadScales {
		st, err := benchOneScale(sc, seed, iters, dir)
		if err != nil {
			fail(err)
		}
		fmt.Printf("loadbench: %-6s %5d rules, sealed %7.1f KiB open %8.3fms (%.0f allocs)\n",
			st.Label, st.Rules, float64(st.SealedBytes)/1024, st.SealedOpenMs, st.SealedOpenAllocs)
		sizes = append(sizes, st)
	}

	first, last := sizes[0], sizes[len(sizes)-1]
	rep := loadReport{
		Iters:           iters,
		Sizes:           sizes,
		SizeSpread:      safeRatio(float64(last.SealedBytes), float64(first.SealedBytes)),
		SealedOpenRatio: safeRatio(last.SealedOpenMs, first.SealedOpenMs),
		MaxOpenRatio:    maxRatio,
	}
	rep.Pass = rep.SealedOpenRatio <= maxRatio
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fail(err)
	}

	fmt.Printf("loadbench: sealed file size spread %.1fx; sealed open grew %.2fx (gate ≤%.1fx); report: %s\n",
		rep.SizeSpread, rep.SealedOpenRatio, maxRatio, out)
	if !rep.Pass {
		fail(fmt.Errorf("sealed open grew %.2fx from %s to %s (gate %.1fx): open is not O(1) in model size",
			rep.SealedOpenRatio, first.Label, last.Label, maxRatio))
	}
	fmt.Println("loadbench: sealed open is flat across the size spread")
}

// benchOneScale builds one model, seals it to a file and times its
// cold open.
func benchOneScale(sc loadScale, seed int64, iters int, dir string) (loadSizeStats, error) {
	st := loadSizeStats{Label: sc.Label, Txns: sc.Txns, Items: sc.Items, MinSupport: sc.MinSup}
	ds := genDataset("I", sc.Txns, sc.Items, seed)
	rec, err := profitmining.Build(ds, profitmining.Options{MinSupport: sc.MinSup, MaxBodyLen: 3})
	if err != nil {
		return st, err
	}
	st.Rules = rec.Stats().RulesFinal

	sealedPath := filepath.Join(dir, sc.Label+".pma")
	if err := profitmining.SealModel(sealedPath, ds.Catalog, rec); err != nil {
		return st, err
	}
	if st.SealedBytes, err = fileSize(sealedPath); err != nil {
		return st, err
	}

	st.SealedOpenMs, st.SealedOpenAllocs, err = timeLoads(iters, func() error {
		m, err := arena.OpenFile(sealedPath, arena.Options{})
		if err != nil {
			return err
		}
		srec, err := core.FromSealed(m)
		if err != nil {
			m.Arena().Close()
			return err
		}
		if srec.Stats().RulesFinal != st.Rules {
			m.Arena().Close()
			return fmt.Errorf("sealed open of %s changed the rule count", sc.Label)
		}
		return m.Arena().Close()
	})
	return st, err
}

// timeLoads runs f iters times and returns mean wall milliseconds and
// mean heap allocations per call. A GC fence before the loop keeps
// collector noise from a previous measurement out of the alloc counts.
func timeLoads(iters int, f func() error) (ms, allocs float64, err error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := f(); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	ms = elapsed.Seconds() * 1000 / float64(iters)
	allocs = float64(after.Mallocs-before.Mallocs) / float64(iters)
	return ms, allocs, nil
}

func fileSize(path string) (int64, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}
