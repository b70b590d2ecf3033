// Benchmark harness: one benchmark per panel of the paper's evaluation
// (Figures 3(a)–(f) for dataset I, 4(a)–(f) for dataset II, plus the two
// in-text results of Section 5.3), and micro-benchmarks for the costly
// substrates.
//
// The figure benches run the full 5-fold cross-validated sweep at a
// reduced scale (set by PM_BENCH_TXNS / PM_BENCH_ITEMS, default
// |T|=4000, |I|=100 versus the paper's 100K/1000 — minimum supports are
// relative, so the series shapes are scale-stable; see EXPERIMENTS.md)
// and print the regenerated series once. cmd/profitbench runs the same
// experiments at full scale.
//
//	go test -bench=. -benchmem
package profitmining_test

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"profitmining"
	"profitmining/internal/arena"
	"profitmining/internal/core"
	"profitmining/internal/eval"
	"profitmining/internal/mining"
	"profitmining/internal/stats"
)

// benchScale reads the benchmark scale from the environment.
func benchScale() (txns, items int) {
	txns, items = 4000, 100
	if v, err := strconv.Atoi(os.Getenv("PM_BENCH_TXNS")); err == nil && v > 0 {
		txns = v
	}
	if v, err := strconv.Atoi(os.Getenv("PM_BENCH_ITEMS")); err == nil && v > 0 {
		items = v
	}
	return txns, items
}

// benchMinSups is the minimum-support sweep used by the figure benches.
// The paper sweeps 0.05%–0.2% at |T|=100K (50–200 transactions absolute);
// at the reduced bench |T| the sweep keeps comparable absolute supports
// (8–80 at the default 4K transactions) rather than comparable relative
// ones, because absolute support is what controls both rule reliability
// and mining cost.
var benchMinSups = []float64{0.002, 0.005, 0.01, 0.02}

// benchRangeSup is the support of the profit-range panels (the paper uses
// 0.08% at |T|=100K, i.e. 80 transactions absolute).
const benchRangeSup = 0.005

type sweepResult struct {
	ds     *profitmining.Dataset
	points []profitmining.SweepPoint
}

var (
	sweepOnce  = map[string]*sync.Once{"I": {}, "II": {}}
	sweepCache = map[string]*sweepResult{}
	sweepErr   = map[string]error{}
	printOnce  sync.Map
)

// benchSweep runs (once per dataset, cached across benches) the full
// cross-validated sweep that all panels of one figure are drawn from.
func benchSweep(b *testing.B, name string) *sweepResult {
	b.Helper()
	sweepOnce[name].Do(func() {
		txns, items := benchScale()
		q := profitmining.QuestConfig{NumTransactions: txns, NumItems: items, Seed: 1}
		var ds *profitmining.Dataset
		var err error
		if name == "I" {
			ds, err = profitmining.GenerateDatasetI(q, 2)
		} else {
			ds, err = profitmining.GenerateDatasetII(q, 2)
		}
		if err != nil {
			sweepErr[name] = err
			return
		}
		points, err := profitmining.RunSweep(ds, profitmining.FlatSpaces(ds.Catalog), profitmining.SweepConfig{
			Variants:    profitmining.PaperVariants,
			MinSupports: benchMinSups,
			Behaviors:   []profitmining.Behavior{{}, eval.NearBehavior, profitmining.PaperBehavior},
			Folds:       5,
			Seed:        3,
		})
		if err != nil {
			sweepErr[name] = err
			return
		}
		sweepCache[name] = &sweepResult{ds: ds, points: points}
	})
	if sweepErr[name] != nil {
		b.Fatal(sweepErr[name])
	}
	return sweepCache[name]
}

func printPanel(key, title, body string) {
	if _, dup := printOnce.LoadOrStore(key, true); dup {
		return
	}
	fmt.Printf("\n-- %s --\n%s\n", title, body)
}

func plainPoints(ps []profitmining.SweepPoint) []profitmining.SweepPoint {
	return eval.FilterPoints(ps, func(p profitmining.SweepPoint) bool { return !p.Behavior.Enabled() })
}

// pointAt fetches the series value for reporting headline metrics.
func pointAt(b *testing.B, ps []profitmining.SweepPoint, v profitmining.Variant, ms float64) profitmining.SweepPoint {
	b.Helper()
	for _, p := range ps {
		if p.Variant == v && p.MinSupport == ms && !p.Behavior.Enabled() {
			return p
		}
	}
	b.Fatalf("missing point %s @ %g", v, ms)
	return profitmining.SweepPoint{}
}

// figGain benchmarks one gain-vs-support panel (Figures 3(a)/4(a)).
func figGain(b *testing.B, name, fig string) {
	var r *sweepResult
	for i := 0; i < b.N; i++ {
		r = benchSweep(b, name)
	}
	plain := plainPoints(r.points)
	printPanel(fig+"a", fmt.Sprintf("Figure %s(a): gain vs minimum support (dataset %s)", fig, name),
		eval.FormatGainTable(plain))
	b.ReportMetric(pointAt(b, plain, profitmining.ProfMOA, benchMinSups[0]).Metrics.Gain(), "gain(PROF+MOA)")
	b.ReportMetric(pointAt(b, plain, profitmining.ConfNoMOA, benchMinSups[0]).Metrics.Gain(), "gain(CONF-MOA)")
}

func BenchmarkFig3aGainVsSupport(b *testing.B) { figGain(b, "I", "3") }
func BenchmarkFig4aGainVsSupport(b *testing.B) { figGain(b, "II", "4") }

// figBehavior benchmarks the behavior-setting gain panels (3(b)/4(b)).
func figBehavior(b *testing.B, name, fig string) {
	var r *sweepResult
	for i := 0; i < b.N; i++ {
		r = benchSweep(b, name)
	}
	behaved := eval.FilterPoints(r.points, func(p profitmining.SweepPoint) bool {
		return p.Behavior.Enabled() && p.Variant.UsesMOA()
	})
	printPanel(fig+"b", fmt.Sprintf("Figure %s(b): gain with purchase-behavior settings (dataset %s)", fig, name),
		eval.FormatGainTable(behaved))
	for _, p := range behaved {
		if p.Variant == profitmining.ProfMOA && p.MinSupport == benchMinSups[0] &&
			p.Behavior == profitmining.PaperBehavior {
			b.ReportMetric(p.Metrics.Gain(), "gain(PROF,x3y40)")
		}
	}
}

func BenchmarkFig3bGainWithBehavior(b *testing.B) { figBehavior(b, "I", "3") }
func BenchmarkFig4bGainWithBehavior(b *testing.B) { figBehavior(b, "II", "4") }

// figHitRate benchmarks the hit-rate panels (3(c)/4(c)).
func figHitRate(b *testing.B, name, fig string) {
	var r *sweepResult
	for i := 0; i < b.N; i++ {
		r = benchSweep(b, name)
	}
	plain := plainPoints(r.points)
	printPanel(fig+"c", fmt.Sprintf("Figure %s(c): hit rate vs minimum support (dataset %s)", fig, name),
		eval.FormatHitRateTable(plain))
	b.ReportMetric(pointAt(b, plain, profitmining.ProfMOA, benchMinSups[0]).Metrics.HitRate(), "hit(PROF+MOA)")
}

func BenchmarkFig3cHitRate(b *testing.B) { figHitRate(b, "I", "3") }
func BenchmarkFig4cHitRate(b *testing.B) { figHitRate(b, "II", "4") }

// figRange benchmarks the hit-rate-by-profit-range panels (3(d)/4(d)).
func figRange(b *testing.B, name, fig string) {
	var r *sweepResult
	for i := 0; i < b.N; i++ {
		r = benchSweep(b, name)
	}
	ranged := eval.FilterPoints(r.points, func(p profitmining.SweepPoint) bool {
		return !p.Behavior.Enabled() && p.MinSupport == benchRangeSup
	})
	printPanel(fig+"d", fmt.Sprintf("Figure %s(d): hit rate by profit range at minsup %.2g%% (dataset %s)",
		fig, benchRangeSup*100, name), eval.FormatRangeHitRates(ranged))
	for _, p := range ranged {
		if p.Variant == profitmining.ProfMOA {
			b.ReportMetric(p.Metrics.RangeHitRate(2), "hiRange(PROF+MOA)")
		}
		if p.Variant == profitmining.KNN {
			b.ReportMetric(p.Metrics.RangeHitRate(2), "hiRange(kNN)")
		}
	}
}

func BenchmarkFig3dHitRateByProfit(b *testing.B) { figRange(b, "I", "3") }
func BenchmarkFig4dHitRateByProfit(b *testing.B) { figRange(b, "II", "4") }

// figProfitDist benchmarks the target-profit distribution panels (3(e)/4(e)).
func figProfitDist(b *testing.B, name, fig string) {
	r := benchSweep(b, name)
	var h fmt.Stringer
	for i := 0; i < b.N; i++ {
		h = eval.TargetProfitHistogram(r.ds, 10)
	}
	printPanel(fig+"e", fmt.Sprintf("Figure %s(e): profit distribution of target sales (dataset %s)", fig, name),
		h.String())
}

func BenchmarkFig3eProfitDistribution(b *testing.B) { figProfitDist(b, "I", "3") }
func BenchmarkFig4eProfitDistribution(b *testing.B) { figProfitDist(b, "II", "4") }

// figRules benchmarks the rule-count panels (3(f)/4(f)) including the
// in-text pre-pruning counts.
func figRules(b *testing.B, name, fig string) {
	var r *sweepResult
	for i := 0; i < b.N; i++ {
		r = benchSweep(b, name)
	}
	plain := eval.FilterPoints(plainPoints(r.points), func(p profitmining.SweepPoint) bool {
		return p.Variant.RuleBased()
	})
	body := eval.FormatRuleCountTable(plain)
	body += "\npre-pruning (generated) rule counts, PROF+MOA:\n"
	for _, p := range plain {
		if p.Variant == profitmining.ProfMOA {
			body += fmt.Sprintf("  minsup %.3g%%: %.0f generated → %.0f final\n",
				p.MinSupport*100, p.Info.RulesGenerated, p.Info.RulesFinal)
		}
	}
	printPanel(fig+"f", fmt.Sprintf("Figure %s(f): number of rules vs minimum support (dataset %s)", fig, name), body)
	b.ReportMetric(pointAt(b, plain, profitmining.ProfMOA, benchMinSups[0]).Info.RulesFinal, "rules(PROF+MOA)")
}

func BenchmarkFig3fRuleCount(b *testing.B) { figRules(b, "I", "3") }
func BenchmarkFig4fRuleCount(b *testing.B) { figRules(b, "II", "4") }

// BenchmarkKNNPostProcessing reproduces the Section 5.3 in-text result:
// profit-reranking kNN's neighbors changes the gain only marginally
// (≈+2% on dataset I, ≈−5% on dataset II in the paper).
func BenchmarkKNNPostProcessing(b *testing.B) {
	for _, name := range []string{"I", "II"} {
		r := benchSweep(b, name)
		var points []profitmining.SweepPoint
		for i := 0; i < b.N; i++ {
			var err error
			points, err = profitmining.RunSweep(r.ds, profitmining.FlatSpaces(r.ds.Catalog), profitmining.SweepConfig{
				Variants:    []profitmining.Variant{profitmining.KNN, profitmining.KNNRerank},
				MinSupports: benchMinSups[:1],
				Folds:       5,
				Seed:        3,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		var plainG, rerankG float64
		for _, p := range points {
			if p.Variant == profitmining.KNN {
				plainG = p.Metrics.Gain()
			} else {
				rerankG = p.Metrics.Gain()
			}
		}
		printPanel("knn"+name, fmt.Sprintf("Section 5.3: kNN profit-rerank (dataset %s)", name),
			fmt.Sprintf("kNN gain %.4f → rerank %.4f (Δ %+.2f%%)", plainG, rerankG, 100*(rerankG-plainG)))
		b.ReportMetric(100*(rerankG-plainG), "delta%(ds"+name+")")
	}
}

// ---- micro-benchmarks for the substrates ----

// BenchmarkBuildRecommender measures one full model build (mine +
// covering tree + cut-optimal pruning) on dataset I.
func BenchmarkBuildRecommender(b *testing.B) {
	r := benchSweep(b, "I")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := profitmining.Build(r.ds, profitmining.Options{MinSupport: 0.002})
		if err != nil {
			b.Fatal(err)
		}
		_ = rec
	}
}

// BenchmarkRecommend measures MPF query latency.
func BenchmarkRecommend(b *testing.B) {
	r := benchSweep(b, "I")
	rec, err := profitmining.Build(r.ds, profitmining.Options{MinSupport: 0.002})
	if err != nil {
		b.Fatal(err)
	}
	baskets := make([]profitmining.Basket, 0, 256)
	for i := 0; i < 256 && i < len(r.ds.Transactions); i++ {
		baskets = append(baskets, r.ds.Transactions[i].NonTarget)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rec.Recommend(baskets[i%len(baskets)])
	}
}

// BenchmarkPessimisticUpper measures the Clopper–Pearson bound, the inner
// loop of covering-tree pruning.
func BenchmarkPessimisticUpper(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = stats.PessimisticUpper(1+i%500, i%100, stats.DefaultCF)
	}
}

// BenchmarkGenerateDatasetI measures synthetic data generation.
func BenchmarkGenerateDatasetI(b *testing.B) {
	txns, items := benchScale()
	for i := 0; i < b.N; i++ {
		_, err := profitmining.GenerateDatasetI(profitmining.QuestConfig{
			NumTransactions: txns, NumItems: items, Seed: int64(i),
		}, int64(i))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalabilityBuildTime reproduces the Section 5.3 in-text claim
// that execution time is dominated by association-rule generation: it
// times mining separately from the covering-tree phases across dataset
// sizes.
func BenchmarkScalabilityBuildTime(b *testing.B) {
	sizes := []int{1000, 2000, 4000}
	var report strings.Builder
	fmt.Fprintf(&report, "%8s %10s %12s %10s\n", "|T|", "mine", "tree+prune", "mine share")
	for i := 0; i < b.N; i++ {
		report.Reset()
		fmt.Fprintf(&report, "%8s %10s %12s %10s\n", "|T|", "mine", "tree+prune", "mine share")
		for _, n := range sizes {
			ds, err := profitmining.GenerateDatasetI(profitmining.QuestConfig{
				NumTransactions: n, NumItems: 100, Seed: 7,
			}, 8)
			if err != nil {
				b.Fatal(err)
			}
			space, err := profitmining.CompileSpace(ds.Catalog, nil, true)
			if err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			mined, err := mining.Mine(space, ds.Transactions, mining.Options{MinSupport: 0.005})
			if err != nil {
				b.Fatal(err)
			}
			mineTime := time.Since(start)
			start = time.Now()
			if _, err := core.Build(space, ds.Transactions, mined, core.Config{}); err != nil {
				b.Fatal(err)
			}
			treeTime := time.Since(start)
			fmt.Fprintf(&report, "%8d %10s %12s %9.0f%%\n", n,
				mineTime.Round(time.Millisecond), treeTime.Round(time.Millisecond),
				100*float64(mineTime)/float64(mineTime+treeTime))
		}
	}
	printPanel("scalability", "Section 5.3: execution time dominated by rule generation", report.String())
}

// ---- CI gates: a property checked at a fixed input and bound ----
//
// Each gate runs its whole input once per iteration and fails when its
// property breaks; CI runs them with -benchtime 1x. Inputs and bounds
// are constants, not read from the environment, so every run checks
// the same thing.

// gateDatasetI generates Dataset I at the given scale with the seeds
// cmd/profitbench uses by default.
func gateDatasetI(b *testing.B, txns, items int) *profitmining.Dataset {
	b.Helper()
	ds, err := profitmining.GenerateDatasetI(profitmining.QuestConfig{
		NumTransactions: txns, NumItems: items, Seed: 1,
	}, 2)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// modelBytes returns what the determinism gates compare: the model's v2
// export followed by its sealed image.
func modelBytes(b *testing.B, cat *profitmining.Catalog, rec *profitmining.Recommender) []byte {
	b.Helper()
	var buf bytes.Buffer
	if err := profitmining.WriteModel(&buf, cat, nil, rec); err != nil {
		b.Fatal(err)
	}
	buf.Write(rec.Sealed().Bytes())
	return buf.Bytes()
}

// BenchmarkParallelBuild builds Dataset I at 8,000 × 120 and 0.1%
// support serially and with four workers and fails unless the two
// models are byte-identical: TestParallelBuildIsByteIdentical's
// contract at a scale where every counting and projection pass spans
// several shards. Both build times are reported; the speedup depends on
// the host's cores.
func BenchmarkParallelBuild(b *testing.B) {
	ds := gateDatasetI(b, 8000, 120)
	for i := 0; i < b.N; i++ {
		var built [2][]byte
		for j, workers := range []int{1, 4} {
			start := time.Now()
			rec, err := profitmining.Build(ds, profitmining.Options{
				MinSupport: 0.001, MaxBodyLen: 3, Parallelism: workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(time.Since(start).Seconds(), fmt.Sprintf("build-s/workers=%d", workers))
			built[j] = modelBytes(b, ds.Catalog, rec)
		}
		if !bytes.Equal(built[0], built[1]) {
			b.Fatalf("the 4-worker build differs from the serial build (%d vs %d bytes)", len(built[1]), len(built[0]))
		}
	}
}

// maxAvgSlideSeconds bounds the average slide of
// BenchmarkIncrementalSlide. CI runs it at GOMAXPROCS=1, where a slide
// re-mines and rebuilds the whole 16,384-transaction window on one
// core; the bound is a regression gate on that cost, not a measurement.
const maxAvgSlideSeconds = 1.4

// BenchmarkIncrementalSlide maintains a model over a 16,384-transaction
// window of Dataset I (1,000 items, 0.4% support) through four slides
// of 1,024. After every slide it rebuilds the same window from scratch
// and fails unless the two models are byte-identical, and it fails if
// the average slide takes longer than maxAvgSlideSeconds.
func BenchmarkIncrementalSlide(b *testing.B) {
	const window, slide, slides = 16384, 1024, 4
	ds := gateDatasetI(b, window+slide*slides, 1000)
	opts := profitmining.Options{MinSupport: 0.004, MaxBodyLen: 3}
	for i := 0; i < b.N; i++ {
		inc, err := profitmining.NewIncremental(&profitmining.Dataset{
			Catalog: ds.Catalog, Transactions: ds.Transactions[:window],
		}, opts)
		if err != nil {
			b.Fatal(err)
		}
		var slideTime time.Duration
		for at := window; at < window+slide*slides; at += slide {
			start := time.Now()
			rec, err := inc.Slide(ds.Transactions[at : at+slide])
			if err != nil {
				b.Fatal(err)
			}
			slideTime += time.Since(start)
			full, err := profitmining.Build(&profitmining.Dataset{Catalog: ds.Catalog, Transactions: inc.Window()}, opts)
			if err != nil {
				b.Fatal(err)
			}
			if !bytes.Equal(modelBytes(b, ds.Catalog, rec), modelBytes(b, ds.Catalog, full)) {
				b.Fatalf("slide at %d: the maintained model differs from a rebuild of its window", at)
			}
		}
		avg := slideTime.Seconds() / slides
		b.ReportMetric(avg, "s/slide")
		if avg > maxAvgSlideSeconds {
			b.Fatalf("average slide %.3fs exceeds the %.1fs bound", avg, maxAvgSlideSeconds)
		}
	}
}

// maxOpenRatio bounds how much longer BenchmarkSealedOpen's largest
// image may take to open than its smallest.
const maxOpenRatio = 2

// BenchmarkSealedOpen times opening a sealed image held in memory,
// arena.OpenBytes plus core.FromSealed, at three Dataset I scales whose
// images span about 22× in size. Opening must stay O(1) in model size:
// the gate fails if the largest image opens more than maxOpenRatio
// times slower than the smallest, or if the scales differ in
// allocations per open. Reading a file and Verify are O(file) and are
// not timed here.
func BenchmarkSealedOpen(b *testing.B) {
	scales := []struct {
		txns, items int
		minsup      float64
	}{
		{2000, 100, 0.03},
		{8000, 400, 0.004},
		{16000, 800, 0.0015},
	}
	images := make([][]byte, len(scales))
	final := make([]int, len(scales))
	for i, sc := range scales {
		rec, err := profitmining.Build(gateDatasetI(b, sc.txns, sc.items),
			profitmining.Options{MinSupport: sc.minsup, MaxBodyLen: 3})
		if err != nil {
			b.Fatal(err)
		}
		images[i], final[i] = rec.Sealed().Bytes(), rec.Stats().RulesFinal
	}
	open := func(i int) {
		m, err := arena.OpenBytes(images[i])
		if err != nil {
			b.Fatal(err)
		}
		rec, err := core.FromSealed(m)
		if err != nil {
			b.Fatal(err)
		}
		if rec.Stats().RulesFinal != final[i] {
			b.Fatalf("scale %d: the opened image holds %d final rules, the build %d", i, rec.Stats().RulesFinal, final[i])
		}
	}
	// The best of several rounds, the scales interleaved within each, so
	// host noise cannot land on one scale alone and decide the ratio.
	const rounds, opensPerRound = 10, 1000
	for n := 0; n < b.N; n++ {
		best := make([]time.Duration, len(images))
		for r := 0; r < rounds; r++ {
			for i := range images {
				start := time.Now()
				for k := 0; k < opensPerRound; k++ {
					open(i)
				}
				if d := time.Since(start) / opensPerRound; r == 0 || d < best[i] {
					best[i] = d
				}
			}
		}
		allocs := make([]int, len(images))
		for i := range images {
			allocs[i] = int(testing.AllocsPerRun(100, func() { open(i) }))
			b.ReportMetric(float64(best[i].Nanoseconds()), fmt.Sprintf("open-ns/%.1fMiB", float64(len(images[i]))/(1<<20)))
		}
		last := len(images) - 1
		ratio := float64(best[last]) / float64(best[0])
		b.ReportMetric(ratio, "open-ratio")
		b.ReportMetric(float64(allocs[last]), "allocs/open")
		if ratio > maxOpenRatio {
			b.Errorf("the %.1f MiB image opens %.2fx slower than the %.1f MiB one (bound %dx): open is not O(1) in model size",
				float64(len(images[last]))/(1<<20), ratio, float64(len(images[0]))/(1<<20), maxOpenRatio)
		}
		for _, a := range allocs {
			if a != allocs[0] {
				b.Errorf("allocations per open differ across scales: %v", allocs)
				break
			}
		}
	}
}

// ---- ablation benches for the design choices called out in DESIGN.md ----

// heldOutGain builds on 80% of the dataset and evaluates MOA-hit gain on
// the held-out 20%.
func heldOutGain(b *testing.B, ds *profitmining.Dataset, opts profitmining.Options) (float64, int) {
	b.Helper()
	cut := len(ds.Transactions) * 4 / 5
	train := &profitmining.Dataset{Catalog: ds.Catalog, Transactions: ds.Transactions[:cut]}
	rec, err := profitmining.Build(train, opts)
	if err != nil {
		b.Fatal(err)
	}
	m := profitmining.Evaluate(ds.Catalog, ds.Transactions[cut:],
		profitmining.RecommenderFunc(rec), profitmining.EvalOptions{MOAHits: true})
	return m.Gain(), rec.Stats().RulesFinal
}

// BenchmarkAblationPruning compares the cut-optimal recommender against
// the unpruned MPF recommender on held-out gain and model size — the
// Section 4 design choice in isolation.
func BenchmarkAblationPruning(b *testing.B) {
	r := benchSweep(b, "I")
	var prunedGain, rawGain float64
	var prunedRules, rawRules int
	for i := 0; i < b.N; i++ {
		prunedGain, prunedRules = heldOutGain(b, r.ds, profitmining.Options{MinSupport: 0.005})
		rawGain, rawRules = heldOutGain(b, r.ds, profitmining.Options{MinSupport: 0.005, DisablePruning: true})
	}
	printPanel("ablation-prune", "Ablation: cut-optimal pruning vs raw MPF recommender",
		fmt.Sprintf("cut-optimal: gain %.4f with %d rules\nraw MPF:     gain %.4f with %d rules",
			prunedGain, prunedRules, rawGain, rawRules))
	b.ReportMetric(prunedGain, "gain(pruned)")
	b.ReportMetric(rawGain, "gain(raw)")
	b.ReportMetric(float64(prunedRules), "rules(pruned)")
	b.ReportMetric(float64(rawRules), "rules(raw)")
}

// BenchmarkAblationHierarchy compares mining with and without the concept
// hierarchy on the grocery dataset — the [SA95, HF95] multi-level bodies.
func BenchmarkAblationHierarchy(b *testing.B) {
	g := profitmining.NewGrocery(4000, 9)
	var withGain, flatGain float64
	var withRules, flatRules int
	for i := 0; i < b.N; i++ {
		withGain, withRules = heldOutGain(b, g.Dataset, profitmining.Options{MinSupport: 0.01, Hierarchy: g.Builder})
		flatGain, flatRules = heldOutGain(b, g.Dataset, profitmining.Options{MinSupport: 0.01})
	}
	printPanel("ablation-hier", "Ablation: concept hierarchy vs flat item space (grocery)",
		fmt.Sprintf("with hierarchy: gain %.4f with %d rules\nflat:           gain %.4f with %d rules",
			withGain, withRules, flatGain, flatRules))
	b.ReportMetric(withGain, "gain(hier)")
	b.ReportMetric(flatGain, "gain(flat)")
}

// BenchmarkAblationInterest measures the R-interest filter ([SA95]
// adapted to Prof_re): rule-set size and held-out gain with and without
// MinInterest.
func BenchmarkAblationInterest(b *testing.B) {
	r := benchSweep(b, "I")
	var plainGain, filteredGain float64
	var plainRules, filteredRules int
	for i := 0; i < b.N; i++ {
		plainGain, plainRules = heldOutGain(b, r.ds, profitmining.Options{MinSupport: 0.005})
		filteredGain, filteredRules = heldOutGain(b, r.ds, profitmining.Options{MinSupport: 0.005, MinInterest: 1.2})
	}
	printPanel("ablation-interest", "Ablation: R-interest filter (MinInterest 1.2)",
		fmt.Sprintf("plain:      gain %.4f with %d rules\nR-interest: gain %.4f with %d rules",
			plainGain, plainRules, filteredGain, filteredRules))
	b.ReportMetric(plainGain, "gain(plain)")
	b.ReportMetric(filteredGain, "gain(interest)")
	b.ReportMetric(float64(filteredRules), "rules(interest)")
}

// BenchmarkAblationBuyingMOA compares saving and buying MOA estimation
// (Section 3.1) under matched evaluation.
func BenchmarkAblationBuyingMOA(b *testing.B) {
	r := benchSweep(b, "I")
	cut := len(r.ds.Transactions) * 4 / 5
	train := &profitmining.Dataset{Catalog: r.ds.Catalog, Transactions: r.ds.Transactions[:cut]}
	holdout := r.ds.Transactions[cut:]
	var savingGain, buyingGain float64
	for i := 0; i < b.N; i++ {
		recS, err := profitmining.Build(train, profitmining.Options{MinSupport: 0.005})
		if err != nil {
			b.Fatal(err)
		}
		recB, err := profitmining.Build(train, profitmining.Options{MinSupport: 0.005, Quantity: profitmining.BuyingMOA{}})
		if err != nil {
			b.Fatal(err)
		}
		savingGain = profitmining.Evaluate(r.ds.Catalog, holdout, profitmining.RecommenderFunc(recS),
			profitmining.EvalOptions{MOAHits: true}).Gain()
		buyingGain = profitmining.Evaluate(r.ds.Catalog, holdout, profitmining.RecommenderFunc(recB),
			profitmining.EvalOptions{MOAHits: true, Quantity: profitmining.BuyingMOA{}}).Gain()
	}
	printPanel("ablation-buying", "Ablation: saving MOA vs buying MOA (dataset I)",
		fmt.Sprintf("saving MOA: gain %.4f (≤ 1 by construction)\nbuying MOA: gain %.4f (spending preserved, can exceed recorded profit per hit)",
			savingGain, buyingGain))
	b.ReportMetric(savingGain, "gain(saving)")
	b.ReportMetric(buyingGain, "gain(buying)")
}
