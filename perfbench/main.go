// Command perfbench is the repository's benchmark. One run plays one
// workload from a seed for a fixed time, checks the program's outputs,
// and prints its metrics as the last line of standard output:
//
//	go run . --workload serve --seed 3 --seconds 10 --trace 0
//
// Workloads: serve, refresh, fleet (see README.md for what each runs
// and why). --trace 0 prints the end-to-end metrics; --trace 1
// records a span around every call into a layer, prints the per-layer
// metrics and writes the spans to .bench_build/traces/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run prints, on every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"recommend_p50_ms", "ms"},
	{"holdout_gain", "ratio"},
}

// perLayer lists the metrics every traced run prints. A layer a workload
// does not exercise reads 0.
var perLayer = []metricDef{
	{"hierarchy.compile_s", "s"},
	{"mining.mine_s", "s"},
	{"mining.alloc_mb", "MB"},
	{"mining.rules_generated", "count"},
	{"core.build_s", "s"},
	{"core.alloc_mb", "MB"},
	{"core.rules_final", "count"},
	{"core.keep_ratio", "ratio"},
	{"modelio.seal_s", "s"},
	{"modelio.sealed_mb", "MB"},
	{"modelio.open_s", "s"},
	{"registry.validate_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.cpu_us_per_req", "us"},
	{"runtime.alloc_kb_per_req", "KB"},
	{"serve.recommend_us_p50", "us"},
	{"serve.recommend_us_p95", "us"},
	{"serve.batch_us_p50", "us"},
	{"serve.outcome_us_p50", "us"},
	{"serve.recommend_p99_ms", "ms"},
	{"serve.recommend_max_ms", "ms"},
	{"serve.first_request_ms", "ms"},
	{"serve.recommend_us_p95_in_cycle", "us"},
	{"serve.recommend_us_p95_between", "us"},
	{"net.recommend_us_p50", "us"},
	{"loadgen.late_ratio", "ratio"},
	{"loadgen.send_lag_us_p95", "us"},
	{"core.topk_ns", "ns"},
	{"hierarchy.expand_ns", "ns"},
	{"feedback.outcomes_acked", "count"},
	{"feedback.wal_bytes_per_outcome", "B"},
	{"incremental.refresh_s", "s"},
	{"mining.slide_s", "s"},
	{"core.tree_update_s", "s"},
	{"modelio.identity_s", "s"},
	{"registry.submit_s", "s"},
	{"refresh.cycles", "count"},
	{"refresh.rejected", "count"},
	{"cluster.hop_us_p50", "us"},
	{"cluster.hop_us_p95", "us"},
	{"cluster.replica_us_p50", "us"},
	{"cluster.hedges", "count"},
	{"cluster.failovers", "count"},
	{"cluster.hedge_wins", "count"},
	{"cluster.sync_s", "s"},
	{"cluster.first_request_after_sync_ms", "ms"},
	{"cluster.ship_s", "s"},
	{"cluster.segments_shipped", "count"},
	{"cluster.spool_outcomes", "count"},
	{"client.build_s", "s"},
	{"client.recommend_p95_ms", "ms"},
	{"client.recommend_n", "count"},
	{"client.outcome_p50_ms", "ms"},
	{"client.outcome_p95_ms", "ms"},
	{"client.outcome_n", "count"},
	{"client.batch_p50_ms", "ms"},
	{"client.batch_p95_ms", "ms"},
	{"client.batch_n", "count"},
	{"client.recommend_rps", "1/s"},
	{"client.refresh_p50_s", "s"},
	{"client.rollout_p50_s", "s"},
	{"client.recommend_p95_during_change_ms", "ms"},
	{"client.fail_ratio", "ratio"},
	{"traced.setup_s", "s"},
	{"traced.peak_rss_mb", "MB"},
	{"traced.recommend_p50_ms", "ms"},
	{"traced.holdout_gain", "ratio"},
}

// run is what a workload is handed: its seed, how long to measure, the
// tracer (nil when untraced) and a scratch directory inside the checkout.
type run struct {
	seed    int64
	measure time.Duration
	tr      *tracer
	dir     string
}

// report is what a workload returns. e2e holds every endToEnd metric;
// layer holds the per-layer ones it measured (the rest read 0).
type report struct {
	attempted, failed int64
	checks            []error // failed output checks
	e2e               map[string]float64
	layer             map[string]float64
}

func newReport() *report {
	return &report{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

// check records a failed output check when err is non-nil.
func (r *report) check(err error) {
	if err != nil {
		r.checks = append(r.checks, err)
	}
}

var workloads = map[string]func(*run) (*report, error){
	"serve":   runServe,
	"refresh": runRefresh,
	"fleet":   runFleet,
}

func main() {
	workload := flag.String("workload", "", "workload to run: serve, refresh or fleet")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 10, "how long the run measures")
	traceOn := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	describe := flag.String("describe", "unknown", "git describe of the code under test, for the result's host context")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *workload))
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fail(err)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fail(err)
	}
	r := &run{seed: *seed, measure: time.Duration(*seconds * float64(time.Second)), dir: dir}
	if *traceOn == 1 {
		r.tr = newTracer()
	}
	rep, err := fn(r)
	os.RemoveAll(dir)
	if err != nil {
		fail(err)
	}
	if err := finish(rep, r.tr, *workload, *seed); err != nil {
		fail(err)
	}
	emit(map[string]any{"context": map[string]any{
		"workload":   *workload,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *traceOn,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"describe":   *describe,
	}})
	defs, values := endToEnd, rep.e2e
	if r.tr != nil {
		defs, values = perLayer, rep.layer
	}
	metrics := make(map[string]any, len(defs))
	for _, m := range defs {
		metrics[m.name] = map[string]any{"value": values[m.name], "unit": m.unit}
	}
	emit(map[string]any{
		"correct":   len(rep.checks) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	if len(rep.checks) > 0 {
		os.Exit(1)
	}
}

// finish adds the metrics every workload shares, writes the trace and
// checks that the workload reported only declared metrics.
func finish(rep *report, tr *tracer, workload string, seed int64) error {
	rep.e2e["peak_rss_mb"] = peakRSSMB()
	if tr != nil {
		traceDir := filepath.Join(".bench_build", "traces")
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
		if err := tr.write(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))); err != nil {
			return err
		}
		for _, m := range endToEnd {
			rep.layer["traced."+m.name] = rep.e2e[m.name]
		}
		rep.layer["client.fail_ratio"] = ratio(float64(rep.failed), float64(rep.attempted))
	}
	for name := range rep.e2e {
		if !known(endToEnd, name) {
			return fmt.Errorf("workload %s reported undeclared metric %q", workload, name)
		}
	}
	for name := range rep.layer {
		if !known(perLayer, name) {
			return fmt.Errorf("workload %s reported undeclared metric %q", workload, name)
		}
	}
	for _, err := range rep.checks {
		logf("check failed: %v", err)
	}
	if rep.attempted < 1 {
		return errors.New("no operation attempted")
	}
	return nil
}

func known(defs []metricDef, name string) bool {
	for _, m := range defs {
		if m.name == name {
			return true
		}
	}
	return false
}

// emit prints one JSON object on its own line of standard output.
func emit(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(data))
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// logf writes a progress line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
