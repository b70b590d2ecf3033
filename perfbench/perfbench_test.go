package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"profitmining/internal/simload"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{0.01, 1}, {0.10, 1}, {0.11, 2}, {0.50, 5}, {0.95, 10}, {1, 10},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

// The expected cut points are Python's statistics.quantiles(xs, n=4),
// the quartiles the benchmark's spread is judged by.
func TestQuantilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want []float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 4}, []float64{1.8125, 3.75, 7.75}},
		{[]float64{2, 7}, []float64{0.75, 4.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, []float64{1.5, 3, 4.5}},
	} {
		if got := quantiles(append([]float64(nil), c.xs...), 4); !reflect.DeepEqual(got, c.want) {
			t.Errorf("quantiles(%v, 4) = %v, want %v", c.xs, got, c.want)
		}
		if got, want := median(append([]float64(nil), c.xs...)), c.want[1]; got != want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, want)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	sp := func(start, end int64) span { return span{Start: start, End: end} }
	parent := sp(0, 100)
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{sp(10, 20), sp(30, 50)}, 70},
		{"overlapping", []span{sp(10, 40), sp(30, 60)}, 50},
		{"nested", []span{sp(10, 60), sp(20, 30)}, 50},
		{"touching", []span{sp(10, 20), sp(20, 30)}, 80},
		{"sticking out", []span{sp(-50, 10), sp(90, 150)}, 80},
		{"outside", []span{sp(120, 150)}, 100},
		{"covering", []span{sp(-1, 101)}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSelfTimesPairChildrenByParent(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "loadgen./recommend", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "serve./recommend", Start: 30, End: 70},
		{ID: 3, Name: "loadgen./recommend", Start: 200, End: 260},
		{ID: 4, Parent: 3, Name: "serve./recommend", Start: 210, End: 250},
		{ID: 5, Parent: 3, Name: "other", Start: 205, End: 215},
	}
	if got, want := selfTimes(spans, "loadgen./recommend"), []float64{60e-9, 15e-9}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	const rate, batches = 1000.0, 16
	// Three cells with baskets, one without, and a population that
	// lives in the first three.
	pop := &simload.Population{CellTxns: [][]int{{0, 3, 5}, {1}, {}, {2, 4, 6, 7, 8}}}
	for u := 0; u < 50; u++ {
		pop.HomeCell = append(pop.HomeCell, []int{0, 1, 3}[u%3])
	}
	a := makeSchedule(7, rate, 5*time.Second, 0.05, pop, batches)
	b := makeSchedule(7, rate, 5*time.Second, 0.05, pop, batches)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated two different schedules")
	}
	if c := makeSchedule(8, rate, 5*time.Second, 0.05, pop, batches); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated the same schedule")
	}
	if n := len(a); n < 4500 || n > 5500 {
		t.Errorf("%d events in 5s at %v/s", n, rate)
	}
	var batch int
	var sumU float64
	for i, ev := range a {
		if i > 0 && ev.Due < a[i-1].Due {
			t.Fatalf("event %d is due before event %d", i, i-1)
		}
		if ev.Due >= 5*time.Second {
			t.Fatalf("event %d due at %v, past the phase", i, ev.Due)
		}
		switch ev.Op {
		case opBatch:
			batch++
			if ev.Input < 0 || ev.Input >= batches {
				t.Fatalf("batch index %d out of range", ev.Input)
			}
		case opRecommend:
			if ev.Cell < 0 || int(ev.Cell) >= len(pop.CellTxns) || !slices.Contains(pop.CellTxns[ev.Cell], int(ev.Input)) {
				t.Fatalf("event %d carries transaction %d, not one of its customer's cell %d", i, ev.Input, ev.Cell)
			}
		}
		if ev.U < 0 || ev.U >= 1 {
			t.Fatalf("event %d: buy draw %v outside [0, 1)", i, ev.U)
		}
		sumU += ev.U
	}
	if share := float64(batch) / float64(len(a)); share < 0.03 || share > 0.07 {
		t.Errorf("batch share %.3f, want about 0.05", share)
	}
	if mean := sumU / float64(len(a)); mean < 0.47 || mean > 0.53 {
		t.Errorf("mean buy draw %.3f, want about 0.5", mean)
	}
}

func TestLeadingID(t *testing.T) {
	for body, want := range map[string]int64{
		`{"id":42,"basket":[]}`: 42,
		`{"id":0}`:              0,
		`{"basket":[]}`:         -1,
		`{"id":x,"basket":[]}`:  -1,
		``:                      -1,
	} {
		if got := leadingID([]byte(body)); got != want {
			t.Errorf("leadingID(%q) = %d, want %d", body, got, want)
		}
	}
}

// The serving layers count the measured open loop's requests and their
// outcomes, never warm-up, probes or serve's closed loop, whose request
// numbers start where the open loop's end.
func TestOpenLoopRef(t *testing.T) {
	const n = 100
	for ref, want := range map[int64]bool{
		0: true, n - 1: true, outcomeIDBase: true, outcomeIDBase + n - 1: true,
		-1: false, n: false, n + 5000: false, warmBase: false,
		outcomeIDBase + n: false, outcomeIDBase + warmBase: false,
	} {
		if got := openLoopRef(ref, n); got != want {
			t.Errorf("openLoopRef(%d, %d) = %v, want %v", ref, n, got, want)
		}
	}
}

// The metric tables here and the ones BENCHMARK.json declares must name
// the same metrics with the same units, in the same order.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		table    []metricDef
		declared []struct{ Name, Unit string }
	}{{endToEnd, bench.EndToEnd}, {perLayer, bench.PerLayer}} {
		if len(c.table) != len(c.declared) {
			t.Fatalf("%d metrics in the table, %d in BENCHMARK.json", len(c.table), len(c.declared))
		}
		for i, m := range c.table {
			if d := c.declared[i]; d.Name != m.name || d.Unit != m.unit {
				t.Errorf("metric %d: table has %s [%s], BENCHMARK.json %s [%s]", i, m.name, m.unit, d.Name, d.Unit)
			}
		}
	}
}
