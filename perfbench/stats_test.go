package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"piper"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want int64
	}{
		{0, 1},      // rank clamps to 1
		{0.05, 1},   // ceil(0.5) = 1
		{0.10, 1},   // ceil(1.0) = 1
		{0.11, 2},   // ceil(1.1) = 2
		{0.50, 5},   // ceil(5.0) = 5
		{0.51, 6},   // ceil(5.1) = 6
		{0.90, 9},   // ceil(9.0) = 9
		{0.95, 10},  // ceil(9.5) = 10: truncation would give 9
		{0.99, 10},  // ceil(9.9) = 10
		{0.999, 10}, // the maximum is reachable below N = 1000
		{1, 10},
	} {
		if got := percentile(ten, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %d, want 0", got)
	}
	// p99 of 1..1000 is the 990th sample, leaving ten beyond it.
	thousand := make([]int64, 1000)
	for i := range thousand {
		thousand[i] = int64(i + 1)
	}
	if got := percentile(thousand, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990", got)
	}
}

func TestMinTailSamples(t *testing.T) {
	for _, c := range []struct {
		q    float64
		want int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}} {
		if got := minTailSamples(c.q); got != c.want {
			t.Errorf("minTailSamples(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestWindowQuantileIgnoresOneBadWindow(t *testing.T) {
	// Three windows of 1000 samples; the middle one has a stall that
	// lifts its p99. The median of the window p99s is a calm window's.
	xs := make([]int64, 3000)
	for i := range xs {
		xs[i] = int64(i%1000 + 1)
		if i >= 1000 && i < 2000 && i%1000 >= 900 {
			xs[i] = 1_000_000
		}
	}
	got, w := windowQuantile(xs, 0.99)
	if w != 3 || got != 990 {
		t.Fatalf("windowQuantile = %v over %d windows, want 990 over 3", got, w)
	}
	// Too few samples for one window: the plain quantile, flagged by 0.
	got, w = windowQuantile(xs[:500], 0.99)
	if w != 0 || got != float64(percentile(sortedCopy(xs[:500]), 0.99)) {
		t.Fatalf("thin windowQuantile = %v over %d windows", got, w)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []interval{{10, 40}, {30, 60}}, 50},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		{"sticking out", []interval{{-50, 10}, {95, 200}}, 85},
		{"outside", []interval{{-20, -10}, {100, 120}}, 100},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		{"unsorted", []interval{{60, 70}, {10, 65}}, 40},
		{"empty child", []interval{{50, 50}}, 100},
		{"covers all", []interval{{0, 60}, {40, 100}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRatioKeepsItsBase(t *testing.T) {
	r := ratio{num: 3, den: 4}
	if r.value() != 0.75 || r.den != 4 {
		t.Fatalf("ratio{3,4} = %v base %d", r.value(), r.den)
	}
	if (ratio{num: 5}).value() != 0 {
		t.Fatal("a ratio without a base must read 0, not divide by zero")
	}
	// setEngineLayers reports every ratio with its base as the sample
	// count, and the base itself as a metric.
	o := newOutcome()
	setEngineLayers(o, piper.Stats{Steals: 10, FailedSteals: 30, FoldHits: 7, CrossChecks: 8})
	for _, c := range []struct {
		ratio, base string
		value       float64
		den         int64
	}{
		{"sched.steal_success", "sched.steal_attempts", 0.25, 40},
		{"stage.fold_ratio", "stage.cross_checks", 7.0 / 8, 8},
	} {
		r, b := o.metrics[c.ratio], o.metrics[c.base]
		if r.value != c.value || r.n != c.den || b.value != float64(c.den) {
			t.Errorf("%s = %v (n=%d) with %s = %v, want %v of %d", c.ratio, r.value, r.n, c.base, b.value, c.value, c.den)
		}
	}
}

// syntheticStep builds a step of n requests due evenly over [0, 1s) at
// rate n/s, each taking latency(i) ns.
func syntheticStep(n int, latency func(i int) int64) []completion {
	tr := make([]completion, n)
	for i := range tr {
		due := int64(i) * 1e9 / int64(n)
		tr[i] = completion{due: due, done: due + latency(i)}
	}
	return tr
}

func TestJudgeStep(t *testing.T) {
	const limit = int64(10e6) // 10ms
	const n = 1000
	for _, c := range []struct {
		name    string
		trace   []completion
		pass    bool
		growing bool
	}{
		{"fast and steady", syntheticStep(n, func(int) int64 { return 100e3 }), true, false},
		{"a few slow, p99 within the limit",
			syntheticStep(n, func(i int) int64 {
				if i%100 == 0 {
					return 50e6
				}
				return 100e3
			}), true, false},
		{"two percent slow breaks p99",
			syntheticStep(n, func(i int) int64 {
				if i%50 == 0 {
					return 50e6
				}
				return 100e3
			}), false, false},
		{"backlog grows: each request waits for all before it",
			syntheticStep(n, func(i int) int64 { return int64(i) * 2e6 }), false, true},
		{"bounded queue of 5 at the end is not growing",
			syntheticStep(n, func(i int) int64 { return 5e6 }), true, false},
	} {
		v := judgeStep(c.trace, 0, 1e9, n, limit)
		if v.pass != c.pass || v.growing != c.growing || v.n != n {
			t.Errorf("%s: pass=%v growing=%v n=%d (p99 %d, inflight %d→%d), want pass=%v growing=%v",
				c.name, v.pass, v.growing, v.n, v.p99, v.inflightMid, v.inflightEnd, c.pass, c.growing)
		}
	}
	// A failed request misses every limit, however fast it failed.
	tr := syntheticStep(n, func(int) int64 { return 1e3 })
	for i := 0; i < 20; i++ {
		tr[i*50].failed = true
	}
	if v := judgeStep(tr, 0, 1e9, n, limit); v.pass || v.p99 != math.MaxInt64 {
		t.Errorf("2%% failed: pass=%v p99=%d, want a failing step", v.pass, v.p99)
	}
	// Requests due outside the step do not count.
	tr = append(syntheticStep(n, func(int) int64 { return 1e3 }), completion{due: 2e9, done: 9e9})
	if v := judgeStep(tr, 0, 1e9, n, limit); !v.pass || v.n != n {
		t.Errorf("outside request counted: n=%d pass=%v", v.n, v.pass)
	}
	// The served rate runs to the last completion when that is later
	// than the step's end.
	tr = syntheticStep(n, func(int) int64 { return 1e3 })
	tr[n-1].done = 2e9
	if v := judgeStep(tr, 0, 1e9, n, limit); math.Abs(v.servedPerSec-n/2.0) > 1e-9 {
		t.Errorf("servedPerSec = %v, want %v", v.servedPerSec, n/2.0)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric lists the binary
// checks its output against in step with the benchmark's definition.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the binary %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), binary %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)
	for _, w := range def.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}
