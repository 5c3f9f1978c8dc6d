package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"piper"
	"piper/internal/dedup"
	"piper/internal/lz"
	"piper/internal/pipefib"
	"piper/internal/workload"
)

// JSONBenchmark is one machine-readable benchmark record, shaped so a
// driver can track the perf trajectory across PRs (BENCH_piper.json).
type JSONBenchmark struct {
	Name string `json:"name"`
	// N is the number of benchmark iterations testing.Benchmark settled on.
	N int `json:"n"`
	// NsPerOp is wall-clock nanoseconds per operation (one operation =
	// one full pipeline run, or one iteration for *PerIter benchmarks).
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp come from the runtime allocation
	// counters.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// Steals, Parks, Wakes, PoolHits, PoolMisses, InlineIters,
	// Promotions, BatchedIters and BatchSplits are scheduler counter
	// deltas per operation, from Engine.Stats.
	Steals       float64 `json:"steals_per_op"`
	Parks        float64 `json:"parks_per_op"`
	Wakes        float64 `json:"wakes_per_op"`
	PoolHits     float64 `json:"pool_hits_per_op"`
	PoolMisses   float64 `json:"pool_misses_per_op"`
	InlineIters  float64 `json:"inline_iters_per_op"`
	Promotions   float64 `json:"promotions_per_op"`
	BatchedIters float64 `json:"batched_iters_per_op"`
	BatchSplits  float64 `json:"batch_splits_per_op"`
	// ArenaGets, ArenaMisses and ArenaRecycled are data-plane counter
	// deltas per operation: payload-region checkouts, checkouts that had
	// to allocate fresh storage, and bytes returned to the size-class
	// pools. A steady-state arena-backed workload shows Misses ≈ 0.
	ArenaGets     float64 `json:"arena_gets_per_op"`
	ArenaMisses   float64 `json:"arena_misses_per_op"`
	ArenaRecycled float64 `json:"arena_recycled_bytes_per_op"`
	// PlansCompiled is the per-operation delta of Stats.PlansCompiled:
	// pipelines whose iteration 0 set the serial-only flag.
	PlansCompiled float64 `json:"plans_compiled_per_op"`
}

// JSONReport is the top-level BENCH_piper.json document.
type JSONReport struct {
	GoMaxProcs int             `json:"gomaxprocs"`
	NumCPU     int             `json:"num_cpu"`
	GoVersion  string          `json:"go_version"`
	Benchmarks []JSONBenchmark `json:"benchmarks"`
	// Curves holds the per-workload speedup curves of the scalability
	// sweep (piperbench -procs; see scale.go). Empty when no sweep ran.
	Curves []JSONCurve `json:"curves,omitempty"`
}

// SuiteConfig selects what a suite run measures. The zero value runs
// every flat benchmark row and no scalability sweep.
type SuiteConfig struct {
	// Filters restricts the flat rows to benchmarks whose name contains
	// any of the entries (all rows when empty).
	Filters []string
	// RealProcs and VirtProcs enable the scalability sweep: measured
	// GOMAXPROCS values and simulated virtual-schedule worker counts
	// (see SpeedupCurves). No curves are recorded when both are empty.
	RealProcs, VirtProcs []int
}

func (c SuiteConfig) matches(name string) bool {
	if len(c.Filters) == 0 {
		return true
	}
	for _, f := range c.Filters {
		if strings.Contains(name, f) {
			return true
		}
	}
	return false
}

// statDelta fills b with the scheduler counter deltas across a benchmark
// run, per operation.
func statDelta(b *JSONBenchmark, before, after piper.Stats, n int) {
	d := float64(n)
	b.Steals = float64(after.Steals-before.Steals) / d
	b.Parks = float64(after.Parks-before.Parks) / d
	b.Wakes = float64(after.Wakes-before.Wakes) / d
	b.PoolHits = float64(after.FramePoolHits-before.FramePoolHits) / d
	b.PoolMisses = float64(after.FramePoolMisses-before.FramePoolMisses) / d
	b.InlineIters = float64(after.InlineIterations-before.InlineIterations) / d
	b.Promotions = float64(after.Promotions-before.Promotions) / d
	b.BatchedIters = float64(after.BatchedIterations-before.BatchedIterations) / d
	b.BatchSplits = float64(after.BatchSplits-before.BatchSplits) / d
	b.ArenaGets = float64(after.ArenaGets-before.ArenaGets) / d
	b.ArenaMisses = float64(after.ArenaMisses-before.ArenaMisses) / d
	b.ArenaRecycled = float64(after.ArenaBytesRecycled-before.ArenaBytesRecycled) / d
	b.PlansCompiled = float64(after.PlansCompiled-before.PlansCompiled) / d
}

// runJSONBench runs one benchmark body against a dedicated engine and
// collects the per-op record. perIter divides the measured costs by the
// number of pipeline iterations one op executes (0 means per-op
// reporting).
func runJSONBench(name string, perIter int, mkEngine func() *piper.Engine, body func(e *piper.Engine)) JSONBenchmark {
	e := mkEngine()
	defer e.Close()
	body(e) // warm pools and workers outside the measurement
	var before, after piper.Stats
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		// Snapshot inside the closure: testing.Benchmark invokes it
		// repeatedly while calibrating b.N, and r.N is only the final
		// round's count — a delta spanning the calibration rounds would
		// inflate every per-op counter.
		before = e.Stats()
		for i := 0; i < b.N; i++ {
			body(e)
		}
		after = e.Stats()
	})
	div := 1.0
	if perIter > 0 {
		div = float64(perIter)
	}
	b := JSONBenchmark{
		Name:        name,
		N:           r.N,
		NsPerOp:     float64(r.NsPerOp()) / div,
		AllocsPerOp: float64(r.AllocsPerOp()) / div,
		BytesPerOp:  float64(r.AllocedBytesPerOp()) / div,
	}
	statDelta(&b, before, after, r.N)
	for _, f := range []*float64{&b.Steals, &b.Parks, &b.Wakes, &b.PoolHits, &b.PoolMisses, &b.InlineIters, &b.Promotions, &b.BatchedIters, &b.BatchSplits, &b.ArenaGets, &b.ArenaMisses, &b.ArenaRecycled, &b.PlansCompiled} {
		*f /= div
	}
	return b
}

// JSONSuite runs the machine-readable benchmark suite — scheduler
// microbenchmarks (per-iteration cost of the frame lifecycle: inline,
// promoted-coroutine ablation, pooled and unpooled) plus small
// end-to-end workloads and, when cfg asks for one, the scalability sweep
// — and writes the report to w as JSON. Filters restrict the suite to
// benchmarks whose name contains any entry (the CI regression smoke runs
// just the serial-overhead row this way).
func JSONSuite(w io.Writer, cfg SuiteConfig) error {
	const spsIters = 5000
	sps := func(e *piper.Engine) {
		i := 0
		e.PipeWhile(func() bool { return i < spsIters }, func(it *piper.Iter) {
			i++
			it.Continue(1)
			it.Wait(2)
		})
	}
	empty := func(e *piper.Engine) {
		i := 0
		e.PipeWhile(func() bool { return i < spsIters }, func(it *piper.Iter) { i++ })
	}
	fib := func(e *piper.Engine) { pipefib.Fine(e, 8, 1500) }
	data := workload.TextStream(1234, 1<<20, 4096, 0.35)
	dd := func(e *piper.Engine) { _ = dedup.CompressPiper(e, 8, data, io.Discard) }
	lzBody := func(e *piper.Engine) { _ = lz.Compress(e, 0, data, 16<<10) }
	// LZStream is the flagship throughput row: the streaming compressor
	// over an 8 MiB seeded synthetic stream in sparse mode (the GB-scale
	// configuration, scaled down to benchmark length — same pipeline
	// shape, same arena recycling, same nested block pipe).
	lzStream := func(e *piper.Engine) {
		in := workload.StreamReader(7, lzStreamCurveSize, 4096, 0.4)
		if _, err := lz.StreamCompress(e, io.Discard, in, lzStreamCurveOpts()); err != nil {
			panic(err)
		}
	}

	mk := func(p int, extra ...piper.Option) func() *piper.Engine {
		return func() *piper.Engine {
			return piper.NewEngine(append([]piper.Option{piper.Workers(p)}, extra...)...)
		}
	}

	type row struct {
		name     string
		perIter  int
		mkEngine func() *piper.Engine
		body     func(*piper.Engine)
	}
	rows := []row{
		{"SerialOverheadPerIter/P1", spsIters, mk(1), empty},
		{"SerialOverheadPerIter/P1/Grain=1", spsIters, mk(1, piper.Grain(1)), empty},
		// BatchedSerialOverhead pins the adaptive-grain configuration
		// explicitly (independent of engine defaults): the guarded metric
		// for the batching regression smoke.
		{"BatchedSerialOverhead/P1", spsIters, mk(1, piper.GrainMax(64)), empty},
		{"SPSPerIter/P2", spsIters, mk(2), sps},
		{"SPSPerIter/P2/Grain=1", spsIters, mk(2, piper.Grain(1)), sps},
		{"PipeFibFine/P2", 0, mk(2), fib},
		{"Dedup1MiB/P2", 0, mk(2), dd},
		{"LZFactor1MiB/P2", 0, mk(2), lzBody},
		{"LZStream8MiB/P2", 0, mk(2), lzStream},
	}

	rep := JSONReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
	available := make([]string, 0, len(rows)+1)
	for _, r := range rows {
		available = append(available, r.name)
		if !cfg.matches(r.name) {
			continue
		}
		rep.Benchmarks = append(rep.Benchmarks, runJSONBench(r.name, r.perIter, r.mkEngine, r.body))
	}
	// The elasticity experiment reports a latency, not a per-op cost, so
	// it bypasses the testing.Benchmark harness (see elastic.go). Check
	// the filter before measuring: the CI smoke run filters to a single
	// microbenchmark and must not pay for burst rounds.
	available = append(available, elasticRowName)
	if cfg.matches(elasticRowName) {
		rep.Benchmarks = append(rep.Benchmarks, elasticScaleUpRow())
	}
	if len(rep.Benchmarks) == 0 {
		// A filter that matches nothing would silently write an empty
		// report — and a regression guard downstream would then fail on a
		// "missing benchmark" instead of the real mistake. Name the rows
		// so the caller can fix the filter.
		return fmt.Errorf("filters %q match no benchmarks; available: %s",
			cfg.Filters, strings.Join(available, ", "))
	}
	if len(cfg.RealProcs) > 0 || len(cfg.VirtProcs) > 0 {
		rep.Curves = SpeedupCurves(cfg.RealProcs, cfg.VirtProcs)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteJSONFile runs JSONSuite into path (conventionally
// BENCH_piper.json) under cfg.
func WriteJSONFile(path string, cfg SuiteConfig) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := JSONSuite(f, cfg); err != nil {
		f.Close()
		os.Remove(path) // don't leave a truncated report behind
		return err
	}
	return f.Close()
}

// loadBenchmark reads a JSONReport and finds the named benchmark row. A
// miss lists the rows the report does contain — the same affordance the
// suite's no-match filter error gives — because the common mistake is a
// renamed or newly added guard entry against a stale baseline (or a fresh
// run filtered down to a different row), and "not found" alone sends the
// caller off to re-run benchmarks instead of fixing the name.
func loadBenchmark(path, name string) (JSONBenchmark, error) {
	rep, err := loadReport(path)
	if err != nil {
		return JSONBenchmark{}, err
	}
	available := make([]string, 0, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		if b.Name == name {
			return b, nil
		}
		available = append(available, b.Name)
	}
	if len(available) == 0 {
		return JSONBenchmark{}, fmt.Errorf("benchmark %q not found in %s (report has no rows)", name, path)
	}
	return JSONBenchmark{}, fmt.Errorf("benchmark %q not found in %s; available: %s",
		name, path, strings.Join(available, ", "))
}

// loadReport reads and decodes one BENCH_piper.json document.
func loadReport(path string) (JSONReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return JSONReport{}, err
	}
	var rep JSONReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return JSONReport{}, err
	}
	return rep, nil
}

// metricOf extracts one guarded metric from a benchmark row by its JSON
// field name.
func metricOf(b JSONBenchmark, metric string) (float64, error) {
	switch metric {
	case "ns_per_op":
		return b.NsPerOp, nil
	case "allocs_per_op":
		return b.AllocsPerOp, nil
	case "bytes_per_op":
		return b.BytesPerOp, nil
	}
	return 0, fmt.Errorf("unknown guarded metric %q (want ns_per_op, allocs_per_op, or bytes_per_op)", metric)
}

// CheckRegression compares the named benchmark's ns_per_op between a
// freshly written report and a checked-in baseline, and returns an error
// if the fresh number is more than maxPct percent slower. Used by the CI
// benchmark-regression smoke step against BENCH_piper.json.
func CheckRegression(freshPath, baselinePath, name string, maxPct float64) error {
	return CheckMetricRegression(freshPath, baselinePath, name, "ns_per_op", maxPct, 0)
}

// CheckMetricRegression is CheckRegression generalized over the guarded
// metric (ns_per_op, allocs_per_op, or bytes_per_op): the fresh value
// must not exceed baseline·(1+maxPct/100) + slack. The absolute slack
// term exists for counting metrics — an arena-backed pipeline's
// allocs_per_op baseline sits near zero, where a pure percentage bound
// is degenerate (0 tolerates nothing; noise of ±a few allocations from
// pool warm-up would flap the guard).
func CheckMetricRegression(freshPath, baselinePath, name, metric string, maxPct, slack float64) error {
	fb, err := loadBenchmark(freshPath, name)
	if err != nil {
		return err
	}
	bb, err := loadBenchmark(baselinePath, name)
	if err != nil {
		return err
	}
	fv, err := metricOf(fb, metric)
	if err != nil {
		return err
	}
	bv, err := metricOf(bb, metric)
	if err != nil {
		return err
	}
	// A negative or NaN metric would make the bound arithmetic vacuous or
	// poisoned — real regressions would then pass silently. Refuse to
	// guard against garbage on either side instead. A zero is garbage for
	// ns_per_op (nothing runs in zero time: it means a missing row) but
	// legitimate for the counting metrics, where the slack term supplies
	// the tolerance a zero baseline needs. Note NaN fails every
	// comparison, so the checks must be written with negated comparisons.
	minValid := 0.0
	if metric == "ns_per_op" {
		minValid = 1 // decoded-as-zero missing rows must not pass
	}
	if !(bv >= minValid) || (bv == 0 && slack <= 0) {
		return fmt.Errorf("baseline %q has unusable %s %v (slack %v); regenerate %s", name, metric, bv, slack, baselinePath)
	}
	if !(fv >= minValid) {
		return fmt.Errorf("fresh report %q has unusable %s %v in %s", name, metric, fv, freshPath)
	}
	limit := bv*(1+maxPct/100) + slack
	if fv > limit {
		return fmt.Errorf("%s %s regressed: baseline %.1f, now %.1f, limit %.1f (+%.0f%% +%.0f)",
			name, metric, bv, fv, limit, maxPct, slack)
	}
	fmt.Printf("%s %s: %.1f vs baseline %.1f (limit %.1f)\n", name, metric, fv, bv, limit)
	return nil
}
