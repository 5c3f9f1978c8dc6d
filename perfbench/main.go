// Command perfbench is piper's benchmark: one command that runs a named
// workload against the library, checks every output, and prints every
// metric with its unit. Run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload serve-open --seed 1 --seconds 20 --trace 0
//
// --trace 0 runs untraced and reports the end-to-end metrics; --trace 1
// runs with the benchmark's own spans and reports the per-layer metrics.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The lines before it are a human-readable report: the host fingerprint,
// every metric under the name the workload gives it, with its unit and
// sample count, and any oracle failure. A run with a wrong output exits
// with status 1.
//
// perfbench compare A.json B.json compares two saved results (see
// --out) and refuses when their host fingerprints differ.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// endToEnd lists the metrics every untraced run reports, in the order of
// BENCHMARK.json. Each workload gives each of them its own meaning (see
// WORKLOADS.md); all are measured, never zero.
var endToEnd = []metricDef{
	{"lo.p50_us", "us"},
	{"lo.p90_us", "us"},
	{"hi.p50_us", "us"},
	{"hi.p90_us", "us"},
	{"rate", "1/s"},
	{"speedup", "x"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics every traced run reports, named by the
// library module they measure. A layer a workload bypasses reports 0.
var perLayer = []metricDef{
	{"admission.call_p50_ns", "ns"},
	{"admission.call_p99_us", "us"},
	{"admission.wait_ms", "ms"},
	{"admission.quiet_wait_ms", "ms"},
	{"admission.admitted", "count"},
	{"admission.rejected", "count"},
	{"admission.canceled", "count"},
	{"queue.delay_p50_us", "us"},
	{"queue.delay_p99_us", "us"},
	{"deque.inject_overflows", "count"},
	{"sched.steals", "count"},
	{"sched.steal_attempts", "count"},
	{"sched.steal_success", "ratio"},
	{"sched.parks", "count"},
	{"sched.wakes", "count"},
	{"stage.wait_ns_per_iter", "ns"},
	{"stage.cross_checks", "count"},
	{"stage.fold_ratio", "ratio"},
	{"stage.cross_suspends", "count"},
	{"stage.throttle_parks", "count"},
	{"stage.tail_swaps", "count"},
	{"forkjoin.sync_ns_per_iter", "ns"},
	{"forkjoin.scope_suspends", "count"},
	{"iterations", "count"},
	{"frame.inline_ratio", "ratio"},
	{"frame.batched_ratio", "ratio"},
	{"frame.promotions_per_iter", "ratio"},
	{"frame.batch_splits", "count"},
	{"pool.gets", "count"},
	{"pool.hit_ratio", "ratio"},
	{"pool.misses", "count"},
	{"plan.compiled", "count"},
	{"plan.deopts", "count"},
	{"plan.fused_stages", "count"},
	{"run.p50_us", "us"},
	{"run.self_p50_us", "us"},
	{"notify.p50_us", "us"},
	{"trace.gap_p50_us", "us"},
	{"arena.gets", "count"},
	{"arena.miss_ratio", "ratio"},
	{"arena.recycled_mb", "MB"},
	{"arena.peak_live_mb", "MB"},
	{"arena.live_bytes_end", "bytes"},
	{"lz.read_ms", "ms"},
	{"lz.write_ms", "ms"},
	{"lz.chunks", "count"},
	{"lz.ratio", "ratio"},
	{"profile.parallelism", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

type metricDef struct{ name, unit string }

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config, o *outcome){
	"serve-open": runServeOpen,
	"serve-qos":  runServeQoS,
	"stream-lz":  runStreamLZ,
	"fine-sps":   runFineSPS,
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
}

// budget returns share of the run's measuring time.
func (c config) budget(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

// reading is one metric of the result.
type reading struct {
	value float64
	unit  string
	n     int64  // samples (or base count) behind the value; 0 if none
	note  string // what the value is on this workload
}

// outcome collects one run's operations, oracle failures and readings.
type outcome struct {
	attempted, failed int64
	problems          []string
	metrics           map[string]reading
	report            []string
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]reading)} }

// fail records an oracle failure; it counts as one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// set records a result metric.
func (o *outcome) set(name string, value float64, unit string, n int64, note string) {
	o.metrics[name] = reading{value: value, unit: unit, n: n, note: note}
}

// also prints a result metric again under the workload's own name for
// it (lz.speedup, serve.max_rps, ...).
func (o *outcome) also(metric, name string) {
	r := o.metrics[metric]
	o.named(name, r.value, r.unit, r.n, "the "+metric+" above")
}

// named adds a metric line to the human-readable report under the name
// the workload's own documentation gives it (serve.hi.p99_us, lz.speedup,
// ...). Named metrics are printed, not part of the result line.
func (o *outcome) named(name string, value float64, unit string, n int64, note string) {
	o.say("metric %-26s %14.4f %-5s n=%-9d %s", name, value, unit, n, note)
}

// say adds a line to the human-readable report.
func (o *outcome) say(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve-open, serve-qos, stream-lz or fine-sps")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measuring time of the run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := fs.String("out", "", "also write the result with the host fingerprint to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runW, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, traced: *trace == 1}
	fp := hostFingerprint()
	fpJSON, _ := json.Marshal(fp) // a struct of strings and ints always marshals
	fmt.Fprintf(stdout, "fingerprint %s\n", fpJSON)

	o := newOutcome()
	runW(cfg, o)
	if _, ok := o.metrics["peak_rss_mb"]; !ok && !cfg.traced {
		o.set("peak_rss_mb", peakRSSMB(), "MB", 1, "process high-water resident set")
	}
	res := finish(cfg, o, stdout)
	if *out != "" {
		if err := writeSaved(*out, savedResult{Fingerprint: fp, Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.traced, Result: res}); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// finish checks the readings against the metric list of the run's mode,
// prints the report and the result line, and returns the result.
func finish(cfg config, o *outcome, stdout io.Writer) result {
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	res := result{Attempted: o.attempted, Metrics: make(map[string]resultValue)}
	for _, d := range defs {
		r, ok := o.metrics[d.name]
		switch {
		case !ok:
			o.fail("metric %s was not measured", d.name)
			continue
		case r.unit != d.unit:
			o.fail("metric %s has unit %s, want %s", d.name, r.unit, d.unit)
		case math.IsNaN(r.value) || math.IsInf(r.value, 0):
			o.fail("metric %s is not a number", d.name)
			continue
		case !cfg.traced && r.value <= 0:
			o.fail("end-to-end metric %s is %v; it must be positive", d.name, r.value)
		}
		res.Metrics[d.name] = resultValue{Value: r.value, Unit: d.unit}
		fmt.Fprintf(stdout, "metric %-26s %14.4f %-5s n=%-9d %s\n", d.name, r.value, d.unit, r.n, r.note)
	}
	if o.attempted > 0 {
		fmt.Fprintf(stdout, "metric %-26s %14.4f %-5s n=%-9d %s\n", "failed_frac", float64(o.failed)/float64(o.attempted), "ratio", o.attempted,
			"failed, refused or wrong operations / attempted (the result's failed and attempted)")
	}
	if o.attempted < 1 {
		o.fail("no operation was attempted")
	}
	for _, line := range o.report {
		fmt.Fprintln(stdout, line)
	}
	for _, p := range o.problems {
		fmt.Fprintf(stdout, "FAIL %s\n", p)
	}
	res.Failed = o.failed
	res.Correct = len(o.problems) == 0
	line, _ := json.Marshal(res) // plain numbers and strings; NaN was rejected above
	fmt.Fprintf(stdout, "%s\n", line)
	return res
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// peakRSSMB is the process's high-water resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // reported as a non-positive metric, which fails the run
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}
