// Command piperbench regenerates the paper's evaluation tables and the
// throttling experiments on this host.
//
// Usage:
//
//	piperbench -experiment all -size small -plist 1,2,4
//	piperbench -experiment fig8 -size native
//
// Experiments: fig6 (ferret), fig7 (dedup), fig8 (x264), fig9 (pipe-fib
// dependency folding), thm12 (uniform throttling), fig10 (pathological
// pipeline), ablate (Section 9 optimizations), arena (data-plane buffer
// recycling on/off), all.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"piper/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig6|fig7|fig8|fig9|thm12|fig10|ablate|adaptive|elastic|grain|arena|all")
		size       = flag.String("size", "small", "small|native")
		plist      = flag.String("plist", "", "comma-separated worker counts (default 1,2,...,NumCPU)")
		pmax       = flag.Int("pmax", runtime.NumCPU(), "worker count for single-P experiments")
		jsonOut    = flag.String("json", "", "write the machine-readable benchmark suite to this file (e.g. BENCH_piper.json) and exit; a -only filter matching no rows exits nonzero and lists the available names")
		only       = flag.String("only", "", "with -json: run only benchmarks whose name contains one of these comma-separated substrings (duplicates rejected)")
		baseline   = flag.String("baseline", "", "with -json: compare the guarded benchmark(s) against this checked-in report and exit nonzero on regression")
		guard      = flag.String("guard", "SerialOverheadPerIter/P1", "with -baseline: comma-separated benchmark name(s) to guard (duplicates rejected)")
		maxregress = flag.Float64("maxregress", 15, "with -baseline: fail if a guarded benchmark is more than this percent slower")
		metricg    = flag.String("metricguard", "", "with -baseline: comma-separated name:metric:slack entries guarding allocs_per_op/bytes_per_op/ns_per_op with the -maxregress bound plus an absolute slack (e.g. \"Dedup1MiB/P2:allocs_per_op:16\")")
		procs      = flag.String("procs", "", "with -json: record speedup curves over these comma-separated GOMAXPROCS values, or \"auto\" for 1,2,4,...,NumCPU; values above NumCPU require -virtual")
		virtual    = flag.Bool("virtual", false, "with -procs: simulate worker counts above NumCPU through the deterministic virtual-schedule mode (auto adds P=8..64)")
		speedupg   = flag.String("speedupguard", "LZStream", "with -baseline and -procs: comma-separated workload curve(s) whose speedup at the highest real P must not regress (duplicates rejected)")
	)
	flag.Parse()

	if *jsonOut != "" {
		filters, err := bench.SplitNames("-only", *only)
		if err != nil {
			fmt.Fprintf(os.Stderr, "piperbench: %v\n", err)
			os.Exit(2)
		}
		realPs, virtPs, err := bench.ParseProcs(*procs, runtime.NumCPU(), *virtual)
		if err != nil {
			fmt.Fprintf(os.Stderr, "piperbench: %v\n", err)
			os.Exit(2)
		}
		guards, err := bench.SplitNames("-guard", *guard)
		if err != nil {
			fmt.Fprintf(os.Stderr, "piperbench: %v\n", err)
			os.Exit(2)
		}
		speedupGuards, err := bench.SplitNames("-speedupguard", *speedupg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "piperbench: %v\n", err)
			os.Exit(2)
		}
		cfg := bench.SuiteConfig{Filters: filters, RealProcs: realPs, VirtProcs: virtPs}
		if err := bench.WriteJSONFile(*jsonOut, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "piperbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
		if *baseline != "" {
			failed := false
			checked := 0
			for _, name := range guards {
				checked++
				if err := bench.CheckRegression(*jsonOut, *baseline, name, *maxregress); err != nil {
					fmt.Fprintf(os.Stderr, "piperbench: benchmark regression: %v\n", err)
					failed = true
				}
			}
			if len(realPs) > 0 || len(virtPs) > 0 {
				for _, name := range speedupGuards {
					checked++
					if err := bench.CheckSpeedupRegression(*jsonOut, *baseline, name, *maxregress); err != nil {
						fmt.Fprintf(os.Stderr, "piperbench: speedup regression: %v\n", err)
						failed = true
					}
				}
			}
			for _, entry := range strings.Split(*metricg, ",") {
				entry = strings.TrimSpace(entry)
				if entry == "" {
					continue
				}
				parts := strings.Split(entry, ":")
				if len(parts) != 3 {
					fmt.Fprintf(os.Stderr, "piperbench: bad -metricguard entry %q (want name:metric:slack)\n", entry)
					failed = true
					continue
				}
				slack, err := strconv.ParseFloat(parts[2], 64)
				if err != nil {
					fmt.Fprintf(os.Stderr, "piperbench: bad -metricguard slack in %q: %v\n", entry, err)
					failed = true
					continue
				}
				checked++
				if err := bench.CheckMetricRegression(*jsonOut, *baseline, parts[0], parts[1], *maxregress, slack); err != nil {
					fmt.Fprintf(os.Stderr, "piperbench: benchmark regression: %v\n", err)
					failed = true
				}
			}
			if checked == 0 {
				// Empty guards must not pass as a vacuous success: a CI
				// step that guards nothing is a misconfiguration.
				fmt.Fprintf(os.Stderr, "piperbench: -baseline given but -guard %q and -metricguard %q name no benchmarks\n", *guard, *metricg)
				failed = true
			}
			if failed {
				os.Exit(1)
			}
		}
		return
	}

	sz := bench.Small()
	if *size == "native" {
		sz = bench.Native()
	}
	ps := defaultPs()
	if *plist != "" {
		ps = nil
		for _, s := range strings.Split(*plist, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || p < 1 {
				fmt.Fprintf(os.Stderr, "piperbench: bad -plist entry %q\n", s)
				os.Exit(2)
			}
			ps = append(ps, p)
		}
	}

	fmt.Printf("host: %d CPUs, GOMAXPROCS=%d\n\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	run := map[string]func(){
		"fig6":     func() { bench.Fig6Ferret(os.Stdout, ps, sz) },
		"fig7":     func() { bench.Fig7Dedup(os.Stdout, ps, sz) },
		"fig8":     func() { bench.Fig8X264(os.Stdout, ps, sz) },
		"fig9":     func() { bench.Fig9PipeFib(os.Stdout, *pmax, sz) },
		"thm12":    func() { bench.Thm12Uniform(os.Stdout, *pmax, sz) },
		"fig10":    func() { bench.Fig10Pathological(os.Stdout, *pmax, sz) },
		"ablate":   func() { bench.Ablations(os.Stdout, *pmax, sz) },
		"adaptive": func() { bench.AdaptiveThrottle(os.Stdout, *pmax, sz) },
		"elastic":  func() { bench.Elasticity(os.Stdout, *pmax, sz) },
		"grain":    func() { bench.GrainAblation(os.Stdout, *pmax, sz) },
		"arena":    func() { bench.ArenaAblation(os.Stdout, *pmax, sz) },
	}
	if *experiment == "all" {
		for _, name := range []string{"fig6", "fig7", "fig8", "fig9", "thm12", "fig10", "ablate", "adaptive", "elastic", "grain", "arena"} {
			run[name]()
		}
		return
	}
	f, ok := run[*experiment]
	if !ok {
		fmt.Fprintf(os.Stderr, "piperbench: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
	f()
}

func defaultPs() []int {
	n := runtime.NumCPU()
	ps := []int{1}
	for p := 2; p <= n; p *= 2 {
		ps = append(ps, p)
	}
	if last := ps[len(ps)-1]; last != n {
		ps = append(ps, n)
	}
	return ps
}
