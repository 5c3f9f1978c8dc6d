package bench

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"piper"
	"piper/internal/core"
	"piper/internal/lz"
	"piper/internal/workload"
)

// Scalability harness: per-workload speedup curves across GOMAXPROCS
// values (the real sweep) and simulated worker counts beyond the physical
// core count (the virtual-time sweep), recorded into BENCH_piper.json
// alongside the flat benchmark rows.
//
// A real point re-runs the workload with runtime.GOMAXPROCS(p) and a
// Workers(p) engine and reports measured time; its speedup is
// T(1)/T(p). A virtual point cannot measure time honestly — the host has
// fewer cores than workers — so it reports two things instead: the
// work/span speedup bound (Brent: T_P <= T1/P + T∞, the paper's
// scalability model, from a profiled run of the same workload) and the
// *behavioral* counters of an actual Workers(P) run under the seeded
// virtual-schedule perturber (core.InstallVirtualSchedule), which puts
// the steal sweep, elastic pool, and injection overflow under P-worker
// stress regardless of physical cores. Timing rows never run perturbed.

// JSONCurvePoint is one (P, measurement) point of a speedup curve.
type JSONCurvePoint struct {
	Procs int `json:"procs"`
	// Virtual marks simulated-P points: NsPerOp is 0 (never measured),
	// Speedup is the work/span bound, and the behavioral counters come
	// from a perturbed Workers(P) run on the physical host.
	Virtual bool `json:"virtual,omitempty"`
	// NsPerOp is the measured wall-clock cost at this P (real points
	// only).
	NsPerOp float64 `json:"ns_per_op,omitempty"`
	// Speedup is T(1)/T(P) for real points and the Brent bound
	// Work/(Work/P + Span) for virtual ones.
	Speedup float64 `json:"speedup"`
	// Steals, Parks and Overflows are Engine.Stats deltas per operation
	// at this worker count.
	Steals    float64 `json:"steals_per_op"`
	Parks     float64 `json:"parks_per_op"`
	Overflows float64 `json:"overflows_per_op"`
}

// JSONCurve is one workload's speedup curve.
type JSONCurve struct {
	Workload string `json:"workload"`
	// WorkNs and SpanNs are the profiled T1 and T∞ of one operation, the
	// inputs to the virtual points' speedup bound; Parallelism is their
	// ratio (the workload's speedup ceiling on any machine).
	WorkNs      int64            `json:"work_ns"`
	SpanNs      int64            `json:"span_ns"`
	Parallelism float64          `json:"parallelism"`
	Points      []JSONCurvePoint `json:"points"`
}

// curveWorkload is one sweepable workload: ops must run the workload once
// on the given engine, and profile must run it once instrumented,
// returning the work/span report.
type curveWorkload struct {
	name    string
	body    func(e *piper.Engine)
	profile func(e *piper.Engine) piper.PipelineReport
}

// lzStreamCurveSize is the stream length of the LZStream curve workload:
// large enough that per-chunk parallelism dominates scheduling overhead,
// small enough for a multi-point sweep per CI run.
const lzStreamCurveSize = 8 << 20

func lzStreamCurveOpts() lz.StreamOptions {
	return lz.StreamOptions{Mode: lz.ModeSparse, ChunkSize: 512 << 10, BlockSize: 128 << 10}
}

func curveWorkloads() []curveWorkload {
	lzBody := func(e *piper.Engine) {
		in := workload.StreamReader(7, lzStreamCurveSize, 4096, 0.4)
		if _, err := lz.StreamCompress(e, io.Discard, in, lzStreamCurveOpts()); err != nil {
			panic(err)
		}
	}
	lzProfile := func(e *piper.Engine) piper.PipelineReport {
		var rep piper.PipelineReport
		o := lzStreamCurveOpts()
		o.Profile = &rep // implies SerialBlocks: flat graph, exact attribution
		in := workload.StreamReader(7, lzStreamCurveSize, 4096, 0.4)
		if _, err := lz.StreamCompress(e, io.Discard, in, o); err != nil {
			panic(err)
		}
		return rep
	}

	// SPSCompute is the synthetic control: a serial-parallel-serial
	// pipeline with a fixed per-iteration compute stage, so its curve
	// isolates the scheduler from any workload-side memory effects.
	const spsIters = 400
	spin := workload.UnitsPerMicrosecond() * 50
	spsBody := func(it *piper.Iter) {
		it.Continue(1)
		workload.Spin(spin)
		it.Wait(2)
	}
	sps := func(e *piper.Engine) {
		i := 0
		e.PipeWhile(func() bool { i++; return i <= spsIters }, spsBody)
	}
	spsProfile := func(e *piper.Engine) piper.PipelineReport {
		i := 0
		return piper.Profile(e, 0, func() bool { i++; return i <= spsIters }, spsBody)
	}

	return []curveWorkload{
		{"LZStream", lzBody, lzProfile},
		{"SPSCompute", sps, spsProfile},
	}
}

// virtualScheduleSeed keeps the perturbed behavioral runs reproducible
// across invocations; the per-P offset decorrelates the dice streams.
const virtualScheduleSeed = 0x5CA1AB1E

// virtualEngine builds a Workers(p) engine with the seeded
// virtual-schedule perturber installed.
func virtualEngine(p int, seed uint64) *piper.Engine {
	return piper.NewEngine(piper.Workers(p), piper.Option(func(o *core.Options) {
		o.InstallVirtualSchedule(seed)
	}))
}

// SpeedupCurves sweeps every curve workload over the real GOMAXPROCS
// values and the virtual worker counts. A real list without 1 gets it
// prepended: every speedup needs the T(1) denominator.
func SpeedupCurves(real, virt []int) []JSONCurve {
	if len(real) == 0 || real[0] != 1 {
		real = append([]int{1}, real...)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var curves []JSONCurve
	for _, wl := range curveWorkloads() {
		c := JSONCurve{Workload: wl.name}

		// Profile at P=1: T1 and T∞ of the pipeline dag, the virtual
		// points' model inputs.
		runtime.GOMAXPROCS(1)
		pe := piper.NewEngine(piper.Workers(1))
		rep := wl.profile(pe)
		pe.Close()
		c.WorkNs, c.SpanNs = rep.WorkNs, rep.SpanNs
		c.Parallelism = rep.Parallelism()

		var ns1 float64
		for _, p := range real {
			runtime.GOMAXPROCS(p)
			e := piper.NewEngine(piper.Workers(p))
			wl.body(e) // warm engine pools outside the measurement
			var before, after piper.Stats
			r := testing.Benchmark(func(b *testing.B) {
				before = e.Stats()
				for i := 0; i < b.N; i++ {
					wl.body(e)
				}
				after = e.Stats()
			})
			e.Close()
			pt := JSONCurvePoint{Procs: p, NsPerOp: float64(r.NsPerOp())}
			fillCurveCounters(&pt, before, after, r.N)
			if p == 1 {
				ns1 = pt.NsPerOp
			}
			if ns1 > 0 {
				pt.Speedup = ns1 / pt.NsPerOp
			}
			c.Points = append(c.Points, pt)
		}

		// Virtual points: Brent-bound speedup plus perturbed behavioral
		// counters at Workers(p) on the physical host.
		runtime.GOMAXPROCS(runtime.NumCPU())
		for _, p := range virt {
			pt := JSONCurvePoint{Procs: p, Virtual: true}
			if c.WorkNs > 0 && c.SpanNs > 0 {
				pt.Speedup = float64(c.WorkNs) / (float64(c.WorkNs)/float64(p) + float64(c.SpanNs))
			}
			e := virtualEngine(p, virtualScheduleSeed+uint64(p))
			before := e.Stats()
			const ops = 2
			for i := 0; i < ops; i++ {
				wl.body(e)
			}
			after := e.Stats()
			e.Close()
			fillCurveCounters(&pt, before, after, ops)
			c.Points = append(c.Points, pt)
		}
		curves = append(curves, c)
	}
	return curves
}

func fillCurveCounters(pt *JSONCurvePoint, before, after piper.Stats, n int) {
	d := float64(n)
	pt.Steals = float64(after.Steals-before.Steals) / d
	pt.Parks = float64(after.Parks-before.Parks) / d
	pt.Overflows = float64(after.InjectOverflows-before.InjectOverflows) / d
}

// findCurve locates a workload's curve in a report, listing the available
// workloads on a miss (the loadBenchmark affordance, for curves).
func findCurve(rep JSONReport, workload string) (JSONCurve, error) {
	var names []string
	for _, c := range rep.Curves {
		if c.Workload == workload {
			return c, nil
		}
		names = append(names, c.Workload)
	}
	if len(names) == 0 {
		return JSONCurve{}, fmt.Errorf("report has no speedup curves")
	}
	return JSONCurve{}, fmt.Errorf("no speedup curve for %q; available: %v", workload, names)
}

// highestRealSpeedup returns the speedup at the curve's highest real
// (measured) P, with the P value; ok is false when the curve has no real
// point above P=1 — the 1-CPU-host case the guard must skip.
func highestRealSpeedup(c JSONCurve) (p int, speedup float64, ok bool) {
	for _, pt := range c.Points {
		if !pt.Virtual && pt.Procs > 1 && pt.Procs >= p {
			p, speedup, ok = pt.Procs, pt.Speedup, true
		}
	}
	return p, speedup, ok
}

// speedupSkipReason names the report(s) lacking a real P>1 speedup point
// and what would supply one. Only a fresh report measured on a 1-CPU host
// is explained by the host; a baseline without the point was recorded
// elsewhere and must be regenerated on a multi-core host.
func speedupSkipReason(freshOK, baseOK bool, baselinePath string, numCPU int) string {
	var why []string
	if !freshOK {
		if numCPU == 1 {
			why = append(why, "fresh report has no real P>1 point — 1-CPU host")
		} else {
			why = append(why, fmt.Sprintf("fresh report has no real P>1 point on this %d-CPU host — record it with -procs including a P>1 value", numCPU))
		}
	}
	if !baseOK {
		why = append(why, fmt.Sprintf("baseline %s has no real P>1 point — regenerate the baseline curves on a multi-core host", baselinePath))
	}
	return strings.Join(why, "; ")
}

// CheckSpeedupRegression compares a workload's speedup at the highest
// real P present in both the fresh report and the baseline, failing when
// the fresh speedup has dropped more than maxPct percent. On hosts where
// no real P>1 point exists (1-CPU runners), or when the baseline predates
// speedup curves, the guard skips with an explicit log line rather than
// failing — absence of parallelism is not a regression, but it must
// never pass silently as coverage.
func CheckSpeedupRegression(freshPath, baselinePath, workload string, maxPct float64) error {
	fresh, err := loadReport(freshPath)
	if err != nil {
		return err
	}
	base, err := loadReport(baselinePath)
	if err != nil {
		return err
	}
	bc, err := findCurve(base, workload)
	if err != nil {
		fmt.Printf("speedup guard skipped: baseline %s: %v\n", baselinePath, err)
		return nil
	}
	fc, err := findCurve(fresh, workload)
	if err != nil {
		// The fresh report was generated by this very run; a missing
		// curve here is a harness misconfiguration, not a stale artifact.
		return err
	}
	fp, fs, fok := highestRealSpeedup(fc)
	bp, bs, bok := highestRealSpeedup(bc)
	if !fok || !bok {
		fmt.Printf("speedup guard skipped: %s\n", speedupSkipReason(fok, bok, baselinePath, runtime.NumCPU()))
		return nil
	}
	if fp != bp {
		fmt.Printf("speedup guard skipped: highest real P differs (fresh P=%d, baseline P=%d) — different hosts\n", fp, bp)
		return nil
	}
	if !(bs > 0) || !(fs > 0) {
		return fmt.Errorf("unusable %s speedup at P=%d: fresh %.3f, baseline %.3f", workload, fp, fs, bs)
	}
	limit := bs * (1 - maxPct/100)
	if fs < limit {
		return fmt.Errorf("%s speedup at P=%d regressed: baseline %.2fx, now %.2fx, limit %.2fx (-%.0f%%)",
			workload, fp, bs, fs, limit, maxPct)
	}
	fmt.Printf("%s speedup at P=%d: %.2fx vs baseline %.2fx (limit %.2fx)\n", workload, fp, fs, bs, limit)
	return nil
}
