package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"piper"
)

// epoch is the zero of every timestamp the benchmark takes.
var epoch = time.Now()

// clock is the monotonic time since epoch in nanoseconds.
func clock() int64 { return int64(time.Since(epoch)) }

// span is one traced interval. Spans of one request (or one compression
// pass) share id; parent names the enclosing span.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLogLimit bounds the spans a run keeps for writing out; the
// per-layer metrics are computed from every span as it is taken, so the
// limit only trims the file.
const spanLogLimit = 50_000

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func (l *spanLog) add(ss ...span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	room := spanLogLimit - len(l.spans)
	if room < len(ss) {
		if room < 0 {
			room = 0
		}
		l.dropped += int64(len(ss) - room)
		ss = ss[:room]
	}
	l.spans = append(l.spans, ss...)
}

// write stores the kept spans as JSON lines under .bench_build/trace in
// the working directory and reports where.
func (l *spanLog) write(cfg config, o *outcome) {
	l.mu.Lock()
	defer l.mu.Unlock()
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(path, l.spans); err != nil {
		o.say("trace: spans not written: %v", err)
		return
	}
	o.say("trace: %d spans written to %s (%d beyond the limit dropped)", len(l.spans), path, l.dropped)
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// awaitDrain polls the engine's live gauges until every frame and
// pipeline has retired; the gauges may trail the last Handle by one
// worker step.
func awaitDrain(eng *piper.Engine) (piper.Stats, bool) {
	drained := func(s piper.Stats) bool {
		return s.LiveIterFrames == 0 && s.LiveClosureFrames == 0 && s.LivePipelines == 0
	}
	s := eng.Stats()
	for d := time.Millisecond; !drained(s) && d < time.Second; d *= 2 {
		time.Sleep(d)
		s = eng.Stats()
	}
	return s, drained(s)
}

// checkQuiescent is the oracle every workload runs once its traffic has
// stopped: the live frame and arena gauges are zero and every tenant
// class accounts for each submission exactly once.
func checkQuiescent(eng *piper.Engine, o *outcome) piper.Stats {
	s, ok := awaitDrain(eng)
	if !ok {
		o.fail("engine did not drain: live iteration frames %d, closure frames %d, pipelines %d",
			s.LiveIterFrames, s.LiveClosureFrames, s.LivePipelines)
	}
	if s.LiveArenaBytes != 0 {
		o.fail("arena holds %d live bytes at quiescence", s.LiveArenaBytes)
	}
	for _, c := range eng.TenantStats() {
		if c.Submitted != c.Admitted+c.Rejected+c.Canceled || c.Pending != 0 || c.Waiting != 0 {
			o.fail("tenant %q accounting: submitted %d != admitted %d + rejected %d + canceled %d, or pending %d / waiting %d not 0",
				c.Name, c.Submitted, c.Admitted, c.Rejected, c.Canceled, c.Pending, c.Waiting)
		}
	}
	return s
}

// statsDelta is b - a for every monotone counter the per-layer metrics
// use; gauges are taken from b.
func statsDelta(a, b piper.Stats) piper.Stats {
	return piper.Stats{
		Steals:             b.Steals - a.Steals,
		FailedSteals:       b.FailedSteals - a.FailedSteals,
		TailSwaps:          b.TailSwaps - a.TailSwaps,
		CrossSuspends:      b.CrossSuspends - a.CrossSuspends,
		ThrottleParks:      b.ThrottleParks - a.ThrottleParks,
		ScopeSuspends:      b.ScopeSuspends - a.ScopeSuspends,
		CrossChecks:        b.CrossChecks - a.CrossChecks,
		FoldHits:           b.FoldHits - a.FoldHits,
		Iterations:         b.Iterations - a.Iterations,
		InlineIterations:   b.InlineIterations - a.InlineIterations,
		Promotions:         b.Promotions - a.Promotions,
		BatchedIterations:  b.BatchedIterations - a.BatchedIterations,
		BatchSplits:        b.BatchSplits - a.BatchSplits,
		Parks:              b.Parks - a.Parks,
		Wakes:              b.Wakes - a.Wakes,
		InjectOverflows:    b.InjectOverflows - a.InjectOverflows,
		FramePoolHits:      b.FramePoolHits - a.FramePoolHits,
		FramePoolMisses:    b.FramePoolMisses - a.FramePoolMisses,
		PlansCompiled:      b.PlansCompiled - a.PlansCompiled,
		PlanDeopts:         b.PlanDeopts - a.PlanDeopts,
		PlanFusedStages:    b.PlanFusedStages - a.PlanFusedStages,
		ArenaGets:          b.ArenaGets - a.ArenaGets,
		ArenaMisses:        b.ArenaMisses - a.ArenaMisses,
		ArenaBytesRecycled: b.ArenaBytesRecycled - a.ArenaBytesRecycled,
		LiveArenaBytes:     b.LiveArenaBytes,
	}
}

// setEngineLayers reports the per-layer metrics that come straight from
// a delta of Engine.Stats: injection, workers, stage transitions,
// fork-join, frames, pools, plans and the arena. Every ratio is reported
// next to its base.
func setEngineLayers(o *outcome, d piper.Stats) {
	count := func(name string, v int64, note string) { o.set(name, float64(v), "count", v, note) }
	share := func(name string, r ratio, note string) { o.set(name, r.value(), "ratio", r.den, note) }
	count("deque.inject_overflows", d.InjectOverflows, "root injections that spilled past every ring")
	count("sched.steals", d.Steals, "successful steals")
	attempts := d.Steals + d.FailedSteals
	count("sched.steal_attempts", attempts, "steal attempts (base of sched.steal_success)")
	share("sched.steal_success", ratio{d.Steals, attempts}, "steals / steal attempts")
	count("sched.parks", d.Parks, "worker parks")
	count("sched.wakes", d.Wakes, "wake tokens delivered")
	count("stage.cross_checks", d.CrossChecks, "cross-edge checks (base of stage.fold_ratio)")
	share("stage.fold_ratio", ratio{d.FoldHits, d.CrossChecks}, "fold hits / cross checks")
	count("stage.cross_suspends", d.CrossSuspends, "iterations parked on a cross edge")
	count("stage.throttle_parks", d.ThrottleParks, "control frames parked by the throttle K")
	count("stage.tail_swaps", d.TailSwaps, "tail swaps")
	count("forkjoin.scope_suspends", d.ScopeSuspends, "syncs parked on stolen children")
	count("iterations", d.Iterations, "iterations started (base of the frame.* ratios)")
	share("frame.inline_ratio", ratio{d.InlineIterations, d.Iterations}, "inline iterations / iterations")
	share("frame.batched_ratio", ratio{d.BatchedIterations, d.Iterations}, "batched iterations / iterations")
	share("frame.promotions_per_iter", ratio{d.Promotions, d.Iterations}, "promotions / iterations")
	count("frame.batch_splits", d.BatchSplits, "batches split by a blocking slot")
	gets := d.FramePoolHits + d.FramePoolMisses
	count("pool.gets", gets, "frame pool acquisitions (base of pool.hit_ratio)")
	share("pool.hit_ratio", ratio{d.FramePoolHits, gets}, "pool hits / acquisitions")
	count("pool.misses", d.FramePoolMisses, "fresh frame allocations")
	count("plan.compiled", d.PlansCompiled, "plans compiled")
	count("plan.deopts", d.PlanDeopts, "plans retracted")
	count("plan.fused_stages", d.PlanFusedStages, "stage transitions fused away")
	count("arena.gets", d.ArenaGets, "arena region checkouts (base of arena.miss_ratio)")
	share("arena.miss_ratio", ratio{d.ArenaMisses, d.ArenaGets}, "arena misses / gets")
	o.set("arena.recycled_mb", float64(d.ArenaBytesRecycled)/1e6, "MB", d.ArenaGets, "bytes returned to arena pools")
	o.set("arena.live_bytes_end", float64(d.LiveArenaBytes), "bytes", 1, "arena bytes still checked out at the end (must be 0)")
}

// setZero reports 0 for per-layer metrics this workload does not
// measure, with the reason, so every traced run carries the full list.
func setZero(o *outcome, why string, names ...string) {
	for _, n := range names {
		for _, d := range perLayer {
			if d.name == n {
				o.set(n, 0, d.unit, 0, why)
			}
		}
	}
}

// notExercised is setZero's reason for a layer the workload never enters.
const notExercised = "not exercised by this workload"

// requestOnly lists the per-layer metrics taken from request spans,
// which only the serving workloads have.
var requestOnly = []string{
	"admission.call_p50_ns", "admission.call_p99_us", "queue.delay_p50_us", "queue.delay_p99_us",
	"run.p50_us", "run.self_p50_us", "notify.p50_us", "trace.gap_p50_us",
}

// admissionOnly lists the TenantStats metrics, which only an engine with
// admission control has.
var admissionOnly = []string{
	"admission.wait_ms", "admission.quiet_wait_ms", "admission.admitted", "admission.rejected", "admission.canceled",
}

// lzOnly lists the metrics of the streaming compressor.
var lzOnly = []string{"arena.peak_live_mb", "lz.read_ms", "lz.write_ms", "lz.chunks", "lz.ratio"}
