package core

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
)

// Serial-flag tests: a pipeline whose iteration 0 never leaves stage 0
// runs its batches through the serial-only retire loop until some slot
// leaves stage 0. Both paths must be semantically identical to the
// generic batch loop — same outputs, same serial-stage ordering, same
// panic and cancellation behavior — while Stats counts the flag being
// set (PlansCompiled) and cleared (PlanDeopts).

// runFusedProgram executes a shape-stable pipeline whose tail is a run of
// short interior continues after a cross edge, and checks the per-stage
// ordering invariant on the fly the same way the fuzzer does:
// progress[i] is iteration i's self-declared stage, published before the
// runtime's own counter advances, so when a pipe_wait into (i, j)
// resolves, progress[i-1] > j must already hold.
func runFusedProgram(t *testing.T, opts Options, n int) []uint64 {
	t.Helper()
	opts.Workers = 4
	e := NewEngine(opts)
	t.Cleanup(e.Close)

	out := make([]uint64, n)
	progress := make([]atomic.Int64, n+1)
	var violations atomic.Int64
	i := 0
	e.RunPipeline(0, func() bool { return i < n }, func(it *Iter) {
		idx := int(it.Index())
		i++
		acc := uint64(idx)*0x9e3779b97f4a7c15 + 1
		progress[idx].Store(1)
		it.Continue(1)
		acc = acc*31 + 1
		progress[idx].Store(2)
		it.Wait(2)
		if idx > 0 && progress[idx-1].Load() <= 2 {
			violations.Add(1)
		}
		acc = acc*31 + 2
		it.Continue(3)
		acc = acc*31 + 3
		it.Continue(4)
		acc = acc*31 + 4
		it.Continue(5)
		acc = acc*31 + 5
		out[idx] = acc
		progress[idx].Store(math.MaxInt64)
	})
	if v := violations.Load(); v != 0 {
		t.Errorf("%d serial-stage ordering violations", v)
	}
	checkEngineDrained(t, e)
	return out
}

// TestPlanEquivalenceFused: the short-stage tail program must produce
// per-iteration values bit-identical to the sequential computation and
// hold the per-stage ordering invariant.
func TestPlanEquivalenceFused(t *testing.T) {
	const n = 500
	got := runFusedProgram(t, DefaultOptions(), n)
	for i := range got {
		want := uint64(i)*0x9e3779b97f4a7c15 + 1
		for s := uint64(1); s <= 5; s++ {
			want = want*31 + s
		}
		if got[i] != want {
			t.Fatalf("iteration %d: engine %#x != sequential %#x", i, got[i], want)
		}
	}
}

// TestPlanDeoptOnShapeChange walks the serial flag through its whole
// lifecycle: iteration 0 is pure stage 0, which sets the flag, and every
// later iteration leaves stage 0 through Continue and Wait, which clears
// it exactly once. The order-dependent checksum, updated in iteration 0's
// stage 0 and in every later iteration's serial tail stage, proves the
// switch between the serial-only and the generic batch loops neither
// reorders nor drops an iteration, under a fixed grain (the flag is set
// mid-batch) and under adaptive grain (the next batch starts on the
// serial loop).
func TestPlanDeoptOnShapeChange(t *testing.T) {
	for _, c := range []struct {
		name  string
		grain int
	}{{"grain64", 64}, {"adaptive", 0}} {
		t.Run(c.name, func(t *testing.T) {
			e := newEngineOpts(t, func(o *Options) { o.Workers = 2; o.Grain = c.grain })
			const n = 300
			var sum uint64
			i := 0
			e.RunPipeline(0, func() bool { return i < n }, func(it *Iter) {
				idx := it.Index()
				i++
				if idx == 0 {
					sum = sum*31 + 1
					return
				}
				it.Continue(1)
				v := uint64(idx) * 7
				it.Wait(2)
				sum = sum*31 + v + 1
			})
			var want uint64
			for k := uint64(0); k < n; k++ {
				want = want*31 + k*7 + 1
			}
			if sum != want {
				t.Fatalf("checksum = %#x, want %#x", sum, want)
			}
			s := e.Stats()
			if s.PlansCompiled != 1 {
				t.Errorf("PlansCompiled = %d, want 1 (iteration 0 was all stage 0)", s.PlansCompiled)
			}
			if s.PlanDeopts != 1 {
				t.Errorf("PlanDeopts = %d, want exactly 1", s.PlanDeopts)
			}
			checkEngineDrained(t, e)
		})
	}
}

// TestSerialFlagGrainRamp: a pure-serial body keeps the serial flag for
// the whole run, and the adaptive grain climbs to its ceiling on a
// single-worker engine, so nearly every iteration runs as a batched slot.
func TestSerialFlagGrainRamp(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) { o.Workers = 1 })
	const n = 1000
	i := 0
	rep := e.RunPipeline(0, func() bool { return i < n }, func(it *Iter) { i++ })
	if rep.Iterations != n {
		t.Fatalf("Iterations = %d, want %d", rep.Iterations, n)
	}
	if rep.FinalGrain != defaultGrainMax {
		t.Errorf("FinalGrain = %d, want the ceiling %d", rep.FinalGrain, int64(defaultGrainMax))
	}
	s := e.Stats()
	if s.PlansCompiled != 1 || s.PlanDeopts != 0 {
		t.Errorf("PlansCompiled = %d, PlanDeopts = %d, want 1 and 0", s.PlansCompiled, s.PlanDeopts)
	}
	if s.BatchedIterations < n*9/10 {
		t.Errorf("BatchedIterations = %d, want >= %d", s.BatchedIterations, n*9/10)
	}
	checkEngineDrained(t, e)
}

// TestSerialPlanPanicPropagates: a panic inside the serial-only batch
// loop must stop the batch, surface through PipeWhile, and drain —
// identical to the generic batch behavior.
func TestSerialPlanPanicPropagates(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) { o.Workers = 1 })
	var rec any
	func() {
		defer func() { rec = recover() }()
		i := 0
		e.PipeWhile(func() bool { i++; return i <= 1000 }, func(it *Iter) {
			if it.Index() == 257 {
				panic("boom at 257")
			}
		})
	}()
	if rec != "boom at 257" {
		t.Fatalf("recovered %v, want the iteration panic", rec)
	}
	checkEngineDrained(t, e)
}

// TestSerialPlanCancelDrains: cancellation mid-run of a serial-only
// pipeline must abort at a batch boundary and drain every frame back to
// the pools. The condition is unbounded so cancellation is the only way
// the pipeline can end — a bounded run can legitimately finish before the
// cancel watcher fires on a loaded machine.
func TestSerialPlanCancelDrains(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) { o.Workers = 2 })
	ctx, cancel := context.WithCancel(context.Background())
	h := e.Submit(ctx, func() bool { return true }, func(it *Iter) {
		if it.Index() == 500 {
			cancel()
		}
	})
	if err := h.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	checkEngineDrained(t, e)
}

// TestSerialPlanForkJoin: fork-join inside stage 0 stays legal on the
// serial-only batch loop — stolen children are joined by the stage-0
// spin-help — and the commutative sum proves no task is lost or
// duplicated.
func TestSerialPlanForkJoin(t *testing.T) {
	e := newEngineOpts(t, func(o *Options) { o.Workers = 4 })
	const n = 400
	var sum atomic.Int64
	i := 0
	rep := e.RunPipeline(0, func() bool { return i < n }, func(it *Iter) {
		idx := it.Index()
		i++
		it.Go(func() { sum.Add(idx) })
		it.Go(func() { sum.Add(idx * 3) })
		it.Sync()
	})
	if rep.Iterations != n {
		t.Fatalf("Iterations = %d, want %d", rep.Iterations, n)
	}
	if got, want := sum.Load(), int64(n*(n-1)/2*4); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	checkEngineDrained(t, e)
}

// TestPlanGatedByAblations: instrumented runs never set the serial flag
// — work/span accounting needs every iteration's completion published —
// while the Section 9 ablations leave it alone: a pure-serial body takes
// no transitions, so folding and enabling have nothing to act on.
func TestPlanGatedByAblations(t *testing.T) {
	serialBody := func(it *Iter) {}
	run := func(mutate func(*Options)) Stats {
		e := newEngineOpts(t, func(o *Options) { o.Workers = 2; mutate(o) })
		i := 0
		e.PipeWhile(func() bool { i++; return i <= 200 }, serialBody)
		return e.Stats()
	}
	if s := run(func(o *Options) { o.DependencyFolding = false }); s.PlansCompiled != 1 {
		t.Errorf("DependencyFolding=false: PlansCompiled = %d, want 1", s.PlansCompiled)
	}
	if s := run(func(o *Options) { o.EagerEnabling = true }); s.PlansCompiled != 1 {
		t.Errorf("EagerEnabling=true: PlansCompiled = %d, want 1", s.PlansCompiled)
	}

	e := newEngineOpts(t, func(o *Options) { o.Workers = 2 })
	i := 0
	e.ProfilePipeline(0, func() bool { i++; return i <= 200 }, serialBody)
	if s := e.Stats(); s.PlansCompiled != 0 {
		t.Errorf("instrumented engine set the serial flag %d times", s.PlansCompiled)
	}
}
