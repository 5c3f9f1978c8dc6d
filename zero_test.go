package piper_test

import (
	"testing"

	"piper"
)

// Zero-iteration pipelines: the degenerate case where the loop condition
// fails before the first iteration. The engine must handle it without
// starting an iteration, promoting a frame, or leaking a gauge.
func TestZeroIterationPipelines(t *testing.T) {
	tiers := []struct {
		name string
		opts []piper.Option
	}{
		{"inline", []piper.Option{piper.Workers(2)}},
	}
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			eng := piper.NewEngine(tier.opts...)
			defer eng.Close()
			before := eng.Stats()

			// Each over an empty slice.
			called := false
			piper.Each(eng, []int{}, func(it *piper.Iter, v int) { called = true })
			// Pipe whose source fails immediately.
			piper.Pipe(eng, func() (int, bool) { return 0, false }, func(it *piper.Iter, v int) { called = true })
			if called {
				t.Fatal("body ran for a zero-iteration pipeline")
			}

			after := eng.Stats()
			if d := after.Iterations - before.Iterations; d != 0 {
				t.Errorf("zero-iteration pipelines started %d iterations", d)
			}
			if d := after.Promotions - before.Promotions; d != 0 {
				t.Errorf("zero-iteration pipelines promoted %d frames", d)
			}
			if after.LiveIterFrames != 0 || after.LivePipelines != 0 || after.LiveClosureFrames != 0 {
				t.Errorf("gauges leaked: iter=%d closure=%d pipelines=%d",
					after.LiveIterFrames, after.LiveClosureFrames, after.LivePipelines)
			}
			// Both pipelines ran to completion (two pipe_while executions).
			if d := after.Pipelines - before.Pipelines; d != 2 {
				t.Errorf("pipelines delta = %d, want 2", d)
			}
		})
	}
}

// Handle.Cancel after completion must be inert: the handle's reported
// error stays whatever completion wrote (idempotent error reporting), no
// frame state is touched (the pipeline has recycled), and no gauge moves.
func TestHandleCancelAfterCompletion(t *testing.T) {
	eng := piper.NewEngine(piper.Workers(2))
	defer eng.Close()

	i := 0
	var ran int
	h := eng.Submit(nil, func() bool { i++; return i <= 3 }, func(it *piper.Iter) {
		ran++
		it.Continue(1)
	})
	if err := h.Wait(); err != nil {
		t.Fatalf("pipeline failed: %v", err)
	}
	before := eng.Stats()

	h.Cancel()
	h.Cancel() // double-cancel: still idempotent
	if err := h.Wait(); err != nil {
		t.Errorf("Wait after post-completion Cancel = %v, want nil (error reporting must be idempotent)", err)
	}
	if rep, err := h.Report(); err != nil || rep.Iterations != 3 {
		t.Errorf("Report after post-completion Cancel = %+v, %v", rep, err)
	}

	after := eng.Stats()
	if after.AbortedPipelines != before.AbortedPipelines {
		t.Errorf("post-completion Cancel aborted a pipeline: %d -> %d",
			before.AbortedPipelines, after.AbortedPipelines)
	}
	if after.AbortedIterations != before.AbortedIterations {
		t.Errorf("post-completion Cancel unwound iterations: %d -> %d",
			before.AbortedIterations, after.AbortedIterations)
	}
	if after.LiveIterFrames != 0 || after.LivePipelines != 0 {
		t.Errorf("gauges leaked after post-completion Cancel: iter=%d pipelines=%d",
			after.LiveIterFrames, after.LivePipelines)
	}
	if ran != 3 {
		t.Errorf("ran %d iterations, want 3", ran)
	}
}
