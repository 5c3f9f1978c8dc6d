package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"piper"
	"piper/internal/workload"
)

// Request shape, as in cmd/pipeserve: 4–15 iterations of stage 0 serial
// spin, stage 1 Go + spin + Sync, stage 2 Wait(2) plus a quarter spin.
// Work is in seeded spin units, not calibrated microseconds, so the same
// seed is the same work on every host.
const (
	serveWork   = 400     // spin units per stage, jittered to [work/2, 3·work/2)
	maxIters    = 15      // most iterations a request runs
	requestPool = 1 << 14 // distinct request shapes generated per run
)

// reqSpec is one generated request.
type reqSpec struct {
	iters       int
	spin        int64
	cancel      bool
	cancelAfter time.Duration
	sum         uint64 // expected stage-2 checksum
}

// makeRequests generates n request shapes from seed. A cancelFrac share
// of them is canceled cancelAfter (under cancelBy) into flight.
func makeRequests(seed uint64, n int, cancelFrac float64, cancelBy time.Duration) []reqSpec {
	rng := workload.NewRNG(seed)
	out := make([]reqSpec, n)
	for i := range out {
		s := reqSpec{iters: 4 + rng.Intn(12), spin: serveWork/2 + int64(rng.Intn(serveWork))}
		s.cancel = rng.Float64() < cancelFrac
		s.cancelAfter = time.Duration(rng.Int63() % int64(cancelBy))
		a, d := workload.Spin(s.spin), workload.Spin(s.spin/4)
		for i := 0; i < s.iters; i++ {
			s.sum = foldIter(s.sum, int64(i), 3*a+d)
		}
		out[i] = s
	}
	return out
}

// foldIter folds one iteration's stage results into an order-dependent
// checksum.
func foldIter(sum uint64, idx int64, v uint64) uint64 { return sum*31 + (v ^ uint64(idx)) }

// class is how a resolved request ended.
type class uint8

const (
	served class = iota
	canceled
	refused
	broken
)

// sample is what a phase keeps of one resolved request. It holds no
// pointers, so a phase of a hundred thousand requests gives the garbage
// collector nothing to scan; the request itself is garbage once resolved.
// Timestamps are clock() values.
type sample struct {
	due, submitStart, submitEnd, done int64
	class                             class
}

// tracedSample is a traced, served request: its sample, its first cond
// call and last body exit, the run span's self time, and its time in
// Wait(2) and Sync.
type tracedSample struct {
	sample
	firstCond, lastExit     int64
	runSelf, waitNs, syncNs int64
	iters                   int64
}

func (s *sample) latency() int64 { return s.done - s.due }

// request is one submitted pipeline while it is in flight.
type request struct {
	spec *reqSpec
	id   int64
	s    *sample // the phase's slot for this request
	i    int     // cond calls; stage 0 runs serially
	next int64   // next iteration index stage 2 expects
	sum  uint64
	bad  bool      // stage 2 ran out of iteration order
	tr   *reqTrace // nil when untraced
}

// reqTrace holds a traced request's first cond call, last body exit,
// and each iteration's Sync and Wait(2).
type reqTrace struct {
	firstCond, lastExit int64
	syncs, waits        [maxIters]interval
}

func (r *request) cond() bool {
	if r.i == 0 && r.tr != nil {
		r.tr.firstCond = clock()
	}
	r.i++
	return r.i <= r.spec.iters
}

func (r *request) body(it *piper.Iter) {
	spin := r.spec.spin
	a := workload.Spin(spin) // stage 0: parse serially
	it.Continue(1)
	var b uint64
	it.Go(func() { b = workload.Spin(spin) })
	c := workload.Spin(spin) // stage 1: parallel body
	idx := it.Index()
	if tr := r.tr; tr != nil {
		t := clock()
		it.Sync()
		tr.syncs[idx] = interval{t, clock()}
		t = clock()
		it.Wait(2)
		tr.waits[idx] = interval{t, clock()}
	} else {
		it.Sync()
		it.Wait(2)
	}
	d := workload.Spin(spin / 4) // stage 2: respond in order
	if idx != r.next {
		r.bad = true
	}
	r.next++
	r.sum = foldIter(r.sum, idx, a+b+c+d)
	if r.tr != nil && r.next == int64(r.spec.iters) {
		r.tr.lastExit = clock()
	}
}

// classify checks a resolved request against its oracle: a served
// request ran every iteration, kept stage-2 order and produced the
// expected checksum; an error is either a cancellation the benchmark
// asked for or a refusal by admission control. Anything else is broken.
func (r *request) classify(rep piper.PipelineReport, err error) (class, string) {
	switch {
	case err == nil:
		if r.bad {
			return broken, "stage 2 ran out of iteration order"
		}
		if rep.Iterations != int64(r.spec.iters) || r.next != int64(r.spec.iters) {
			return broken, fmt.Sprintf("ran %d (stage 2: %d) of %d iterations", rep.Iterations, r.next, r.spec.iters)
		}
		if r.sum != r.spec.sum {
			return broken, "stage-2 checksum differs from the expected one"
		}
		return served, ""
	case errors.Is(err, piper.ErrSaturated), errors.Is(err, piper.ErrAdmissionExpired):
		return refused, ""
	case r.spec.cancel && errors.Is(err, context.Canceled):
		if r.bad {
			return broken, "stage 2 ran out of iteration order before the cancellation"
		}
		return canceled, ""
	default:
		return broken, fmt.Sprintf("unexpected error: %v", err)
	}
}

// resolve records how r ended into its sample; a traced request that was
// served also leaves a tracedSample in p and its spans in p's log.
func (r *request) resolve(p *phase, rep piper.PipelineReport, err error) {
	c, why := r.classify(rep, err)
	r.s.class = c
	var ts tracedSample
	if r.tr != nil && c == served {
		ts = r.traced(p.log)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.counts[c]++
	if c == broken {
		p.problems = append(p.problems, fmt.Sprintf("request %d: %s", r.id, why))
	}
	if r.tr != nil && c == served {
		p.traced = append(p.traced, ts)
	}
}

// traced builds a served request's spans into log and returns its
// tracedSample.
func (r *request) traced(log *spanLog) tracedSample {
	s, tr := *r.s, r.tr
	ts := tracedSample{sample: s, firstCond: tr.firstCond, lastExit: tr.lastExit, iters: int64(r.spec.iters)}
	run := interval{tr.firstCond, tr.lastExit}
	queue := interval{s.submitEnd, max(s.submitEnd, tr.firstCond)}
	spans := make([]span, 0, 5+2*r.spec.iters)
	spans = append(spans,
		span{r.id, "request", "", s.due, s.done},
		span{r.id, "submit", "request", s.submitStart, s.submitEnd},
		span{r.id, "queue", "request", queue.start, queue.end},
		span{r.id, "run", "request", run.start, run.end},
		span{r.id, "notify", "request", tr.lastExit, s.done})
	inner := make([]interval, 0, 2*r.spec.iters)
	for i := 0; i < r.spec.iters; i++ {
		w, y := tr.waits[i], tr.syncs[i]
		inner = append(inner, w, y)
		ts.waitNs += w.end - w.start
		ts.syncNs += y.end - y.start
		spans = append(spans, span{r.id, "stage.wait", "run", w.start, w.end}, span{r.id, "forkjoin.sync", "run", y.start, y.end})
	}
	ts.runSelf = selfTime(run, inner)
	log.add(spans...)
	return ts
}

// source hands out requests cycling through one generated pool. Each
// issuing goroutine owns its own source.
type source struct {
	specs  []reqSpec
	n      int64
	idBase int64
	traced bool
}

func (src *source) next(s *sample) *request {
	r := &request{spec: &src.specs[src.n%int64(len(src.specs))], id: src.idBase + src.n, s: s}
	src.n++
	if src.traced {
		r.tr = &reqTrace{}
	}
	return r
}

// phase is one timed stretch of traffic: how its requests ended and,
// where their latencies are used, their samples.
type phase struct {
	samples    []sample
	start, end int64
	log        *spanLog // where traced requests leave their spans

	mu       sync.Mutex
	counts   [broken + 1]int // resolved requests per class
	problems []string
	traced   []tracedSample // served traced requests, in completion order
}

func newPhase(capacity int, log *spanLog) *phase {
	return &phase{samples: make([]sample, 0, capacity), log: log, start: clock()}
}

func (p *phase) seconds() float64 { return float64(p.end-p.start) / 1e9 }

// requests is how many requests of p have resolved.
func (p *phase) requests() int {
	n := 0
	for _, c := range p.counts {
		n += c
	}
	return n
}

// tally counts every request of p as attempted into o, and each refused
// or broken one as failed. It returns the served samples.
func (p *phase) tally(o *outcome) []sample {
	o.attempted += int64(p.requests())
	o.failed += int64(p.counts[refused])
	for _, why := range p.problems {
		o.fail("%s", why)
	}
	out := make([]sample, 0, len(p.samples))
	for _, s := range p.samples {
		if s.class == served {
			out = append(out, s)
		}
	}
	return out
}

// submit launches r through tenant ("" is the engine's default class
// with the reject policy; a named class uses SubmitWaitTenant) and times
// the call.
func submit(eng *piper.Engine, ctx context.Context, tenant string, r *request) *piper.Handle {
	r.s.submitStart = clock()
	var h *piper.Handle
	if tenant == "" {
		h = eng.Submit(ctx, r.cond, r.body)
	} else {
		h = eng.SubmitWaitTenant(ctx, tenant, r.cond, r.body)
	}
	r.s.submitEnd = clock()
	return h
}

// openLoop issues requests on the default tenant at rate for dur,
// whether or not earlier ones have finished, and returns once all have
// resolved. Request k is due at start + k/rate; its latency runs from
// that due time, so a late generator counts against the requests it
// delayed instead of hiding.
func openLoop(eng *piper.Engine, src *source, rate float64, dur time.Duration, log *spanLog) *phase {
	defer precisionThread()()
	n := int(rate * dur.Seconds())
	gap := 1e9 / rate
	p := newPhase(n, log)
	p.samples = p.samples[:n]
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		s := &p.samples[k]
		s.due = p.start + int64(float64(k)*gap)
		waitUntil(s.due)
		r := src.next(s)
		h := submit(eng, nil, "", r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := h.Report()
			s.done = clock()
			r.resolve(p, rep, err)
		}()
	}
	p.end = p.start + int64(float64(n)*gap)
	wg.Wait()
	return p
}

// waitUntil blocks the calling OS thread until the clock() time due.
// It sleeps in nanosleep rather than on a Go timer: the runtime wakes an
// idle process from a timer with millisecond granularity, which would
// make the generator late by up to a millisecond on every quiet gap.
// The caller locks its OS thread and lowers its timer slack first (see
// precisionThread).
func waitUntil(due int64) {
	if d := due - clock(); d > 0 {
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just returns early
	}
}

// precisionThread locks the calling goroutine to its OS thread and sets
// that thread's timer slack to 1ns (prctl PR_SET_TIMERSLACK), so a
// nanosleep ends within microseconds of its deadline instead of the
// default 50µs later. The returned function undoes the lock.
func precisionThread() func() {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	// The slack is a precision hint: a failure only makes the
	// generator's lag, which the run reports, larger.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	return runtime.UnlockOSThread
}

// closedLoop issues one request at a time through tenant until the clock
// passes until: the next is sent when the previous one resolves.
func closedLoop(eng *piper.Engine, src *source, tenant string, until int64, log *spanLog) *phase {
	p := newPhase(0, log)
	for clock() < until {
		var s sample
		r := src.next(&s)
		h := submit(eng, context.Background(), tenant, r)
		s.due = s.submitStart
		rep, err := h.Report()
		s.done = clock()
		r.resolve(p, rep, err)
		p.samples = append(p.samples, s)
	}
	p.end = clock()
	return p
}

// flood issues bursts of burst concurrent SubmitWaitTenant requests
// through tenant, separated by gap, until the clock passes until. A
// request whose spec says so is canceled cancelAfter into flight. The
// flood's latencies are not used, so it keeps only the counts.
func flood(eng *piper.Engine, src *source, tenant string, burst int, gap time.Duration, until int64, log *spanLog) *phase {
	p := newPhase(0, log)
	for clock() < until {
		samples := make([]sample, burst)
		var wg sync.WaitGroup
		for i := range samples {
			s := &samples[i]
			r := src.next(s)
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if r.spec.cancel {
					t := time.AfterFunc(r.spec.cancelAfter, cancel)
					defer t.Stop()
				}
				h := submit(eng, ctx, tenant, r)
				s.due = s.submitStart
				rep, err := h.Report()
				s.done = clock()
				r.resolve(p, rep, err)
			}()
		}
		wg.Wait()
		time.Sleep(gap)
	}
	p.end = clock()
	return p
}

// warmUp runs n requests through tenant with up to 8 in flight and waits
// for them, so pools, plans and goroutine stacks are populated before
// timing starts.
func warmUp(o *outcome, eng *piper.Engine, src *source, tenant string, n int) {
	p := newPhase(n, nil)
	p.samples = p.samples[:n]
	sem := make(chan struct{}, 8)
	var wg sync.WaitGroup
	for i := range p.samples {
		r := src.next(&p.samples[i])
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			rep, err := submit(eng, context.Background(), tenant, r).Report()
			r.resolve(p, rep, err)
		}()
	}
	wg.Wait()
	p.tally(o)
}

// serialRate runs requests back to back through piper.RunSerial on the
// calling goroutine for dur and returns requests per second: the
// single-core baseline the serving speedup is taken against.
func serialRate(o *outcome, src *source, dur time.Duration) (float64, int) {
	p := newPhase(0, nil)
	for clock()-p.start < int64(dur) {
		var s sample
		r := src.next(&s)
		r.resolve(p, piper.RunSerial(r.cond, r.body), nil)
	}
	p.end = clock()
	p.tally(o)
	return float64(p.requests()) / p.seconds(), p.requests()
}
