package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitTenant polls the named class's snapshot until pred holds, failing
// the test after timeout. The admission gauges are exact under the
// admitter mutex, so polling them is how these tests sequence waiter
// arrival deterministically.
func waitTenant(t *testing.T, e *Engine, name string, timeout time.Duration, pred func(TenantStats) bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		for _, ts := range e.TenantStats() {
			if ts.Name == name && pred(ts) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant %q: condition not reached; stats: %+v", name, e.TenantStats())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// gatedSubmitTenant pins one admission slot of the named class until
// gate closes.
func gatedSubmitTenant(e *Engine, tenant string, gate <-chan struct{}) *Handle {
	i := 0
	return e.SubmitTenant(nil, tenant, func() bool { i++; return i == 1 }, func(it *Iter) {
		it.Continue(1)
		<-gate
	})
}

// TestSubmitWaitFIFOAdmission is the starvation-freedom regression for
// the admission queue: N SubmitWait callers blocked on a full budget
// must be admitted in exactly their arrival order once slots free. The
// old token-channel admission woke blocked senders in *random* order
// (Go's select among blocked channel sends), so a continually-refilled
// queue could defer any given waiter indefinitely; the FIFO class queue
// makes the order deterministic and the wait bounded.
func TestSubmitWaitFIFOAdmission(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	opts.MaxPending = 1
	e := NewEngine(opts)
	defer e.Close()

	gate := make(chan struct{})
	h0 := gatedSubmit(e, gate)

	const n = 12
	var (
		mu    sync.Mutex
		order []int
		wg    sync.WaitGroup
	)
	handles := make([]*Handle, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := 0
			// With MaxPending 1 the admitted pipelines run one at a time,
			// so the order their bodies record is the admission order.
			handles[i] = e.SubmitWait(nil, func() bool { j++; return j == 1 }, func(it *Iter) {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
			if err := handles[i].Wait(); err != nil {
				t.Errorf("waiter %d: Wait = %v", i, err)
			}
		}()
		// Sequence the arrivals: waiter i must be queued before waiter
		// i+1 starts, or the arrival order itself would be racy.
		waitTenant(t, e, DefaultTenant, 5*time.Second, func(ts TenantStats) bool {
			return ts.Waiting == int64(i+1)
		})
	}

	close(gate)
	if err := h0.Wait(); err != nil {
		t.Fatalf("gated pipeline failed: %v", err)
	}
	wg.Wait()

	if len(order) != n {
		t.Fatalf("admitted %d of %d waiters", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("admission order %v: waiter %d admitted at position %d, want FIFO", order, got, i)
		}
	}
	ts := e.TenantStats()[0]
	if ts.Submitted != n+1 || ts.Admitted != n+1 || ts.Rejected != 0 || ts.Canceled != 0 {
		t.Errorf("accounting: %+v, want %d submitted == admitted", ts, n+1)
	}
	checkEngineDrained(t, e)
}

// TestTenantWeightedFairShare pins the deficit-round-robin split: with
// classes weighted 3 ("gold") and 1 ("bulk") both backlogged behind a
// one-slot budget, freed slots must be granted in a 1-bulk/3-gold cycle
// regardless of arrival interleaving.
func TestTenantWeightedFairShare(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	opts.MaxPending = 1
	opts.Tenants = []TenantClass{
		{Name: "bulk", Weight: 1},
		{Name: "gold", Weight: 3},
	}
	e := NewEngine(opts)
	defer e.Close()

	gate := make(chan struct{})
	h0 := gatedSubmit(e, gate)

	const perClass = 8
	var (
		mu    sync.Mutex
		order []string
		wg    sync.WaitGroup
	)
	enqueue := func(class string, already int64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := 0
			h := e.SubmitWaitTenant(nil, class, func() bool { j++; return j == 1 }, func(it *Iter) {
				mu.Lock()
				order = append(order, class)
				mu.Unlock()
			})
			if err := h.Wait(); err != nil {
				t.Errorf("%s: Wait = %v", class, err)
			}
		}()
		waitTenant(t, e, class, 5*time.Second, func(ts TenantStats) bool {
			return ts.Waiting == already+1
		})
	}
	// Interleave arrivals gold-first; DRR must ignore the interleaving
	// and serve by weight.
	for i := 0; i < perClass; i++ {
		enqueue("gold", int64(i))
		enqueue("bulk", int64(i))
	}

	close(gate)
	if err := h0.Wait(); err != nil {
		t.Fatalf("gated pipeline failed: %v", err)
	}
	wg.Wait()

	if len(order) != 2*perClass {
		t.Fatalf("admitted %d of %d waiters: %v", len(order), 2*perClass, order)
	}
	// One full round grants bulk its 1 and gold its 3 (ring order puts
	// bulk first — it registered first). Both classes stay backlogged for
	// the first two full rounds: assert the exact 8-admission prefix.
	want := []string{"bulk", "gold", "gold", "gold", "bulk", "gold", "gold", "gold"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("admission order %v: position %d = %s, want %s (DRR 1:3 split)", order[:len(want)], i, order[i], w)
		}
	}
	gold, bulk := 0, 0
	for _, c := range order[:len(want)] {
		if c == "gold" {
			gold++
		} else {
			bulk++
		}
	}
	if gold != 6 || bulk != 2 {
		t.Fatalf("first %d admissions: gold=%d bulk=%d, want 6:2", len(want), gold, bulk)
	}
	checkEngineDrained(t, e)
}

// TestTenantQuota pins the per-class MaxPending quota: a class at its
// quota rejects (Submit) or queues (SubmitWait) even while the global
// budget and other classes have room.
func TestTenantQuota(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	opts.MaxPending = 4
	opts.Tenants = []TenantClass{
		{Name: "capped", MaxPending: 1},
		{Name: "free"},
	}
	e := NewEngine(opts)
	defer e.Close()

	gate := make(chan struct{})
	h0 := gatedSubmitTenant(e, "capped", gate)
	waitTenant(t, e, "capped", 5*time.Second, func(ts TenantStats) bool { return ts.Pending == 1 })

	// The capped class is full: reject policy fails fast...
	h1 := e.SubmitTenant(nil, "capped", func() bool { return false }, func(*Iter) {})
	if err := h1.Wait(); !errors.Is(err, ErrSaturated) {
		t.Fatalf("capped class at quota: err = %v, want ErrSaturated", err)
	}
	// ...while the global budget still admits other classes.
	h2 := e.SubmitTenant(nil, "free", func() bool { return false }, func(*Iter) {})
	if err := h2.Wait(); err != nil {
		t.Fatalf("free class blocked by capped class's quota: %v", err)
	}

	// A queued capped waiter is admitted as soon as the quota frees.
	done := make(chan error, 1)
	go func() {
		h := e.SubmitWaitTenant(nil, "capped", func() bool { return false }, func(*Iter) {})
		done <- h.Wait()
	}()
	waitTenant(t, e, "capped", 5*time.Second, func(ts TenantStats) bool { return ts.Waiting == 1 })
	close(gate)
	if err := h0.Wait(); err != nil {
		t.Fatalf("gated pipeline failed: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("queued capped waiter: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("capped waiter not admitted after its quota freed")
	}
	checkEngineDrained(t, e)
}

// TestTenantAdmissionDeadline pins the class Deadline: a waiter still
// queued when it expires fails with ErrAdmissionExpired (which matches
// context.DeadlineExceeded) and is accounted as rejected.
func TestTenantAdmissionDeadline(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	opts.MaxPending = 1
	opts.Tenants = []TenantClass{{Name: "dl", Deadline: 20 * time.Millisecond}}
	e := NewEngine(opts)
	defer e.Close()

	gate := make(chan struct{})
	h0 := gatedSubmit(e, gate)

	t0 := time.Now()
	h := e.SubmitWaitTenant(nil, "dl", func() bool { return false }, func(*Iter) {})
	err := h.Wait()
	if !errors.Is(err, ErrAdmissionExpired) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired admission: err = %v, want ErrAdmissionExpired (a DeadlineExceeded)", err)
	}
	if waited := time.Since(t0); waited < 20*time.Millisecond {
		t.Fatalf("rejected after %v, before the 20ms class deadline", waited)
	}
	ts := e.TenantStats()
	for _, s := range ts {
		if s.Name == "dl" && (s.Rejected != 1 || s.Admitted != 0) {
			t.Errorf("dl class accounting: %+v, want 1 rejected", s)
		}
	}

	close(gate)
	if err := h0.Wait(); err != nil {
		t.Fatalf("gated pipeline failed: %v", err)
	}
	checkEngineDrained(t, e)
}

// TestTenantDeadlineOrdersAdmission pins the EDF tie-break: among
// classes eligible in the same DRR round, the class whose head waiter
// holds the earliest admission deadline is served first, even if the
// deadline-free class's waiter arrived earlier.
func TestTenantDeadlineOrdersAdmission(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	opts.MaxPending = 1
	opts.Tenants = []TenantClass{
		{Name: "patient"},
		{Name: "urgent", Deadline: time.Hour},
	}
	e := NewEngine(opts)
	defer e.Close()

	gate := make(chan struct{})
	h0 := gatedSubmit(e, gate)

	var (
		mu    sync.Mutex
		order []string
		wg    sync.WaitGroup
	)
	enqueue := func(class string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := 0
			h := e.SubmitWaitTenant(nil, class, func() bool { j++; return j == 1 }, func(it *Iter) {
				mu.Lock()
				order = append(order, class)
				mu.Unlock()
			})
			if err := h.Wait(); err != nil {
				t.Errorf("%s: Wait = %v", class, err)
			}
		}()
		waitTenant(t, e, class, 5*time.Second, func(ts TenantStats) bool { return ts.Waiting == 1 })
	}
	enqueue("patient") // arrives first...
	enqueue("urgent")  // ...but urgent holds a deadline

	close(gate)
	if err := h0.Wait(); err != nil {
		t.Fatalf("gated pipeline failed: %v", err)
	}
	wg.Wait()
	want := []string{"urgent", "patient"}
	for i, w := range want {
		if i >= len(order) || order[i] != w {
			t.Fatalf("admission order %v, want %v (EDF before ring order)", order, want)
		}
	}
	checkEngineDrained(t, e)
}

// TestSubmitUnknownTenant pins the configuration-error contract: an
// unconfigured class name fails the Handle with ErrUnknownTenant, on
// engines with and without tenant configuration.
func TestSubmitUnknownTenant(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 1
	opts.Tenants = []TenantClass{{Name: "known"}}
	e := NewEngine(opts)
	defer e.Close()
	if err := e.SubmitTenant(nil, "mystery", nil, nil).Wait(); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant: err = %v, want ErrUnknownTenant", err)
	}
	if err := e.SubmitWaitTenant(nil, "mystery", nil, nil).Wait(); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant (wait): err = %v, want ErrUnknownTenant", err)
	}

	// No admission control at all: only the default class exists.
	plain := NewEngine(Options{Workers: 1})
	defer plain.Close()
	if err := plain.SubmitTenant(nil, "anyone", nil, nil).Wait(); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("tenant on plain engine: err = %v, want ErrUnknownTenant", err)
	}
	i := 0
	if err := plain.SubmitTenant(nil, DefaultTenant, func() bool { i++; return i == 1 }, func(*Iter) {}).Wait(); err != nil {
		t.Fatalf("default tenant on plain engine: %v", err)
	}
}

// TestTenantCloseReleasesWaiters pins Close against queued admissions:
// every parked SubmitWait caller must resolve with ErrEngineClosed, and
// the class accounting must balance.
func TestTenantCloseReleasesWaiters(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	opts.MaxPending = 1
	e := NewEngine(opts)

	gate := make(chan struct{})
	h0 := gatedSubmit(e, gate)

	const n = 6
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			h := e.SubmitWait(nil, func() bool { return false }, func(*Iter) {})
			errs <- h.Wait()
		}()
		i := i
		waitTenant(t, e, DefaultTenant, 5*time.Second, func(ts TenantStats) bool {
			return ts.Waiting == int64(i+1)
		})
	}
	close(gate)
	if err := h0.Wait(); err != nil {
		t.Fatalf("gated pipeline failed: %v", err)
	}
	// One waiter is admitted by the freed slot and completes; Close must
	// release the rest with ErrEngineClosed. (Close is legal here: the
	// admitted pipeline is empty and completes before its Wait returns.)
	e.Close()
	admitted, closed := 0, 0
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			switch {
			case err == nil:
				admitted++
			case errors.Is(err, ErrEngineClosed):
				closed++
			default:
				t.Errorf("waiter err = %v, want nil or ErrEngineClosed", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("waiter leaked: still blocked after Close")
		}
	}
	if admitted+closed != n {
		t.Fatalf("accounting: admitted=%d closed=%d, want %d total", admitted, closed, n)
	}
	ts := e.TenantStats()[0]
	if ts.Waiting != 0 || ts.Pending != 0 {
		t.Errorf("gauges after Close: %+v, want zero Waiting/Pending", ts)
	}
	if ts.Submitted != ts.Admitted+ts.Rejected+ts.Canceled {
		t.Errorf("per-class sum: %+v, want Submitted == Admitted+Rejected+Canceled", ts)
	}
}

// TestTenantQueueClearsVacatedSlots pins that a waiter which leaves its
// class queue — withdrawn by its context, or popped by an admission —
// is not kept reachable through the queue's backing array: a queued
// waiter carries its submission's closures, context and Handle.
func TestTenantQueueClearsVacatedSlots(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	opts.MaxPending = 1
	e := NewEngine(opts)
	defer e.Close()

	gate := make(chan struct{})
	h0 := gatedSubmit(e, gate)

	const n = 3
	ctxs := make([]context.Context, n)
	cancels := make([]context.CancelFunc, n)
	results := make(chan error, n)
	for i := 0; i < n; i++ {
		ctxs[i], cancels[i] = context.WithCancel(context.Background())
		defer cancels[i]()
		go func(ctx context.Context) {
			results <- e.SubmitWait(ctx, func() bool { return false }, func(*Iter) {}).Wait()
		}(ctxs[i])
		waitTenant(t, e, DefaultTenant, 5*time.Second, func(ts TenantStats) bool {
			return ts.Waiting == int64(i+1)
		})
	}
	c := e.adm.classes[0]
	e.adm.mu.Lock()
	back := c.q // the backing array, as it holds all n waiters
	e.adm.mu.Unlock()
	if len(back) != n {
		t.Fatalf("queue holds %d waiters, want %d", len(back), n)
	}

	// Withdraw the middle waiter: remove shifts the tail left.
	cancels[1]()
	waitTenant(t, e, DefaultTenant, 5*time.Second, func(ts TenantStats) bool {
		return ts.Waiting == n-1 && ts.Canceled == 1
	})
	e.adm.mu.Lock()
	if back[n-1] != nil {
		t.Errorf("slot %d still references a waiter after remove", n-1)
	}
	e.adm.mu.Unlock()

	// Free the slot: both remaining waiters are popped from the head.
	close(gate)
	if err := h0.Wait(); err != nil {
		t.Fatalf("gated pipeline failed: %v", err)
	}
	for i := 0; i < n; i++ {
		select {
		case err := <-results:
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("waiter: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("waiter never resolved")
		}
	}
	e.adm.mu.Lock()
	for i, w := range back {
		if w != nil {
			t.Errorf("slot %d still references a waiter after the queue drained", i)
		}
	}
	e.adm.mu.Unlock()
	checkEngineDrained(t, e)
}

// TestSubmitWaitLaunchesWithoutCaller pins work-conserving admission: the
// slot freed by a completing pipeline starts the next queued submission
// on the releasing worker. The hook holds the woken SubmitWait caller
// until the queued pipeline's body has run; if the launch still needed
// the caller, the body could not run and the hook would wait out its
// limit.
func TestSubmitWaitLaunchesWithoutCaller(t *testing.T) {
	bodyRan := make(chan struct{})
	var timedOut atomic.Bool
	opts := DefaultOptions()
	opts.Workers = 2
	opts.MaxPending = 1
	opts.hooks = &schedHooks{point: func(p hookPoint) {
		if p != hookAdmitted {
			return
		}
		select {
		case <-bodyRan:
		case <-time.After(5 * time.Second):
			timedOut.Store(true)
		}
	}}
	e := NewEngine(opts)
	defer e.Close()

	gate := make(chan struct{})
	h0 := gatedSubmit(e, gate)
	hc := make(chan *Handle, 1)
	go func() {
		i := 0
		hc <- e.SubmitWait(nil, func() bool { i++; return i == 1 }, func(*Iter) { close(bodyRan) })
	}()
	waitTenant(t, e, DefaultTenant, 5*time.Second, func(ts TenantStats) bool { return ts.Waiting == 1 })

	close(gate)
	if err := h0.Wait(); err != nil {
		t.Fatalf("gated pipeline failed: %v", err)
	}
	select {
	case h := <-hc:
		if err := h.Wait(); err != nil {
			t.Fatalf("queued pipeline failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SubmitWait never returned")
	}
	if timedOut.Load() {
		t.Fatal("the queued pipeline ran only after its SubmitWait caller resumed; want it launched by the releasing worker")
	}
	checkEngineDrained(t, e)
}

// TestSubmitWaitRootsFirst pins the request-boundary order: a worker whose
// completion releases an admission slot and so launches a queued
// submission starts injected roots — its own ring, then the others —
// before it takes older deque work.
func TestSubmitWaitRootsFirst(t *testing.T) {
	if order := rootsStartOrder(t, 2); !slices.Equal(order, []string{"R", "R", "Y"}) {
		t.Fatalf("start order %v, want [R R Y]: roots first after a completion that launched", order)
	}
}

// TestSubmitWaitWorkFirstWithoutAdmission pins the other side: on an
// engine without admission a completion launches nothing, so the worker
// keeps the work-first order — its own ring, then a steal sweep that
// reaches the victim's deque before the victim's ring.
func TestSubmitWaitWorkFirstWithoutAdmission(t *testing.T) {
	if order := rootsStartOrder(t, 0); !slices.Equal(order, []string{"R", "Y", "R"}) {
		t.Fatalf("start order %v, want [R Y R]: work-first order without admission", order)
	}
}

// rootsStartOrder runs the request-boundary scenario on a two-worker
// engine and returns the start order of two roots (R) and request Y's
// second iteration. One worker is pinned in Y's body with Y's control
// frame on its deque; the other completes request X while the two roots
// wait. With maxPending 2, X and Y hold the budget, so the roots queue
// and each is launched by the completion that frees its slot; with 0 they
// are injected up front. Either way injection alternates rings, so one
// root sits in the pinned worker's ring, which a steal sweep reaches only
// after that worker's deque. (With one worker, every top-level completion
// finds the deque empty, so the order is only observable across two.)
func rootsStartOrder(t *testing.T, maxPending int) []string {
	t.Helper()
	opts := DefaultOptions()
	opts.Workers = 2
	opts.MaxPending = maxPending
	opts.Grain = 1 // release the control frame at every stage-0 exit
	e := NewEngine(opts)
	defer e.Close()

	var (
		mu    sync.Mutex
		order []string
	)
	record := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}

	gateX, inX := make(chan struct{}), make(chan struct{})
	i := 0
	hx := e.SubmitWait(nil, func() bool { i++; return i == 1 }, func(it *Iter) {
		it.Continue(1)
		close(inX)
		<-gateX
	})
	<-inX

	gateY, inY := make(chan struct{}), make(chan struct{})
	j := 0
	hy := e.SubmitWait(nil, func() bool {
		j++
		if j == 2 {
			record("Y")
		}
		return j <= 2
	}, func(it *Iter) {
		first := it.Index() == 0
		it.Continue(1) // Y's control frame goes to this worker's deque
		if first {
			close(inY)
			<-gateY
		}
	})
	<-inY

	roots := make(chan *Handle, 2)
	for r := 0; r < 2; r++ {
		submit := func() {
			k := 0
			roots <- e.SubmitWait(nil, func() bool {
				k++
				if k == 1 {
					record("R")
				}
				return k == 1
			}, func(*Iter) {})
		}
		if maxPending > 0 {
			go submit()
		} else {
			submit()
		}
	}
	if maxPending > 0 {
		waitTenant(t, e, DefaultTenant, 5*time.Second, func(ts TenantStats) bool { return ts.Waiting == 2 })
	}

	close(gateX)
	if err := hx.Wait(); err != nil {
		t.Fatalf("X: %v", err)
	}
	for r := 0; r < 2; r++ {
		if err := (<-roots).Wait(); err != nil {
			t.Fatalf("root: %v", err)
		}
	}
	// Y's second iteration runs without its first, so by now it started
	// or is about to.
	settles(5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == 3
	})
	close(gateY)
	if err := hy.Wait(); err != nil {
		t.Fatalf("Y: %v", err)
	}
	checkEngineDrained(t, e)
	mu.Lock()
	defer mu.Unlock()
	return order
}

// TestSubmitWaitLifecycleReport pins the Handle's lifecycle breakdown:
// every component is non-negative, their sum fits inside the latency the
// caller measured around the submission, and a submission that queued
// for admission reports that time as AdmissionWait.
func TestSubmitWaitLifecycleReport(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	opts.MaxPending = 1
	e := NewEngine(opts)
	defer e.Close()

	check := func(name string, rep PipelineReport, latency time.Duration) {
		t.Helper()
		parts := []time.Duration{rep.AdmissionWait, rep.QueueDelay, rep.Run}
		var sum time.Duration
		for _, d := range parts {
			if d < 0 {
				t.Errorf("%s: negative component in %+v", name, rep)
			}
			sum += d
		}
		if sum > latency {
			t.Errorf("%s: AdmissionWait %v + QueueDelay %v + Run %v = %v exceeds the caller's latency %v",
				name, rep.AdmissionWait, rep.QueueDelay, rep.Run, sum, latency)
		}
		if rep.Run <= 0 {
			t.Errorf("%s: Run = %v, want > 0", name, rep.Run)
		}
	}
	run := func(submit func(cond func() bool, body func(*Iter)) *Handle) (PipelineReport, time.Duration) {
		i := 0
		t0 := time.Now()
		rep, err := submit(func() bool { i++; return i <= 4 }, func(it *Iter) {
			it.Continue(1)
			time.Sleep(100 * time.Microsecond)
		}).Report()
		latency := time.Since(t0)
		if err != nil {
			t.Fatalf("Report: %v", err)
		}
		return rep, latency
	}

	rep, latency := run(func(c func() bool, b func(*Iter)) *Handle { return e.Submit(nil, c, b) })
	check("unqueued", rep, latency)

	const pinned = 5 * time.Millisecond
	gate := make(chan struct{})
	h0 := gatedSubmit(e, gate)
	type result struct {
		rep     PipelineReport
		latency time.Duration
	}
	res := make(chan result, 1)
	go func() {
		rep, latency := run(func(c func() bool, b func(*Iter)) *Handle { return e.SubmitWait(nil, c, b) })
		res <- result{rep, latency}
	}()
	waitTenant(t, e, DefaultTenant, 5*time.Second, func(ts TenantStats) bool { return ts.Waiting == 1 })
	time.Sleep(pinned)
	close(gate)
	if err := h0.Wait(); err != nil {
		t.Fatalf("gated pipeline failed: %v", err)
	}
	r := <-res
	check("queued", r.rep, r.latency)
	if r.rep.AdmissionWait < pinned {
		t.Errorf("queued: AdmissionWait = %v, want >= %v spent behind the pinned slot", r.rep.AdmissionWait, pinned)
	}

	if rep := e.RunPipeline(0, func() bool { return false }, func(*Iter) {}); rep.AdmissionWait != 0 || rep.QueueDelay != 0 || rep.Run != 0 {
		t.Errorf("blocking run: lifecycle %+v, want zero (submissions only)", rep)
	}
	checkEngineDrained(t, e)
}
