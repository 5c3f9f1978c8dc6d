package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Multi-tenant admission: the QoS layer in front of the scheduler.
//
// The MaxPending budget used to be a bare token channel, which had two
// problems for a multi-tenant server. First, every caller shared one
// anonymous budget, so a hot tenant flooding SubmitWait could starve
// everyone else's admissions indefinitely. Second, a channel send with
// many blocked senders wakes them in *random* order, so even two equally
// behaved callers had no FIFO guarantee — a fairness bug in its own
// right. The admitter below replaces the channel with an explicit
// weighted-fair queue:
//
//   - every engine has a registry of tenant classes (Options.Tenants plus
//     the always-present default class ""), each with a weight, an
//     optional per-class pending quota, and an optional admission
//     deadline;
//   - a submission that cannot be admitted immediately parks in its
//     class's FIFO queue; freed capacity is handed to queued waiters by
//     deficit round-robin across classes (each backlogged class earns
//     `weight` admissions per round, so every class is served every round
//     and no class can be starved), FIFO within a class;
//   - among classes eligible in a round, the one whose head waiter has
//     the earliest admission deadline is served first (EDF tie-break), so
//     deadline-bearing traffic is ordered ahead of patient bulk traffic
//     at the injection boundary;
//   - a waiter whose class deadline expires before a slot frees is
//     rejected with ErrAdmissionExpired instead of waiting forever.
//
// All admitter state is guarded by one mutex. Admission is a per-pipeline
// event (not per-iteration), so this is far off the scheduler's hot path;
// the mutex also gives the per-class counters exact cross-field
// consistency, which the accounting invariant below relies on.
//
// Accounting invariant (per class, once no waiter is queued):
//
//	Submitted == Admitted + Rejected + Canceled
//
// with Pending and Waiting gauges both zero on a quiescent engine —
// pipeserve and the admission tests assert exactly this.

// DefaultTenant is the name of the implicit tenant class every engine
// has: Submit/SubmitWait without a tenant name admit through it.
const DefaultTenant = ""

// TenantClass configures one admission class of a multi-tenant engine
// (Options.Tenants). The zero value of every field is usable: weight
// defaults to 1, no per-class quota, no admission deadline.
type TenantClass struct {
	// Name identifies the class to SubmitTenant/SubmitWaitTenant. The
	// empty name configures the default class used by plain Submit.
	Name string
	// Weight is the class's deficit-round-robin quantum: a backlogged
	// class is granted Weight admissions per round across the backlogged
	// set, so two classes with weights 3 and 1 split contended admission
	// capacity 3:1. Values below 1 are treated as 1.
	Weight int
	// MaxPending is the per-class pending quota: at most this many
	// admitted-but-unfinished pipelines, independent of the engine-wide
	// Options.MaxPending. 0 means bounded only by the global budget.
	MaxPending int
	// Deadline bounds how long a SubmitWait submission of this class may
	// wait for admission: a waiter still queued when it expires fails
	// with ErrAdmissionExpired. It also orders the backlog — among
	// classes eligible in a DRR round, the earliest head-waiter deadline
	// is admitted first. 0 means no deadline.
	Deadline time.Duration
}

// TenantStats is the per-class admission counter snapshot
// (Engine.TenantStats). Counters are monotone within an engine lifetime;
// Pending and Waiting are gauges. Once a class has no queued waiter,
// Submitted == Admitted + Rejected + Canceled exactly.
type TenantStats struct {
	// Name, Weight, MaxPending, and Deadline echo the class configuration
	// (normalized).
	Name       string
	Weight     int
	MaxPending int
	Deadline   time.Duration
	// Submitted counts admission attempts: every Submit/SubmitWait routed
	// to this class, whatever the outcome.
	Submitted int64
	// Admitted counts submissions granted an admission slot.
	Admitted int64
	// Rejected counts submissions refused by the admitter: Submit calls
	// that found the budget full (ErrSaturated), waiters whose class
	// admission deadline expired (ErrAdmissionExpired), and waiters
	// released by engine close (ErrEngineClosed).
	Rejected int64
	// Canceled counts SubmitWait submissions whose own context was
	// canceled or expired while they were queued for admission.
	Canceled int64
	// AdmissionWaitNs is the total time this class's submissions spent
	// queued for admission, in nanoseconds (the per-class share of
	// Stats.AdmissionWaitNs).
	AdmissionWaitNs int64
	// Pending is the gauge of admission slots currently held by this
	// class: pipelines admitted and not yet completed.
	Pending int64
	// Waiting is the gauge of SubmitWait callers currently queued for
	// admission.
	Waiting int64
}

// admitWaiter is one SubmitWait caller parked in its class queue. It
// carries its own launch: the admitter that grants it a slot starts the
// pipeline on the releasing goroutine, so freed capacity never waits for
// the caller to be rescheduled. The result channel is buffered so the
// admitter can resolve a waiter without blocking: nil means admitted and
// launched (the slot is charged to the waiter's class), non-nil is the
// rejection and nothing was launched.
type admitWaiter struct {
	ch chan error
	// enq and deadline are absolute nowNs timestamps; deadline 0 means
	// none.
	enq      int64
	deadline int64
	sub      submission
}

// tenantState is one class's admission state. Everything here is guarded
// by the admitter mutex.
type tenantState struct {
	cfg     TenantClass
	deficit int
	q       []*admitWaiter

	pending, waiting                       int64
	submitted, admitted, rejected, cancels int64
	waitNs                                 int64
}

// room reports whether the class quota admits one more pipeline.
func (c *tenantState) room() bool {
	return c.cfg.MaxPending == 0 || c.pending < int64(c.cfg.MaxPending)
}

// remove unlinks w from the class queue, preserving FIFO order, and
// reports whether it was still queued. The vacated tail slot is cleared
// so the backing array does not pin the waiter's closures and Handle.
func (c *tenantState) remove(w *admitWaiter) bool {
	for i, qw := range c.q {
		if qw == w {
			last := len(c.q) - 1
			copy(c.q[i:], c.q[i+1:])
			c.q[last] = nil
			c.q = c.q[:last]
			return true
		}
	}
	return false
}

// popHead dequeues the class's head waiter, clearing its slot for the
// same reason as remove.
func (c *tenantState) popHead() *admitWaiter {
	w := c.q[0]
	c.q[0] = nil
	c.q = c.q[1:]
	return w
}

// admitter is the engine's admission queue. nil on engines with neither
// a MaxPending budget nor tenant classes — those admit everything
// unconditionally with zero overhead, as before.
type admitter struct {
	eng *Engine
	// limit is the engine-wide pending budget (Options.MaxPending);
	// 0 means bounded per class only.
	limit int

	mu      sync.Mutex
	closed  bool
	total   int // admitted and not yet completed, all classes
	classes []*tenantState
	byName  map[string]int
	// rr is the deficit-round-robin cursor: the class index the next
	// eligibility scan starts from. It advances past a class when that
	// class exhausts its deficit.
	rr int

	// totalGauge mirrors total for the lock-free Stats gauge read.
	totalGauge atomic.Int64
}

// newAdmitter builds the admission queue for the given options, or nil
// when no budget and no tenant classes are configured. Class
// configuration is normalized here: weights clamp to >= 1, negative
// quotas and deadlines to 0, and a duplicate name overrides the earlier
// entry (so callers can re-tune the default class by configuring "").
func newAdmitter(e *Engine, opts *Options) *admitter {
	if opts.MaxPending <= 0 && len(opts.Tenants) == 0 {
		return nil
	}
	a := &admitter{eng: e, limit: opts.MaxPending, byName: make(map[string]int)}
	add := func(tc TenantClass) {
		if tc.Weight < 1 {
			tc.Weight = 1
		}
		if tc.MaxPending < 0 {
			tc.MaxPending = 0
		}
		if tc.Deadline < 0 {
			tc.Deadline = 0
		}
		if i, ok := a.byName[tc.Name]; ok {
			a.classes[i].cfg = tc
			return
		}
		a.byName[tc.Name] = len(a.classes)
		a.classes = append(a.classes, &tenantState{cfg: tc})
	}
	add(TenantClass{Name: DefaultTenant})
	for _, tc := range opts.Tenants {
		add(tc)
	}
	return a
}

// lookup resolves a tenant name to its class index.
func (a *admitter) lookup(name string) (int, bool) {
	ci, ok := a.byName[name] // byName is immutable after construction
	return ci, ok
}

// roomLocked reports whether class c can be admitted right now under
// both the global budget and its own quota.
func (a *admitter) roomLocked(c *tenantState) bool {
	return (a.limit == 0 || a.total < a.limit) && c.room()
}

// admitLocked charges one admission to class c.
func (a *admitter) admitLocked(c *tenantState) {
	a.total++
	a.totalGauge.Store(int64(a.total))
	c.pending++
	c.admitted++
}

// tryAdmit is the non-blocking admission policy (Submit): it admits
// immediately or fails with ErrSaturated (ErrEngineClosed on a closed
// engine) without queueing anything.
func (a *admitter) tryAdmit(ci int) error {
	c := a.classes[ci]
	a.mu.Lock()
	c.submitted++
	switch {
	case a.closed:
		c.rejected++
		a.mu.Unlock()
		a.eng.stats.saturations.Add(1)
		return ErrEngineClosed
	case !a.roomLocked(c):
		c.rejected++
		a.mu.Unlock()
		a.eng.stats.saturations.Add(1)
		return ErrSaturated
	}
	a.admitLocked(c)
	a.mu.Unlock()
	return nil
}

// waitAdmit is the blocking admission policy (SubmitWait): it admits
// immediately when there is room, otherwise parks in the class's FIFO
// queue until the fair-queue scheduler hands it a freed slot, the
// caller's context is done, the class admission deadline expires, or the
// engine closes. launched reports that the releaser of the slot already
// started the pipeline, so the caller only returns its Handle. A nil
// error with launched false means admitted on the fast path — the caller
// holds a slot it must launch into (submitAdmitted releases it again if
// the engine turns out to be closed).
func (a *admitter) waitAdmit(s submission) (launched bool, err error) {
	c := a.classes[s.ci]
	a.mu.Lock()
	c.submitted++
	if a.closed {
		c.rejected++
		a.mu.Unlock()
		a.eng.stats.saturations.Add(1)
		return false, ErrEngineClosed
	}
	if a.roomLocked(c) {
		a.admitLocked(c)
		a.mu.Unlock()
		return false, nil
	}
	w := &admitWaiter{ch: make(chan error, 1), enq: nowNs(), sub: s}
	var timerC <-chan time.Time
	var timer *time.Timer
	if d := c.cfg.Deadline; d > 0 {
		w.deadline = w.enq + int64(d)
		timer = time.NewTimer(d)
		timerC = timer.C
	}
	c.q = append(c.q, w)
	c.waiting++
	a.mu.Unlock()
	if timer != nil {
		defer timer.Stop()
	}
	var ctxDone <-chan struct{}
	if s.ctx != nil {
		ctxDone = s.ctx.Done()
	}
	select {
	case err = <-w.ch:
		// Resolved by the admitter: admitted and launched (nil), rejected
		// by the class deadline sweep, or released by Close.
		a.eng.hookAt(hookAdmitted)
	case <-ctxDone:
		err = a.cancelWait(c, w, context.Cause(s.ctx), true)
	case <-timerC:
		err = a.cancelWait(c, w, ErrAdmissionExpired, false)
	}
	return err == nil, err
}

// cancelWait resolves the race between a caller-side wakeup (context
// done, deadline fired) and the admitter resolving the same waiter. If
// the waiter is still queued it is withdrawn and cause wins; nothing was
// launched. If the admitter got there first, its verdict stands — an
// admission in particular is kept (the releaser already launched the
// pipeline, and a dead context aborts it through the ordinary
// cancellation path), so a slot is never released twice and never
// leaked. The verdict is sent only after the launch, so this receive
// may wait out that one inject.
func (a *admitter) cancelWait(c *tenantState, w *admitWaiter, cause error, byCtx bool) error {
	a.mu.Lock()
	if !c.remove(w) {
		a.mu.Unlock()
		return <-w.ch // the admitter already resolved us
	}
	c.waiting--
	wait := nowNs() - w.enq
	c.waitNs += wait
	if byCtx {
		c.cancels++
	} else {
		c.rejected++
	}
	a.mu.Unlock()
	a.eng.stats.admissionWaitNs.Add(wait)
	a.eng.stats.saturations.Add(1)
	if cause == nil {
		cause = context.Canceled
	}
	return cause
}

// release returns class ci's admission slot at pipeline completion and
// hands the freed capacity to queued waiters under the fair policy. It
// launches each admitted waiter's pipeline itself, after dropping the
// mutex (a.mu is ordered before submitMu and idleMu), and only then
// resolves the waiter: the slot is put to work on the releasing
// goroutine instead of idling until the woken caller gets a processor.
// A closed engine launches nothing; Close fails the queued waiters, and
// the engine-closed release inside submitAdmitted cannot recurse.
// launched reports whether a queued submission was started.
func (a *admitter) release(ci int) (launched bool) {
	var buf [1]*admitWaiter // a release usually admits one waiter; keep it off the heap
	a.mu.Lock()
	a.total--
	a.totalGauge.Store(int64(a.total))
	a.classes[ci].pending--
	ready := buf[:0]
	if !a.eng.closed.Load() {
		ready = a.admitNextLocked(ready)
	}
	a.mu.Unlock()
	for _, w := range ready {
		a.eng.submitAdmitted(w.sub, true)
		w.ch <- nil
	}
	return len(ready) > 0
}

// admitNextLocked drains freed capacity into the class queues: while the
// global budget has room, pick the next class under DRR+EDF and admit
// its head waiter, appending it to ready for the caller to launch.
// Called with the mutex held whenever capacity may have appeared (a
// release, including a quota-bound release that frees only class-local
// room).
func (a *admitter) admitNextLocked(ready []*admitWaiter) []*admitWaiter {
	for a.limit == 0 || a.total < a.limit {
		c := a.pickLocked()
		if c == nil {
			break
		}
		w := c.popHead()
		c.waiting--
		wait := nowNs() - w.enq
		c.waitNs += wait
		a.eng.stats.admissionWaitNs.Add(wait)
		a.admitLocked(c)
		ready = append(ready, w)
	}
	return ready
}

// pickLocked selects the class whose head waiter is admitted next:
// deficit round-robin across backlogged classes with per-class quota
// room, earliest-deadline-first among the classes eligible this round,
// ring order from the cursor as the final tie-break. Expired waiters are
// rejected during the scan so they can never consume capacity. Returns
// nil when no queued waiter is admissible (all queues empty, or every
// backlogged class is at its own quota).
func (a *admitter) pickLocked() *tenantState {
	n := len(a.classes)
	for pass := 0; pass < 2; pass++ {
		var best *tenantState
		bestIdx := -1
		bestDl := int64(math.MaxInt64)
		for k := 0; k < n; k++ {
			i := (a.rr + k) % n
			c := a.classes[i]
			a.rejectExpiredLocked(c)
			if len(c.q) == 0 || !c.room() || c.deficit <= 0 {
				continue
			}
			dl := int64(math.MaxInt64)
			if d := c.q[0].deadline; d != 0 {
				dl = d
			}
			// best == nil must be checked explicitly: a deadline-free head
			// has dl == MaxInt64, which never beats the MaxInt64 sentinel
			// on strict inequality alone.
			if best == nil || dl < bestDl {
				best, bestIdx, bestDl = c, i, dl
			}
		}
		if best != nil {
			best.deficit--
			if best.deficit == 0 {
				a.rr = (bestIdx + 1) % n
			}
			return best
		}
		// Every eligible class has spent this round's deficit: replenish
		// each backlogged class by its weight and rescan. No eligible
		// class at all means nothing is admissible.
		any := false
		for _, c := range a.classes {
			if len(c.q) > 0 && c.room() {
				c.deficit = c.cfg.Weight
				any = true
			}
		}
		if !any {
			return nil
		}
	}
	return nil
}

// rejectExpiredLocked fails queued waiters of class c whose admission
// deadline has passed. Run during every eligibility scan so an expired
// waiter at the head of a queue cannot shadow a live one behind it.
func (a *admitter) rejectExpiredLocked(c *tenantState) {
	now := nowNs()
	for len(c.q) > 0 {
		if d := c.q[0].deadline; d == 0 || now <= d {
			return
		}
		w := c.popHead()
		c.waiting--
		wait := now - w.enq
		c.waitNs += wait
		c.rejected++
		a.eng.stats.admissionWaitNs.Add(wait)
		a.eng.stats.saturations.Add(1)
		w.ch <- ErrAdmissionExpired
	}
}

// close fails every queued waiter with ErrEngineClosed. Called by
// Engine.Close right after the closed flag flips, so no SubmitWait
// caller can block Close (waiters enqueued later observe the closed flag
// under the same mutex and never park).
func (a *admitter) close() {
	a.mu.Lock()
	a.closed = true
	now := nowNs()
	for _, c := range a.classes {
		for _, w := range c.q {
			c.waiting--
			wait := now - w.enq
			c.waitNs += wait
			c.rejected++
			a.eng.stats.admissionWaitNs.Add(wait)
			a.eng.stats.saturations.Add(1)
			w.ch <- ErrEngineClosed
		}
		c.q = nil
	}
	a.mu.Unlock()
}

// tenantStats snapshots every class under the mutex, so the counters of
// one snapshot are mutually consistent (Submitted == Admitted + Rejected
// + Canceled + Waiting holds within a single snapshot even mid-storm).
func (a *admitter) tenantStats() []TenantStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]TenantStats, len(a.classes))
	for i, c := range a.classes {
		out[i] = TenantStats{
			Name:            c.cfg.Name,
			Weight:          c.cfg.Weight,
			MaxPending:      c.cfg.MaxPending,
			Deadline:        c.cfg.Deadline,
			Submitted:       c.submitted,
			Admitted:        c.admitted,
			Rejected:        c.rejected,
			Canceled:        c.cancels,
			AdmissionWaitNs: c.waitNs,
			Pending:         c.pending,
			Waiting:         c.waiting,
		}
	}
	return out
}

// TenantStats returns the per-class admission snapshot, one entry per
// configured tenant class (the default class "" first, then
// Options.Tenants in registration order). It returns nil on an engine
// with no admission control (no MaxPending budget and no tenant
// classes). See TenantStats (the type) for the accounting invariant.
func (e *Engine) TenantStats() []TenantStats {
	if e.adm == nil {
		return nil
	}
	return e.adm.tenantStats()
}
