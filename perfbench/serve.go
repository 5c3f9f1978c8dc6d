package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"piper"
)

const (
	// serve-open arrival rates. lo leaves the workers idle between
	// arrivals, so they park and wake; hi keeps them mostly busy.
	loRate = 3000.0
	hiRate = 10000.0
	// The ramp starts at hiRate and climbs by rampCoarse per passing step
	// (or steps down by it while nothing has passed), then bisects
	// between the highest pass and the lowest confirmed failure down to
	// rampResolution. Each step lasts rampStep.
	rampCoarse     = 1.25
	rampResolution = 0.03
	rampStep       = 500 * time.Millisecond
	rampMax        = 200000.0
	rampMin        = 100.0
	// latencyLimit is the p99 a ramp step must meet.
	latencyLimit = 10 * time.Millisecond
	// genBehind flags an open loop whose generator ran this late at p99.
	genBehind = time.Millisecond

	// serve-qos: a contended budget of 4 admitted pipelines, a quiet
	// class of weight 8, and a noisy class of weight 1 whose quota equals
	// the budget, so the flood alone can fill it and the quiet class has
	// to queue behind it.
	qosBudget     = 4
	floodBurst    = 128
	floodGap      = time.Millisecond
	floodCancel   = 0.05
	floodCancelBy = 500 * time.Microsecond
)

// setupRepeated runs setup three times and keeps the last engine, closing
// the others; it reports the median as setup_s.
func setupRepeated(o *outcome, setup func() *piper.Engine) *piper.Engine {
	var eng *piper.Engine
	var times []float64
	for i := 0; i < 3; i++ {
		if eng != nil {
			checkQuiescent(eng, o)
			eng.Close()
		}
		t := clock()
		eng = setup()
		times = append(times, float64(clock()-t)/1e9)
	}
	// Time the workload from a collected heap, as testing.B does, so the
	// garbage of the discarded set-ups does not land in the timed part.
	runtime.GC()
	o.set("setup_s", median(times), "s", int64(len(times)), "input generation + NewEngine + warm-up, median of 3")
	return eng
}

// rampResult is one judged step of the sustainable-rate ramp.
type rampResult struct {
	rate    float64
	verdict stepVerdict
}

// ramp searches for the highest open-loop rate the engine sustains
// within latencyLimit. It climbs from start by rampCoarse while steps
// pass (stepping down by the same factor while none has passed yet), then
// bisects geometrically between the highest pass and the lowest confirmed
// failure until they are within rampResolution of each other. A failing
// step is run again once before it counts, so one host stall does not
// end the climb. The search stops when the budget is spent and returns
// every step it ran.
func ramp(o *outcome, eng *piper.Engine, src *source, start float64, budget time.Duration) []rampResult {
	deadline := clock() + int64(budget)
	var steps []rampResult
	rate, lastPass, firstFail, retried := start, 0.0, math.Inf(1), false
	for clock()+int64(rampStep) < deadline && rate <= rampMax && rate >= rampMin {
		p := openLoop(eng, src, rate, rampStep, nil)
		p.tally(o)
		trace := make([]completion, len(p.samples))
		for i, s := range p.samples {
			trace[i] = completion{due: s.due, done: s.done, failed: s.class != served}
		}
		v := judgeStep(trace, p.start, p.end, rate, int64(latencyLimit))
		steps = append(steps, rampResult{rate, v})
		switch {
		case v.pass:
			lastPass, retried = max(lastPass, rate), false
		case !retried:
			retried = true
			continue
		default:
			firstFail, retried = min(firstFail, rate), false
		}
		switch {
		case lastPass == 0:
			rate /= rampCoarse
		case math.IsInf(firstFail, 1):
			rate = lastPass * rampCoarse
		case firstFail/lastPass <= 1+rampResolution:
			return steps
		default:
			rate = math.Sqrt(lastPass * firstFail)
		}
	}
	return steps
}

// bestStep is the highest-rate passing step, or nil.
func bestStep(steps []rampResult) *rampResult {
	var best *rampResult
	for i := range steps {
		if s := &steps[i]; s.verdict.pass && (best == nil || s.rate > best.rate) {
			best = s
		}
	}
	return best
}

// latencies returns the latencies of samples, in the order given.
func latencies(samples []sample) []int64 {
	out := make([]int64, len(samples))
	for i := range samples {
		out[i] = samples[i].latency()
	}
	return out
}

// genLagP99 is the nearest-rank p99 of how late the generator submitted
// each request, in ns.
func genLagP99(samples []sample) int64 {
	lag := make([]int64, len(samples))
	for i, s := range samples {
		lag[i] = s.submitStart - s.due
	}
	return percentile(sortedCopy(lag), 0.99)
}

func runServeOpen(cfg config, o *outcome) {
	var src *source
	eng := setupRepeated(o, func() *piper.Engine {
		src = &source{specs: makeRequests(cfg.seed, requestPool, 0, time.Microsecond)}
		eng := piper.NewEngine(piper.Workers(2))
		warmUp(o, eng, src, "", 2000)
		return eng
	})
	defer eng.Close()

	if cfg.traced {
		probe := openLoop(eng, src, hiRate, cfg.budget(0.2), nil)
		before := eng.Stats()
		src.traced = true
		var log spanLog
		lo := openLoop(eng, src, loRate, cfg.budget(0.4), &log)
		hi := openLoop(eng, src, hiRate, cfg.budget(0.4), &log)
		s := checkQuiescent(eng, o)
		probe.tally(o)
		all := append(lo.tally(o), hi.tally(o)...)
		setEngineLayers(o, statsDelta(before, s))
		setRequestLayers(o, append(lo.traced, hi.traced...))
		o.named("gen.lag_p99_us", float64(genLagP99(all))/1e3, "us", int64(len(all)), "generator lateness against the schedule")
		setZero(o, notExercised, admissionOnly...)
		setZero(o, notExercised, append(lzOnly, "profile.parallelism")...)
		setOverhead(o, latencies(probe.samples), latencies(hi.samples), "latency at the hi rate")
		log.write(cfg, o)
		return
	}

	serial, nSerial := serialRate(o, src, cfg.budget(0.05))
	lo := openLoop(eng, src, loRate, cfg.budget(0.25), nil)
	hi := openLoop(eng, src, hiRate, cfg.budget(0.25), nil)
	// The ramp's failing steps pile up a backlog of goroutines; the
	// high-water RSS is read before them, over the fixed-rate phases.
	o.set("peak_rss_mb", peakRSSMB(), "MB", 1, "process high-water resident set before the ramp")
	steps := ramp(o, eng, src, hiRate, cfg.budget(0.45))
	checkQuiescent(eng, o)

	setLatencyNs(o, "lo", "serve.lo", latencies(lo.tally(o)), fmt.Sprintf("serve.lo: due time to Handle.Wait at %.0f req/s", loRate))
	setLatencyNs(o, "hi", "serve.hi", latencies(hi.tally(o)), fmt.Sprintf("serve.hi: due time to Handle.Wait at %.0f req/s", hiRate))
	for _, st := range steps {
		v := st.verdict
		o.say("ramp step %7.0f req/s: pass=%-5v p99=%8.1fus n=%d inflight mid=%d end=%d served=%.0f/s",
			st.rate, v.pass, float64(v.p99)/1e3, v.n, v.inflightMid, v.inflightEnd, v.servedPerSec)
	}
	if best := bestStep(steps); best != nil {
		o.set("rate", best.verdict.servedPerSec, "1/s", int64(best.verdict.n),
			fmt.Sprintf("served req/s of the highest step (%.0f req/s) with p99 <= %v and no growing backlog", best.rate, latencyLimit))
		o.set("speedup", best.verdict.servedPerSec/serial, "x", int64(nSerial),
			fmt.Sprintf("serve.max_rps / RunSerial rate of the same requests (%.0f req/s)", serial))
		o.also("rate", "serve.max_rps")
	} else {
		o.fail("no ramp step sustained its rate")
	}
	for _, p := range []struct {
		name string
		ph   *phase
	}{{"lo", lo}, {"hi", hi}} {
		lag := genLagP99(p.ph.samples)
		o.say("generator %s: lag p99 %.1fus behind=%v", p.name, float64(lag)/1e3, lag > int64(genBehind))
	}
}

func runServeQoS(cfg config, o *outcome) {
	var quiet, noisy *source
	eng := setupRepeated(o, func() *piper.Engine {
		quiet = &source{specs: makeRequests(cfg.seed, requestPool, 0, time.Microsecond)}
		noisy = &source{specs: makeRequests(cfg.seed^0x5bd1e995, requestPool, floodCancel, floodCancelBy), idBase: 1 << 40}
		eng := piper.NewEngine(piper.Workers(2), piper.MaxPending(qosBudget), piper.Tenants(
			piper.TenantClass{Name: "quiet", Weight: 8},
			piper.TenantClass{Name: "noisy", Weight: 1, MaxPending: qosBudget},
		))
		warmUp(o, eng, quiet, "quiet", 1000)
		warmUp(o, eng, noisy, "noisy", 1000)
		return eng
	})
	defer eng.Close()

	// mixed runs the quiet closed loop against the noisy flood for dur.
	mixed := func(dur time.Duration, log *spanLog) (q, n *phase) {
		until := clock() + int64(dur)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			n = flood(eng, noisy, "noisy", floodBurst, floodGap, until, log)
		}()
		q = closedLoop(eng, quiet, "quiet", until, log)
		wg.Wait()
		return q, n
	}

	if cfg.traced {
		probeQ, probeN := mixed(cfg.budget(0.4), nil)
		before, tsBefore := eng.Stats(), eng.TenantStats()
		quiet.traced, noisy.traced = true, true
		var log spanLog
		q, n := mixed(cfg.budget(0.6), &log)
		s := checkQuiescent(eng, o)
		setEngineLayers(o, statsDelta(before, s))
		setAdmissionLayers(o, tsBefore, eng.TenantStats())
		probeQ.tally(o)
		probeN.tally(o)
		n.tally(o)
		q.tally(o)
		setRequestLayers(o, q.traced)
		setZero(o, notExercised, append(lzOnly, "profile.parallelism")...)
		setOverhead(o, latencies(probeQ.samples), latencies(q.samples), "quiet latency under the flood")
		log.write(cfg, o)
		return
	}

	serial, nSerial := serialRate(o, quiet, cfg.budget(0.05))
	solo := closedLoop(eng, quiet, "quiet", clock()+int64(cfg.budget(0.3)), nil)
	q, n := mixed(cfg.budget(0.6), nil)
	checkQuiescent(eng, o)

	soloServed, qServed := solo.tally(o), q.tally(o)
	n.tally(o)
	nServed := n.counts[served]
	setLatencyNs(o, "lo", "", latencies(soloServed), "quiet class alone: Submit to Handle.Wait, closed loop in-flight 1")
	setLatencyNs(o, "hi", "qos.quiet", latencies(qServed), "qos.quiet: quiet class while the noisy flood runs")
	o.set("rate", float64(nServed)/n.seconds(), "1/s", int64(n.requests()),
		fmt.Sprintf("noisy requests served per second (%d of %d canceled)", n.counts[canceled], n.requests()))
	o.also("rate", "qos.noisy.rps")
	total := float64(len(qServed)+nServed) / q.seconds()
	o.set("speedup", total/serial, "x", int64(nSerial),
		fmt.Sprintf("both classes' served req/s under the flood (%.0f) / RunSerial rate (%.0f req/s)", total, serial))
}

// setAdmissionLayers reports TenantStats deltas between two snapshots.
func setAdmissionLayers(o *outcome, a, b []piper.TenantStats) {
	var adm, rej, can, wait, quietWait int64
	for i, d := range b {
		if i < len(a) {
			d.Admitted -= a[i].Admitted
			d.Rejected -= a[i].Rejected
			d.Canceled -= a[i].Canceled
			d.AdmissionWaitNs -= a[i].AdmissionWaitNs
		}
		adm, rej, can, wait = adm+d.Admitted, rej+d.Rejected, can+d.Canceled, wait+d.AdmissionWaitNs
		if d.Name == "quiet" {
			quietWait = d.AdmissionWaitNs
		}
	}
	o.set("admission.admitted", float64(adm), "count", adm, "admitted, all classes")
	o.set("admission.rejected", float64(rej), "count", rej, "rejected, all classes")
	o.set("admission.canceled", float64(can), "count", can, "canceled while queued, all classes")
	o.set("admission.wait_ms", float64(wait)/1e6, "ms", adm, "time queued for admission, all classes")
	o.set("admission.quiet_wait_ms", float64(quietWait)/1e6, "ms", adm, "time the quiet class queued for admission")
}

// setRequestLayers reports the per-layer percentiles of traced, served
// requests. Each request's spans are request, with children submit,
// queue, run (children stage.wait and forkjoin.sync) and notify; the
// part of a request no child covers is reported as trace.gap_p50_us.
func setRequestLayers(o *outcome, samples []tracedSample) {
	var calls, queue, run, runSelf, notify, gap []int64
	var waitNs, syncNs, iters int64
	for _, s := range samples {
		q := interval{s.submitEnd, max(s.submitEnd, s.firstCond)}
		children := []interval{{s.submitStart, s.submitEnd}, q, {s.firstCond, s.lastExit}, {s.lastExit, s.done}}
		calls = append(calls, s.submitEnd-s.submitStart)
		queue = append(queue, q.end-q.start)
		run = append(run, s.lastExit-s.firstCond)
		runSelf = append(runSelf, s.runSelf)
		notify = append(notify, s.done-s.lastExit)
		gap = append(gap, selfTime(interval{s.due, s.done}, children))
		waitNs, syncNs, iters = waitNs+s.waitNs, syncNs+s.syncNs, iters+s.iters
	}
	n := int64(len(samples))
	pct := func(xs []int64, q float64) float64 { return float64(percentile(sortedCopy(xs), q)) }
	o.set("admission.call_p50_ns", pct(calls, 0.5), "ns", n, "duration of the Submit call")
	o.set("admission.call_p99_us", pct(calls, 0.99)/1e3, "us", n, "duration of the Submit call")
	o.set("queue.delay_p50_us", pct(queue, 0.5)/1e3, "us", n, "Submit return to the first cond call")
	o.set("queue.delay_p99_us", pct(queue, 0.99)/1e3, "us", n, "Submit return to the first cond call")
	o.set("run.p50_us", pct(run, 0.5)/1e3, "us", n, "first cond call to last body exit")
	o.set("run.self_p50_us", pct(runSelf, 0.5)/1e3, "us", n, "run minus its stage.wait and forkjoin.sync children")
	o.set("notify.p50_us", pct(notify, 0.5)/1e3, "us", n, "last body exit to Handle.Wait return")
	o.set("trace.gap_p50_us", pct(gap, 0.5)/1e3, "us", n, "part of a request's latency no child span covers")
	perIter := func(ns int64) float64 {
		if iters == 0 {
			return 0
		}
		return float64(ns) / float64(iters)
	}
	o.set("stage.wait_ns_per_iter", perIter(waitNs), "ns", iters, "time in Iter.Wait(2) per iteration")
	o.set("forkjoin.sync_ns_per_iter", perIter(syncNs), "ns", iters, "time in Iter.Sync per iteration")
}
