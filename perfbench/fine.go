package main

import (
	"fmt"

	"piper"
	"piper/internal/workload"
)

// fine-sps: one PipeWhile of many short iterations — stage 0 serial,
// stage 1 a parallel spin of a few hundred ns, stage 2 Wait(2) folding a
// checksum in order — against RunSerial of the same body.
const (
	fineIters  = 1 << 16
	fineMin    = 100 // spin units of stage 1, drawn from [fineMin, fineMin+fineSpread)
	fineSpread = 200
	fineSample = 64 // every fineSample-th iteration is timed
)

// finePass is one run of the fine-grained pipeline over units.
type finePass struct {
	units  []int64
	i      int
	next   int64
	sum    uint64
	bad    bool
	lat    []int64 // latency of every fineSample-th iteration, stage 0 to stage-2 exit
	traced bool
	waitNs int64 // traced: time in Wait(2), summed over iterations
	spans  []span
	id     int64
}

func newFinePass(units []int64, traced bool, id int64) *finePass {
	return &finePass{units: units, lat: make([]int64, 0, len(units)/fineSample), traced: traced, id: id}
}

func (f *finePass) cond() bool { return f.i < len(f.units) }

func (f *finePass) body(it *piper.Iter) {
	k := f.i // stage 0: serial
	f.i++
	u := f.units[k]
	var t0 int64
	sampled := k%fineSample == 0
	if sampled {
		t0 = clock()
	}
	it.Continue(1)
	v := workload.Spin(u) // stage 1: parallel
	if f.traced {
		t := clock()
		it.Wait(2)
		// Stage 2 is serial, so the accumulators need no lock.
		e := clock()
		f.waitNs += e - t
		if sampled {
			f.spans = append(f.spans, span{f.id, "stage.wait", "iteration", t, e})
		}
	} else {
		it.Wait(2)
	}
	if it.Index() != f.next || int64(k) != f.next {
		f.bad = true
	}
	f.next++
	f.sum = foldIter(f.sum, int64(k), v)
	if sampled {
		e := clock()
		f.lat = append(f.lat, e-t0)
		if f.traced {
			f.spans = append(f.spans, span{f.id, "iteration", "", t0, e})
		}
	}
}

// check checks stage-2 order and the checksum against want.
func (f *finePass) check(o *outcome, want uint64, what string) {
	o.attempted++
	switch {
	case f.bad || f.next != int64(len(f.units)):
		o.fail("%s: stage 2 ran %d iterations or out of order", what, f.next)
	case f.sum != want:
		o.fail("%s: checksum %x differs from RunSerial's %x", what, f.sum, want)
	}
}

func runFineSPS(cfg config, o *outcome) {
	var units []int64
	var want uint64
	eng := setupRepeated(o, func() *piper.Engine {
		rng := workload.NewRNG(cfg.seed)
		units = make([]int64, fineIters)
		for i := range units {
			units[i] = fineMin + int64(rng.Intn(fineSpread))
		}
		ref := newFinePass(units, false, 0)
		piper.RunSerial(ref.cond, ref.body)
		want = ref.sum
		eng := piper.NewEngine(piper.Workers(2))
		p := newFinePass(units, false, 0)
		eng.PipeWhile(p.cond, p.body)
		p.check(o, want, "warm-up PipeWhile")
		return eng
	})
	defer eng.Close()

	// timed runs one pass and returns its wall time in ns.
	timed := func(p *finePass, serial bool) int64 {
		s := clock()
		if serial {
			piper.RunSerial(p.cond, p.body)
		} else {
			eng.PipeWhile(p.cond, p.body)
		}
		return clock() - s
	}

	if cfg.traced {
		var probeNs, tracedNs []int64
		probeUntil := clock() + int64(cfg.budget(0.4))
		for clock() < probeUntil {
			p := newFinePass(units, false, 0)
			probeNs = append(probeNs, timed(p, false))
			p.check(o, want, "PipeWhile")
		}
		var log spanLog
		var waitNs, iters int64
		before := eng.Stats()
		until := clock() + int64(cfg.budget(0.6))
		for id := int64(0); clock() < until; id++ {
			p := newFinePass(units, true, id)
			tracedNs = append(tracedNs, timed(p, false))
			p.check(o, want, "traced PipeWhile")
			waitNs, iters = waitNs+p.waitNs, iters+int64(len(units))
			log.add(p.spans...)
		}
		s := checkQuiescent(eng, o)
		setEngineLayers(o, statsDelta(before, s))
		p := newFinePass(units, false, 0)
		rep := piper.Profile(eng, 0, p.cond, p.body)
		p.check(o, want, "profiled PipeWhile")
		checkQuiescent(eng, o)
		o.set("stage.wait_ns_per_iter", float64(waitNs)/float64(iters), "ns", iters, "time in Iter.Wait(2) per iteration")
		o.set("profile.parallelism", rep.Parallelism(), "ratio", rep.Iterations, "T1/Tinf from piper.Profile")
		setZero(o, "stage 1 has no fork-join", "forkjoin.sync_ns_per_iter")
		setZero(o, notExercised, requestOnly...)
		setZero(o, notExercised, admissionOnly...)
		setZero(o, notExercised, lzOnly...)
		setOverhead(o, probeNs, tracedNs, "pass time")
		log.write(cfg, o)
		return
	}

	var serialNs, parNs []int64
	var serialLat, parLat []int64
	until := clock() + int64(cfg.budget(1))
	for clock() < until {
		p := newFinePass(units, false, 0)
		serialNs = append(serialNs, timed(p, true))
		p.check(o, want, "RunSerial")
		serialLat = append(serialLat, p.lat...)
		p = newFinePass(units, false, 0)
		parNs = append(parNs, timed(p, false))
		p.check(o, want, "PipeWhile")
		parLat = append(parLat, p.lat...)
	}
	checkQuiescent(eng, o)

	setLatencyNs(o, "lo", "", serialLat, fmt.Sprintf("iteration latency, stage 0 to stage-2 exit, RunSerial (every %dth)", fineSample))
	setLatencyNs(o, "hi", "", parLat, fmt.Sprintf("iteration latency, stage 0 to stage-2 exit, PipeWhile at P=2 (every %dth)", fineSample))
	par, ser := medianNs(parNs), medianNs(serialNs)
	o.set("rate", float64(fineIters)/(par/1e9), "1/s", int64(len(parNs)),
		fmt.Sprintf("iterations per second at P=2 (%d per pass, median pass)", fineIters))
	o.set("speedup", ser/par, "x", int64(len(parNs)), "median RunSerial pass / median P=2 pass")
	o.also("rate", "fine.iters_per_s")
	o.also("speedup", "fine.speedup")
}
