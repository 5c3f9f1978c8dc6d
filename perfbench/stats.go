package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile of an ascending-sorted
// sample set: the smallest sample with at least ceil(q*N) samples at or
// below it. These are the semantics of cmd/pipeserve's percentile, so the
// two tools report the same rank for the same samples.
func percentile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// minTailSamples is the sample count a q-quantile needs so that at least
// ten samples lie beyond it (1000 for p99, 20 for p50).
func minTailSamples(q float64) int {
	// Round before the ceiling: 10/(1-0.9) is 100.00000000000001 in
	// floating point.
	return int(math.Ceil(math.Round(10/(1-q)*1e6) / 1e6))
}

// maxWindows caps how many consecutive windows a latency series is cut
// into by windowQuantile.
const maxWindows = 31

// windowQuantile cuts xs (samples in the order they were taken) into up to
// maxWindows consecutive windows of equal count, each large enough to keep
// ten samples beyond q, and returns the median of the windows' nearest-rank
// q-quantiles together with the number of windows. One host stall then
// moves one window's tail instead of the whole run's. With fewer samples
// than one full window it returns the quantile of all of them and 0
// windows, so a caller can flag the tail as thin.
func windowQuantile(xs []int64, q float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	w := len(xs) / minTailSamples(q)
	if w > maxWindows {
		w = maxWindows
	}
	if w < 1 {
		return float64(percentile(sortedCopy(xs), q)), 0
	}
	vals := make([]float64, 0, w)
	for i := 0; i < w; i++ {
		lo, hi := i*len(xs)/w, (i+1)*len(xs)/w
		vals = append(vals, float64(percentile(sortedCopy(xs[lo:hi]), q)))
	}
	return median(vals), w
}

func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// interval is a half-open time range [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of parent the union of children covers.
// Children may overlap each other and may stick out of the parent; only
// the part inside the parent counts, and overlapping parts count once.
func covered(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(a, b int) bool { return clipped[a].start < clipped[b].start })
	var total int64
	cur := interval{start: math.MinInt64, end: math.MinInt64}
	for _, c := range clipped {
		if c.start > cur.end {
			total += cur.end - cur.start
			cur = c
			continue
		}
		if c.end > cur.end {
			cur.end = c.end
		}
	}
	if cur.end > cur.start {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - covered(parent, children)
}

// ratio is a share reported together with its base: num out of den.
type ratio struct{ num, den int64 }

// value is num/den, or 0 when there is no base to divide by.
func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return float64(r.num) / float64(r.den)
}

// completion is one open-loop request as the ramp judges it: when it was
// due and when its Handle.Wait returned, in nanoseconds. failed marks a
// request that errored or was refused; it misses every latency limit.
type completion struct {
	due, done int64
	failed    bool
}

// stepVerdict is the ramp's decision on one rate step.
type stepVerdict struct {
	pass         bool
	p99          int64 // nearest-rank p99 latency of the step's requests
	n            int   // requests due in the step
	inflightMid  int   // requests due and not done at the step's midpoint
	inflightEnd  int   // ... and at its end
	growing      bool
	servedPerSec float64 // served requests per second, from the step's start to its last completion (or its end, if later)
}

// judgeStep decides whether an open-loop step [start, end) sustained its
// rate: the p99 latency of the requests due in the step must be within
// limit (a failed request counts as over the limit), and the backlog must
// not be growing. The backlog grows when the in-flight count at the end of
// the step exceeds both its value at the midpoint and the count Little's
// law allows at the limit (rate × limit, at least one request); a queue
// that stays bounded passes even if it fluctuates.
func judgeStep(trace []completion, start, end int64, rate float64, limit int64) stepVerdict {
	var v stepVerdict
	mid := start + (end-start)/2
	lat := make([]int64, 0, len(trace))
	var served int
	lastDone := end
	for _, c := range trace {
		if c.due < start || c.due >= end {
			continue
		}
		v.n++
		l := c.done - c.due
		if c.failed {
			l = math.MaxInt64
		}
		lat = append(lat, l)
		if !c.failed {
			served++
			lastDone = max(lastDone, c.done)
		}
		if c.due <= mid && !c.failed && c.done > mid {
			v.inflightMid++
		}
		if !c.failed && c.done > end {
			v.inflightEnd++
		}
	}
	if v.n == 0 {
		return v
	}
	v.p99 = percentile(sortedCopy(lat), 0.99)
	allowed := int(math.Ceil(rate * float64(limit) / 1e9))
	if allowed < 1 {
		allowed = 1
	}
	v.growing = v.inflightEnd > v.inflightMid && v.inflightEnd > allowed
	v.servedPerSec = float64(served) / (float64(lastDone-start) / 1e9)
	v.pass = v.p99 <= limit && !v.growing
	return v
}
