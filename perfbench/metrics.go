package main

import "fmt"

// setOverhead reports the traced part's slowdown against the untraced
// probe of the same work, on the p50 of the given times, as
// trace.overhead_frac.
func setOverhead(o *outcome, untraced, traced []int64, what string) {
	u, _ := windowQuantile(untraced, 0.5)
	t, _ := windowQuantile(traced, 0.5)
	v := 0.0
	if u > 0 {
		v = t/u - 1
	}
	o.set("trace.overhead_frac", v, "ratio", int64(len(traced)), "traced / untraced p50 "+what+" - 1")
}

// setLatencyNs reports latency samples, in the order they were taken,
// as prefix.p50_us and prefix.p90_us: each the median over consecutive
// windows of that window's nearest-rank quantile (see windowQuantile).
// When the workload names the latency (alias, such as serve.hi), the
// named p50 and p99 are printed too; p99 is printed, not gated, because
// its run-to-run spread on a shared 2-vCPU host exceeds any bound a
// gate could hold.
func setLatencyNs(o *outcome, prefix, alias string, lat []int64, note string) {
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}} {
		v, w := windowQuantile(lat, q.q)
		n := fmt.Sprintf("%s; median of %d windows", note, w)
		if w == 0 {
			n = fmt.Sprintf("%s; THIN TAIL: fewer than %d samples", note, minTailSamples(q.q))
		}
		if q.name != "p99" {
			o.set(prefix+"."+q.name+"_us", v/1e3, "us", int64(len(lat)), n)
		}
		if alias != "" && q.name != "p90" {
			o.named(alias+"."+q.name+"_us", v/1e3, "us", int64(len(lat)), n)
		}
	}
}

// medianNs is the median of durations in ns.
func medianNs(xs []int64) float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return median(f)
}
