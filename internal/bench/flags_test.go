package bench

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// writeReportFile encodes a synthetic report for the guard tests.
func writeReportFile(path string, rep JSONReport) error {
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func TestSplitNamesRejectsDuplicates(t *testing.T) {
	names, err := SplitNames("-guard", " a , b , c ")
	if err != nil || !reflect.DeepEqual(names, []string{"a", "b", "c"}) {
		t.Fatalf("got %v, %v", names, err)
	}
	if _, err := SplitNames("-guard", "a,b,a"); err == nil || !strings.Contains(err.Error(), "duplicate -guard") {
		t.Fatalf("duplicate not rejected: %v", err)
	}
	if _, err := SplitNames("-only", "x,x"); err == nil || !strings.Contains(err.Error(), "-only") {
		t.Fatalf("flag name missing from error: %v", err)
	}
	if names, err := SplitNames("-guard", ""); err != nil || names != nil {
		t.Fatalf("empty spec: got %v, %v", names, err)
	}
	if names, err := SplitNames("-guard", "  "); err != nil || names != nil {
		t.Fatalf("blank spec: got %v, %v", names, err)
	}
}

func TestSplitNamesRejectsEmptySegments(t *testing.T) {
	// A stray comma must be an error, not a silently shorter list: the
	// user asked to guard something and got nothing.
	for _, bad := range []string{"a,,b", "a,b,", ",a", " a , b ,, c ", ","} {
		if names, err := SplitNames("-guard", bad); err == nil {
			t.Fatalf("spec %q accepted as %v", bad, names)
		} else if !strings.Contains(err.Error(), "-guard") || !strings.Contains(err.Error(), "empty") {
			t.Fatalf("spec %q: unhelpful error %v", bad, err)
		}
	}
}

func TestParseProcs(t *testing.T) {
	// auto on an 8-CPU host: doubling sequence, virtual Ps only above it.
	real, virt, err := ParseProcs("auto", 8, true)
	if err != nil || !reflect.DeepEqual(real, []int{1, 2, 4, 8}) || !reflect.DeepEqual(virt, []int{16, 32, 64}) {
		t.Fatalf("auto/8/virtual: %v %v %v", real, virt, err)
	}
	// auto on a 6-CPU host appends NumCPU after the doubling sequence.
	real, virt, err = ParseProcs("auto", 6, false)
	if err != nil || !reflect.DeepEqual(real, []int{1, 2, 4, 6}) || virt != nil {
		t.Fatalf("auto/6: %v %v %v", real, virt, err)
	}
	// Explicit list split across the NumCPU boundary with -virtual.
	real, virt, err = ParseProcs("16,2,1,8", 2, true)
	if err != nil || !reflect.DeepEqual(real, []int{1, 2}) || !reflect.DeepEqual(virt, []int{8, 16}) {
		t.Fatalf("explicit/virtual: %v %v %v", real, virt, err)
	}
	// Empty spec means no sweep at all.
	if real, virt, err = ParseProcs("", 4, false); err != nil || real != nil || virt != nil {
		t.Fatalf("empty: %v %v %v", real, virt, err)
	}
}

func TestParseProcsRejects(t *testing.T) {
	// A value above NumCPU without -virtual must fail, naming the valid
	// range and the -virtual escape hatch.
	if _, _, err := ParseProcs("1,8", 2, false); err == nil ||
		!strings.Contains(err.Error(), "NumCPU=2") || !strings.Contains(err.Error(), "-virtual") {
		t.Fatalf("over-NumCPU not rejected usefully: %v", err)
	}
	if _, _, err := ParseProcs("1,1", 4, false); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate not rejected: %v", err)
	}
	for _, bad := range []string{"0", "-1", "two", "1,x"} {
		if _, _, err := ParseProcs(bad, 4, false); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
	// Stray commas are rejected like SplitNames rejects them, not dropped.
	for _, bad := range []string{"1,,2", "1,2,", ",1"} {
		if _, _, err := ParseProcs(bad, 4, false); err == nil || !strings.Contains(err.Error(), "empty -procs") {
			t.Fatalf("spec %q not rejected for empty segment: %v", bad, err)
		}
	}
	// Even -virtual has a ceiling.
	if _, _, err := ParseProcs("128", 2, true); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("over-cap not rejected: %v", err)
	}
}

// TestSpeedupCurvesSmoke runs the sweep at the smallest real list and one
// virtual P, checking curve shape rather than numbers.
func TestSpeedupCurvesSmoke(t *testing.T) {
	curves := SpeedupCurves([]int{1}, []int{8})
	if len(curves) != 2 {
		t.Fatalf("want 2 curves, got %d", len(curves))
	}
	for _, c := range curves {
		if c.Workload == "" || c.WorkNs <= 0 || c.SpanNs <= 0 {
			t.Fatalf("curve missing profile: %+v", c)
		}
		if len(c.Points) != 2 {
			t.Fatalf("%s: want 2 points, got %+v", c.Workload, c.Points)
		}
		p1, pv := c.Points[0], c.Points[1]
		if p1.Procs != 1 || p1.Virtual || p1.NsPerOp <= 0 || p1.Speedup != 1 {
			t.Fatalf("%s: bad real point %+v", c.Workload, p1)
		}
		if pv.Procs != 8 || !pv.Virtual || pv.NsPerOp != 0 || pv.Speedup <= 0 {
			t.Fatalf("%s: bad virtual point %+v", c.Workload, pv)
		}
	}
}

// TestCheckSpeedupRegression exercises the guard's compare and skip paths
// against synthetic reports.
func TestCheckSpeedupRegression(t *testing.T) {
	write := func(t *testing.T, name string, rep JSONReport) string {
		t.Helper()
		path := t.TempDir() + "/" + name
		if err := writeReportFile(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	curve := func(speedup float64) JSONReport {
		return JSONReport{Curves: []JSONCurve{{
			Workload: "LZStream",
			Points: []JSONCurvePoint{
				{Procs: 1, Speedup: 1},
				{Procs: 2, Speedup: speedup},
				{Procs: 8, Virtual: true, Speedup: 4},
			},
		}}}
	}
	base := write(t, "base.json", curve(1.8))
	if err := CheckSpeedupRegression(write(t, "ok.json", curve(1.7)), base, "LZStream", 15); err != nil {
		t.Fatalf("within-bound drop failed: %v", err)
	}
	if err := CheckSpeedupRegression(write(t, "bad.json", curve(1.2)), base, "LZStream", 15); err == nil {
		t.Fatal("33%% drop passed the 15%% guard")
	}
	// Baseline without curves (predates the harness): skip, not fail.
	old := write(t, "old.json", JSONReport{})
	if err := CheckSpeedupRegression(write(t, "f.json", curve(1.8)), old, "LZStream", 15); err != nil {
		t.Fatalf("curveless baseline should skip: %v", err)
	}
	// 1-CPU shape: no real P>1 point on either side: skip, not fail.
	oneCPU := JSONReport{Curves: []JSONCurve{{
		Workload: "LZStream",
		Points:   []JSONCurvePoint{{Procs: 1, Speedup: 1}, {Procs: 8, Virtual: true, Speedup: 4}},
	}}}
	if err := CheckSpeedupRegression(write(t, "f1.json", oneCPU), write(t, "b1.json", oneCPU), "LZStream", 15); err != nil {
		t.Fatalf("1-CPU shape should skip: %v", err)
	}
	// Baseline-only gap: a multi-core run against a baseline recorded on a
	// 1-CPU host skips too, but must blame the baseline, not this host.
	if err := CheckSpeedupRegression(write(t, "f3.json", curve(1.8)), write(t, "b3.json", oneCPU), "LZStream", 15); err != nil {
		t.Fatalf("baseline without a real P>1 point should skip: %v", err)
	}
	msg := speedupSkipReason(true, false, "b3.json", 2)
	if !strings.Contains(msg, "baseline b3.json") || !strings.Contains(msg, "regenerate the baseline curves on a multi-core host") {
		t.Errorf("baseline-only skip reason %q does not name the baseline and the fix", msg)
	}
	if strings.Contains(msg, "1-CPU host") || strings.Contains(msg, "fresh") {
		t.Errorf("baseline-only skip reason %q blames the fresh report or the host", msg)
	}
	if msg := speedupSkipReason(false, true, "b.json", 1); !strings.Contains(msg, "1-CPU host") || strings.Contains(msg, "baseline") {
		t.Errorf("fresh-only skip reason on a 1-CPU host = %q", msg)
	}
	if msg := speedupSkipReason(false, true, "b.json", 2); strings.Contains(msg, "1-CPU host") {
		t.Errorf("fresh-only skip reason on a 2-CPU host blames a 1-CPU host: %q", msg)
	}
	// Unknown workload in the fresh report is a harness bug: fail.
	if err := CheckSpeedupRegression(write(t, "f2.json", JSONReport{Curves: []JSONCurve{{Workload: "Other"}}}),
		base, "LZStream", 15); err == nil {
		t.Fatal("missing fresh curve passed")
	}
}
