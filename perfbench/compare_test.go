package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func saved(fp fingerprint, latency float64) savedResult {
	return savedResult{
		Fingerprint: fp,
		Workload:    "serve-open",
		Result: result{Correct: true, Attempted: 1, Metrics: map[string]resultValue{
			"hi.p50_us": {Value: latency, Unit: "us"},
		}},
	}
}

func compareFiles(t *testing.T, a, b savedResult) (int, string) {
	t.Helper()
	dir := t.TempDir()
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeSaved(pa, a); err != nil {
		t.Fatal(err)
	}
	if err := writeSaved(pb, b); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := runCompare([]string{pa, pb}, &out, &errOut)
	return code, out.String() + errOut.String()
}

func TestCompareSameHost(t *testing.T) {
	fp := fingerprint{NumCPU: 2, GoMaxProcs: 2, CPUModel: "cpu", GoVersion: "go1.24.0"}
	code, out := compareFiles(t, saved(fp, 100), saved(fp, 110))
	if code != compareOK || !strings.Contains(out, "+10.0%") {
		t.Fatalf("same host: exit %d, output %q", code, out)
	}
}

func TestCompareRefusesMismatchedFingerprints(t *testing.T) {
	base := fingerprint{NumCPU: 2, GoMaxProcs: 2, CPUModel: "cpu", GoVersion: "go1.24.0"}
	for _, c := range []struct {
		field string
		fp    fingerprint
	}{
		{"num_cpu", fingerprint{NumCPU: 1, GoMaxProcs: 2, CPUModel: "cpu", GoVersion: "go1.24.0"}},
		{"gomaxprocs", fingerprint{NumCPU: 2, GoMaxProcs: 1, CPUModel: "cpu", GoVersion: "go1.24.0"}},
		{"cpu_model", fingerprint{NumCPU: 2, GoMaxProcs: 2, CPUModel: "other", GoVersion: "go1.24.0"}},
		{"go_version", fingerprint{NumCPU: 2, GoMaxProcs: 2, CPUModel: "cpu", GoVersion: "go1.25.0"}},
	} {
		// Identical numbers must still be refused: a mismatch is neither a
		// pass nor a fail.
		code, out := compareFiles(t, saved(base, 100), saved(c.fp, 100))
		if code != compareRefused || !strings.Contains(out, "REFUSED") || !strings.Contains(out, c.field) {
			t.Errorf("%s mismatch: exit %d, output %q", c.field, code, out)
		}
		if strings.Contains(out, "hi.p50_us") {
			t.Errorf("%s mismatch: refused comparison still printed numbers: %q", c.field, out)
		}
	}
}

func TestCompareRefusesOtherWorkloadOrMode(t *testing.T) {
	fp := fingerprint{NumCPU: 2, GoMaxProcs: 2, CPUModel: "cpu", GoVersion: "go1.24.0"}
	other := saved(fp, 100)
	other.Workload = "fine-sps"
	if code, _ := compareFiles(t, saved(fp, 100), other); code != compareRefused {
		t.Errorf("different workloads: exit %d", code)
	}
	traced := saved(fp, 100)
	traced.Traced = true
	if code, _ := compareFiles(t, saved(fp, 100), traced); code != compareRefused {
		t.Errorf("traced vs untraced: exit %d", code)
	}
}
