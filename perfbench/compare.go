package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// fingerprint identifies the host a result was measured on. Absolute
// times from hosts with different fingerprints are not comparable.
type fingerprint struct {
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

func hostFingerprint() fingerprint {
	return fingerprint{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo; "unknown" where
// there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// mismatch lists the fields in which two fingerprints differ.
func (f fingerprint) mismatch(g fingerprint) []string {
	var d []string
	if f.NumCPU != g.NumCPU {
		d = append(d, fmt.Sprintf("num_cpu %d vs %d", f.NumCPU, g.NumCPU))
	}
	if f.GoMaxProcs != g.GoMaxProcs {
		d = append(d, fmt.Sprintf("gomaxprocs %d vs %d", f.GoMaxProcs, g.GoMaxProcs))
	}
	if f.CPUModel != g.CPUModel {
		d = append(d, fmt.Sprintf("cpu_model %q vs %q", f.CPUModel, g.CPUModel))
	}
	if f.GoVersion != g.GoVersion {
		d = append(d, fmt.Sprintf("go_version %s vs %s", f.GoVersion, g.GoVersion))
	}
	return d
}

// savedResult is what --out writes: the result line plus what it was
// measured on.
type savedResult struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	Traced      bool        `json:"traced"`
	Result      result      `json:"result"`
}

func writeSaved(path string, s savedResult) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("save result: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("save result: %w", err)
	}
	return nil
}

func readSaved(path string) (savedResult, error) {
	var s savedResult
	b, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("read result: %w", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("decode result %s: %w", path, err)
	}
	return s, nil
}

// Exit codes of compare.
const (
	compareOK      = 0
	compareUsage   = 2
	compareRefused = 3
)

// runCompare prints each metric of a base and a new saved result side by
// side with the relative change. It refuses — exit status 3 and a
// REFUSED line, no numbers — when the two were measured on different
// hosts, different workloads or in different modes, because their
// absolute values are then not comparable in either direction.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare BASE.json NEW.json")
		return compareUsage
	}
	base, err := readSaved(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return compareUsage
	}
	cur, err := readSaved(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return compareUsage
	}
	if why := incomparable(base, cur); why != "" {
		fmt.Fprintf(stdout, "REFUSED: %s; neither a pass nor a fail\n", why)
		return compareRefused
	}
	names := make([]string, 0, len(cur.Result.Metrics))
	for n := range cur.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := cur.Result.Metrics[n]
		b, ok := base.Result.Metrics[n]
		if !ok {
			fmt.Fprintf(stdout, "%-26s %14s -> %14.4f %s (new)\n", n, "-", c.Value, c.Unit)
			continue
		}
		change := "n/a"
		if b.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(c.Value-b.Value)/b.Value)
		}
		fmt.Fprintf(stdout, "%-26s %14.4f -> %14.4f %-5s %s\n", n, b.Value, c.Value, c.Unit, change)
	}
	return compareOK
}

// incomparable explains why two saved results cannot be compared, or
// returns "" when they can.
func incomparable(a, b savedResult) string {
	if d := a.Fingerprint.mismatch(b.Fingerprint); len(d) > 0 {
		return "host fingerprints differ (" + strings.Join(d, "; ") + ")"
	}
	if a.Workload != b.Workload {
		return fmt.Sprintf("workloads differ (%s vs %s)", a.Workload, b.Workload)
	}
	if a.Traced != b.Traced {
		return "one result is traced and the other is not"
	}
	return ""
}
