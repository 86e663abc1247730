package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
BenchmarkEngineHotLoop/mem-bound-smt-16         	       1	 2500000 ns/op	     120 B/op	       3 allocs/op
BenchmarkEngineHotLoop/compute-bound-smt-16     	       1	 4000000 ns/op	       0 B/op	       0 allocs/op
BenchmarkFig10SPECPairsIvyBridge-16             	       1	 90000000 ns/op
PASS
ok  	repro	1.234s
`

func TestParse(t *testing.T) {
	sum, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Result{
		"EngineHotLoop/mem-bound-smt":     {NsPerOp: 2.5e6, AllocsPerOp: 3},
		"EngineHotLoop/compute-bound-smt": {NsPerOp: 4e6, AllocsPerOp: 0},
		"Fig10SPECPairsIvyBridge":         {NsPerOp: 9e7, AllocsPerOp: 0},
	}
	if len(sum.Benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %+v", len(sum.Benchmarks), len(want), sum)
	}
	for name, w := range want {
		if got := sum.Benchmarks[name]; got != w {
			t.Errorf("%s = %+v, want %+v", name, got, w)
		}
	}
}

// With -count N every benchmark repeats; the fastest run must win.
func TestParseKeepsFastestOfRepeats(t *testing.T) {
	input := `BenchmarkX-16	1	300 ns/op	16 B/op	2 allocs/op
BenchmarkX-16	1	100 ns/op	8 B/op	1 allocs/op
BenchmarkX-16	1	200 ns/op	16 B/op	2 allocs/op
`
	sum, err := parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	want := Result{NsPerOp: 100, AllocsPerOp: 1}
	if got := sum.Benchmarks["X"]; got != want {
		t.Errorf("X = %+v, want %+v (min of repeats)", got, want)
	}
}

func summaryOf(pairs map[string]float64) Summary {
	s := Summary{Benchmarks: make(map[string]Result)}
	for name, ns := range pairs {
		s.Benchmarks[name] = Result{NsPerOp: ns}
	}
	return s
}

func TestCompare(t *testing.T) {
	base := summaryOf(map[string]float64{"A": 100, "B": 100})
	var out bytes.Buffer

	if err := compare(&out, base, summaryOf(map[string]float64{"A": 110, "B": 124, "C": 5}), 25); err != nil {
		t.Errorf("within-threshold run failed: %v", err)
	}
	if !strings.Contains(out.String(), "new benchmark") {
		t.Error("new benchmark not reported")
	}
	if err := compare(&out, base, summaryOf(map[string]float64{"A": 126, "B": 100}), 25); err == nil {
		t.Error("26% regression passed a 25% gate")
	}
	if err := compare(&out, base, summaryOf(map[string]float64{"A": 100}), 25); err == nil {
		t.Error("missing benchmark passed the gate")
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH_baseline.json")
	ci := filepath.Join(dir, "BENCH_ci.json")

	// First: record the baseline.
	var out bytes.Buffer
	err := run([]string{"-out", baseline, "-write-baseline"}, strings.NewReader(sampleOutput), &out)
	if err != nil {
		t.Fatal(err)
	}
	var sum Summary
	buf, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.Benchmarks) != 3 {
		t.Fatalf("baseline has %d benchmarks, want 3", len(sum.Benchmarks))
	}

	// Identical results must pass the gate and emit the CI artifact.
	out.Reset()
	err = run([]string{"-out", ci, "-baseline", baseline}, strings.NewReader(sampleOutput), &out)
	if err != nil {
		t.Fatalf("identical results failed the gate: %v", err)
	}
	if _, err := os.Stat(ci); err != nil {
		t.Fatalf("CI artifact not written: %v", err)
	}
	// The raw benchmark log must pass through for CI readability.
	if !strings.Contains(out.String(), "BenchmarkEngineHotLoop/mem-bound-smt") {
		t.Error("raw benchmark output not echoed")
	}

	// A big regression must fail.
	regressed := strings.Replace(sampleOutput, "2500000 ns/op", "9900000 ns/op", 1)
	err = run([]string{"-baseline", baseline}, strings.NewReader(regressed), &out)
	if err == nil || !strings.Contains(err.Error(), "REGRESSED") && !strings.Contains(err.Error(), "failed the gate") {
		t.Fatalf("regression not caught: %v", err)
	}
}

func TestRunFlagValidation(t *testing.T) {
	var out bytes.Buffer
	cases := [][]string{
		{"-bogus"},
		{}, // nothing to do
		{"-out", "x", "-write-baseline", "-baseline", "y"}, // mutually exclusive
		{"-baseline", "does-not-exist.json"},
		{"positional"},
	}
	for _, args := range cases {
		if err := run(args, strings.NewReader(sampleOutput), &out); err == nil {
			t.Errorf("args %q accepted", args)
		}
	}
}

// benchPatterns returns every -bench '…' pattern in the file at path.
func benchPatterns(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, m := range regexp.MustCompile(`-bench '([^']*)'`).FindAllStringSubmatch(string(data), -1) {
		out = append(out, m[1])
	}
	return out
}

// The README's local bench-gate commands must select what the CI job
// does: benchci -baseline fails on any baseline entry missing from its
// input, and -write-baseline would cut the baseline down to the subset.
func TestReadmeBenchRegexMatchesCI(t *testing.T) {
	root := filepath.Join("..", "..")
	ci := benchPatterns(t, filepath.Join(root, ".github", "workflows", "ci.yml"))
	if len(ci) != 1 {
		t.Fatalf("ci.yml has %d -bench patterns, want 1", len(ci))
	}
	readme := benchPatterns(t, filepath.Join(root, "README.md"))
	if len(readme) == 0 {
		t.Fatal("README.md has no -bench pattern")
	}
	for i, p := range readme {
		if p != ci[0] {
			t.Errorf("README -bench pattern %d is %q, CI runs %q", i, p, ci[0])
		}
	}
}
