package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// Bad sim invocations must be rejected before any simulation work, with
// typed errors naming the offending flag (main exits 2 on them).
func TestSimFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		flag string
	}{
		{"zero machines", []string{"-sim", "-machines", "0"}, "machines"},
		{"negative machines", []string{"-sim", "-machines", "-5"}, "machines"},
		{"zero duration", []string{"-sim", "-duration", "0"}, "duration"},
		{"negative duration", []string{"-sim", "-duration", "-1"}, "duration"},
		{"negative churn", []string{"-sim", "-churn", "-0.1"}, "churn"},
		{"negative arrival", []string{"-sim", "-arrival", "-10"}, "arrival"},
		{"zero target", []string{"-sim", "-target", "0"}, "target"},
		{"target above one", []string{"-sim", "-target", "1.5"}, "target"},
		{"unknown policy", []string{"-sim", "-policy", "greedy"}, "policy"},
		{"tail qos", []string{"-sim", "-qos", "tail"}, "qos"},
		{"negative shards", []string{"-sim", "-shards", "-1"}, "shards"},
		{"negative parallelism", []string{"-sim", "-parallelism", "-2"}, "parallelism"},
		{"replay negative parallelism", []string{"-replay", "x.trace", "-parallelism", "-1"}, "parallelism"},
		{"malformed slo classes", []string{"-sim", "-policy", "slo", "-slo-classes", "critical:bogus"}, "slo-classes"},
		{"empty slo class name", []string{"-sim", "-policy", "slo", "-slo-classes", ":20ms"}, "slo-classes"},
		{"duplicate slo class", []string{"-sim", "-policy", "slo", "-slo-classes", "a:20ms,a:40ms"}, "slo-classes"},
		{"slo percentile out of range", []string{"-sim", "-policy", "slo", "-slo-classes", "a:20ms:1.5"}, "slo-classes"},
		{"slo headroom one", []string{"-sim", "-policy", "slo", "-slo-headroom", "1"}, "slo-headroom"},
		{"negative slo headroom", []string{"-sim", "-policy", "slo", "-slo-headroom", "-0.1"}, "slo-headroom"},
		{"NaN slo headroom", []string{"-sim", "-policy", "slo", "-slo-headroom", "NaN"}, "slo-headroom"},
		{"zero slo mu", []string{"-sim", "-policy", "slo", "-slo-mu", "0"}, "slo-mu"},
		{"NaN slo mu", []string{"-sim", "-policy", "slo", "-slo-mu", "NaN"}, "slo-mu"},
		{"zero slo lambda", []string{"-sim", "-policy", "slo", "-slo-lambda", "0"}, "slo-lambda"},
		{"isol without policy", []string{"-sim", "-isol", "a:0.5:0.1"}, "isol"},
		{"malformed isol entry", []string{"-sim", "-policy", "isolation", "-isol", "a:0.5"}, "isol"},
		{"isol degscale rises", []string{"-sim", "-policy", "isolation", "-isol", "a:0.5:0.1,b:0.7:0.2"}, "isol"},
		{"isol degscale zero", []string{"-sim", "-policy", "isolation", "-isol", "a:0:0.1"}, "isol"},
		{"isolation with drift", []string{"-sim", "-policy", "isolation", "-drift-factor", "1.5"}, "drift-factor"},
		{"unknown alloc", []string{"-sim", "-alloc", "tetris"}, "alloc"},
		{"alloc under random", []string{"-sim", "-policy", "random", "-alloc", "spread"}, "alloc"},
		{"malformed machine mix", []string{"-sim", "-machine-mix", "snb"}, "machine-mix"},
		{"unknown machine gen", []string{"-sim", "-machine-mix", "alpha=1"}, "machine-mix"},
		{"duplicate machine gen", []string{"-sim", "-machine-mix", "snb=1,snb=2"}, "machine-mix"},
		{"zero mix weight", []string{"-sim", "-machine-mix", "snb=0"}, "machine-mix"},
		{"mix with closedloop", []string{"-sim", "-policy", "closedloop", "-machine-mix", "snb=1"}, "machine-mix"},
		{"mix with drift", []string{"-sim", "-machine-mix", "snb=1", "-drift-factor", "1.2"}, "machine-mix"},
		{"NaN duration", []string{"-sim", "-machines", "20", "-duration", "NaN"}, "duration"},
		{"infinite duration", []string{"-sim", "-machines", "20", "-duration", "Inf"}, "duration"},
		{"NaN arrival", []string{"-sim", "-machines", "20", "-arrival", "NaN"}, "arrival"},
		{"NaN target", []string{"-sim", "-machines", "20", "-target", "NaN"}, "target"},
		{"NaN churn", []string{"-sim", "-machines", "20", "-churn", "NaN"}, "churn"},
		// 1e9 time units of 600 jobs each would be 6e11 events: the run is
		// refused before any is generated.
		{"event cap", []string{"-sim", "-machines", "20", "-duration", "1e9"}, "duration"},
		{"infinite slo lambda", []string{"-sim", "-machines", "20", "-policy", "slo", "-slo-lambda", "Inf"}, "slo-lambda"},
		{"machine mix count overflow", []string{"-sim", "-machines", "20", "-machine-mix",
			"snb=4611686018427387904,ivb=4611686018427387904,power7=4611686018427387904,smt4=4611686018427387904"}, "machine-mix"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(context.Background(), tc.args, &out)
			if err == nil {
				t.Fatal("invalid invocation accepted")
			}
			var fe *FlagError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v is not a *FlagError", err)
			}
			if fe.Flag != tc.flag {
				t.Errorf("error names flag %q, want %q", fe.Flag, tc.flag)
			}
			if out.Len() != 0 {
				t.Errorf("rejected invocation reported a run:\n%s", out.String())
			}
		})
	}
}

func TestSimReplayMissingTrace(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-replay", filepath.Join(t.TempDir(), "nope.trace")}, &out)
	if err == nil {
		t.Fatal("missing trace accepted")
	}
	var fe *FlagError
	if errors.As(err, &fe) {
		t.Fatalf("missing file surfaced as flag error %v", err)
	}
}

// TestSimRecordReplay drives the full CLI loop: run with -trace-out,
// replay the trace at a different parallelism, and require the identical
// summary — the CLI-level face of the replay-determinism law.
func TestSimRecordReplay(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.trace")
	sum1 := filepath.Join(dir, "run.json")
	sum2 := filepath.Join(dir, "replay.json")

	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-sim", "-machines", "80", "-duration", "1", "-churn", "0.05", "-seed", "9",
		"-trace-out", trace, "-summary-json", sum1, "-parallelism", "1",
	}, &out)
	if err != nil {
		t.Fatalf("record run: %v", err)
	}
	for _, want := range []string{"trace recorded to", "discrete-event cluster sim", "utilisation:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q in:\n%s", want, out.String())
		}
	}

	out.Reset()
	err = run(context.Background(), []string{
		"-replay", trace, "-summary-json", sum2, "-parallelism", "8",
	}, &out)
	if err != nil {
		t.Fatalf("replay run: %v", err)
	}
	a, err := os.ReadFile(sum1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(sum2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("replay summary differs from recorded run:\n%s\nvs\n%s", a, b)
	}
}

// TestSimSummaryJSONSchema pins the CLI-emitted summary: strict decode
// into cluster.Summary (no unknown fields) and the schema version.
func TestSimSummaryJSONSchema(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-sim", "-machines", "40", "-duration", "0.5", "-seed", "3", "-summary-json", "-",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	i := strings.Index(out.String(), "{")
	if i < 0 {
		t.Fatalf("no JSON in output:\n%s", out.String())
	}
	dec := json.NewDecoder(strings.NewReader(out.String()[i:]))
	dec.DisallowUnknownFields()
	var s cluster.Summary
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("summary JSON does not decode strictly: %v", err)
	}
	if s.SchemaVersion != cluster.SummarySchemaVersion {
		t.Errorf("schema_version %d, want %d", s.SchemaVersion, cluster.SummarySchemaVersion)
	}
	if s.Machines.Start != 40 {
		t.Errorf("machines.start %d, want 40", s.Machines.Start)
	}
	if s.Events.Total == 0 || s.Events.Arrived != s.Events.Placed+s.Events.Rejected {
		t.Errorf("inconsistent event aggregates: %+v", s.Events)
	}
	if s.Utilization.Mean < s.Utilization.Baseline || s.Utilization.Peak > 1 {
		t.Errorf("implausible utilisation aggregates: %+v", s.Utilization)
	}
}

func TestSimPolicyFlag(t *testing.T) {
	for flagVal, want := range map[string]string{"oracle": "Oracle", "random": "Random"} {
		var out bytes.Buffer
		err := run(context.Background(), []string{
			"-sim", "-machines", "30", "-duration", "0.5", "-policy", flagVal,
		}, &out)
		if err != nil {
			t.Fatalf("-policy %s: %v", flagVal, err)
		}
		if !strings.Contains(out.String(), "policy "+want) {
			t.Errorf("-policy %s report does not mention %q:\n%s", flagVal, want, out.String())
		}
	}
}

// TestSimSLOPolicyCLI drives -policy=slo end to end: the report carries
// the greedy comparison, the summary JSON carries the baseline block, and
// the emitted bytes are identical at -parallelism 1 and 8.
func TestSimSLOPolicyCLI(t *testing.T) {
	dir := t.TempDir()
	sum1 := filepath.Join(dir, "p1.json")
	sum8 := filepath.Join(dir, "p8.json")
	base := []string{
		"-sim", "-machines", "60", "-duration", "1", "-seed", "11",
		"-policy", "slo", "-slo-headroom", "0.1",
	}
	var out bytes.Buffer
	if err := run(context.Background(), append(base, "-summary-json", sum1, "-parallelism", "1"), &out); err != nil {
		t.Fatalf("parallelism 1: %v", err)
	}
	for _, want := range []string{"policy SLO", "saturation:", "vs greedy (SMiTe):"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q in:\n%s", want, out.String())
		}
	}
	out.Reset()
	if err := run(context.Background(), append(base, "-summary-json", sum8, "-parallelism", "8"), &out); err != nil {
		t.Fatalf("parallelism 8: %v", err)
	}
	a, err := os.ReadFile(sum1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(sum8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("SLO summary differs across parallelism:\n%s\nvs\n%s", a, b)
	}

	dec := json.NewDecoder(bytes.NewReader(a))
	dec.DisallowUnknownFields()
	var s cluster.Summary
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("summary JSON does not decode strictly: %v", err)
	}
	if s.Policy != "SLO" {
		t.Errorf("summary policy %q, want SLO", s.Policy)
	}
	if s.Baseline == nil {
		t.Fatal("SLO summary carries no greedy baseline")
	}
	if s.Baseline.Policy != "SMiTe" {
		t.Errorf("baseline policy %q, want SMiTe", s.Baseline.Policy)
	}
	if s.Baseline.Placed == 0 {
		t.Error("baseline run placed nothing")
	}
	if s.Events.Placed < s.Baseline.Placed {
		t.Errorf("SLO placed %d, fewer than greedy %d", s.Events.Placed, s.Baseline.Placed)
	}
	if s.Saturation.Signal == "" {
		t.Error("summary carries no saturation signal")
	}
}

// TestSimIsolationCLI drives -policy=isolation over a heterogeneous
// machine mix with a pluggable allocation policy end to end: the report
// carries the isolation activity line and the no-enforcement comparison,
// the summary JSON carries the always-present isolation block with the
// ladder enabled, and the emitted bytes are identical at -parallelism 1
// and 8.
func TestSimIsolationCLI(t *testing.T) {
	dir := t.TempDir()
	sum1 := filepath.Join(dir, "p1.json")
	sum8 := filepath.Join(dir, "p8.json")
	base := []string{
		"-sim", "-machines", "60", "-duration", "1", "-seed", "11",
		"-policy", "isolation", "-machine-mix", "snb=3,ivb=2", "-alloc", "spread",
	}
	var out bytes.Buffer
	if err := run(context.Background(), append(base, "-summary-json", sum1, "-parallelism", "1"), &out); err != nil {
		t.Fatalf("parallelism 1: %v", err)
	}
	for _, want := range []string{"policy Isolation", "isolation:", "vs no-enforcement gate (SLO):"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q in:\n%s", want, out.String())
		}
	}
	out.Reset()
	if err := run(context.Background(), append(base, "-summary-json", sum8, "-parallelism", "8"), &out); err != nil {
		t.Fatalf("parallelism 8: %v", err)
	}
	a, err := os.ReadFile(sum1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(sum8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("isolation summary differs across parallelism:\n%s\nvs\n%s", a, b)
	}

	dec := json.NewDecoder(bytes.NewReader(a))
	dec.DisallowUnknownFields()
	var s cluster.Summary
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("summary JSON does not decode strictly: %v", err)
	}
	if s.Policy != "Isolation" {
		t.Errorf("summary policy %q, want Isolation", s.Policy)
	}
	if !s.Isolation.Enabled || s.Isolation.Levels != 4 {
		t.Errorf("isolation block %+v, want enabled with the 4-level stock ladder", s.Isolation)
	}
	if s.Baseline == nil || s.Baseline.Policy != "SLO" {
		t.Fatalf("isolation summary baseline %+v, want the SLO gate", s.Baseline)
	}
	// A custom two-level ladder surfaces in the summary.
	out.Reset()
	if err := run(context.Background(), []string{
		"-sim", "-machines", "40", "-duration", "0.5", "-seed", "11",
		"-policy", "isolation", "-isol", "half:0.7:0.05", "-summary-json", "-",
	}, &out); err != nil {
		t.Fatalf("custom ladder: %v", err)
	}
	i := strings.Index(out.String(), "{")
	if i < 0 {
		t.Fatalf("no JSON in output:\n%s", out.String())
	}
	var cs cluster.Summary
	if err := json.Unmarshal([]byte(out.String()[i:]), &cs); err != nil {
		t.Fatal(err)
	}
	if cs.Isolation.Levels != 2 {
		t.Errorf("custom ladder levels %d, want 2", cs.Isolation.Levels)
	}
}

// TestSimClosedLoopCLI drives -policy=closedloop with injected drift end
// to end: the report carries the closed-loop activity line and the
// static-gate comparison, the summary JSON carries both blocks with the
// loop strictly beating the gate on violations, and the emitted bytes are
// identical at -parallelism 1 and 8.
func TestSimClosedLoopCLI(t *testing.T) {
	dir := t.TempDir()
	sum1 := filepath.Join(dir, "p1.json")
	sum8 := filepath.Join(dir, "p8.json")
	base := []string{
		"-sim", "-machines", "60", "-duration", "1.5", "-seed", "11",
		"-policy", "closedloop", "-drift-at", "0.5", "-drift-factor", "3",
	}
	var out bytes.Buffer
	if err := run(context.Background(), append(base, "-summary-json", sum1, "-parallelism", "1"), &out); err != nil {
		t.Fatalf("parallelism 1: %v", err)
	}
	for _, want := range []string{"policy ClosedLoop", "closed loop:", "vs static gate (SLO):"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q in:\n%s", want, out.String())
		}
	}
	out.Reset()
	if err := run(context.Background(), append(base, "-summary-json", sum8, "-parallelism", "8"), &out); err != nil {
		t.Fatalf("parallelism 8: %v", err)
	}
	a, err := os.ReadFile(sum1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(sum8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("closed-loop summary differs across parallelism:\n%s\nvs\n%s", a, b)
	}

	dec := json.NewDecoder(bytes.NewReader(a))
	dec.DisallowUnknownFields()
	var s cluster.Summary
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("summary JSON does not decode strictly: %v", err)
	}
	if s.Policy != "ClosedLoop" {
		t.Errorf("summary policy %q, want ClosedLoop", s.Policy)
	}
	if s.ClosedLoop == nil {
		t.Fatal("summary carries no closed-loop block")
	}
	if s.ClosedLoop.Detections == 0 || s.ClosedLoop.Recharacterized == 0 {
		t.Errorf("closed loop never fired under 3× drift: %+v", s.ClosedLoop)
	}
	if s.Baseline == nil {
		t.Fatal("closed-loop summary carries no static-gate baseline")
	}
	if s.Baseline.Policy != "SLO" {
		t.Errorf("baseline policy %q, want SLO", s.Baseline.Policy)
	}
	if s.SLO.Violations >= s.Baseline.Violations {
		t.Errorf("closed loop %d violations, static gate %d — loop should win under drift",
			s.SLO.Violations, s.Baseline.Violations)
	}
}

// TestSimWarehouseScaleSLO is the acceptance-scale study: 10k machines
// under -policy=slo, reporting SLO-violation rate and utilization against
// the greedy colocator, bit-identical at -parallelism 1 and 8.
func TestSimWarehouseScaleSLO(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-machine study skipped in -short")
	}
	machines := "10000"
	arrival := "150000"
	if raceEnabled {
		machines = "2000"
		arrival = "30000"
	}
	dir := t.TempDir()
	sum1 := filepath.Join(dir, "p1.json")
	sum8 := filepath.Join(dir, "p8.json")
	base := []string{
		"-sim", "-machines", machines, "-duration", "0.5", "-arrival", arrival,
		"-seed", "17", "-policy", "slo",
	}
	var out bytes.Buffer
	if err := run(context.Background(), append(base, "-summary-json", sum1, "-parallelism", "1"), &out); err != nil {
		t.Fatalf("parallelism 1: %v", err)
	}
	out.Reset()
	if err := run(context.Background(), append(base, "-summary-json", sum8, "-parallelism", "8"), &out); err != nil {
		t.Fatalf("parallelism 8: %v", err)
	}
	a, _ := os.ReadFile(sum1)
	b, _ := os.ReadFile(sum8)
	if !bytes.Equal(a, b) {
		t.Fatal("10k-machine SLO summary differs across parallelism")
	}
	var s cluster.Summary
	if err := json.Unmarshal(a, &s); err != nil {
		t.Fatal(err)
	}
	if s.Baseline == nil {
		t.Fatal("study summary carries no greedy baseline")
	}
	if s.Events.Placed == 0 || s.Baseline.Placed == 0 {
		t.Fatalf("degenerate study: %+v", s.Events)
	}
}
