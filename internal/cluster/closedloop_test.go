package cluster

import (
	"context"
	"reflect"
	"testing"
)

// driftSimConfig is synthSimConfig with SLO parameters and a mid-run
// drift: at a third of the horizon the measured degradation surface
// triples for every batch application, while the prediction table (and
// the static SLO gate built from it) stays pre-drift.
func driftSimConfig(tb testing.TB, machines int, horizon float64, seed uint64) SimConfig {
	tb.Helper()
	cfg := synthSimConfig(tb, machines, horizon, seed)
	cfg.SLO = sloSimParams()
	cfg.Drift = &DriftSpec{At: horizon / 3, Factor: 3}
	return cfg
}

// TestSimClosedLoopUnderDrift runs the closed loop end to end: the
// detector must confirm the injected drift, re-characterize, and the run
// must beat the static SLO gate on the same event streams; migrate log
// entries must be well formed; and the whole thing must be bit-identical
// across worker counts.
func TestSimClosedLoopUnderDrift(t *testing.T) {
	cfg := driftSimConfig(t, 80, 1.8, 23)
	cfg.Policy = PolicyClosedLoop
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer saveFailureTrace(t, cfg, events)

	res, err := RunSim(context.Background(), cfg, events, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detections == 0 {
		t.Error("injected drift never confirmed")
	}
	if res.Recharacterized == 0 {
		t.Error("confirmed drift never re-characterized")
	}
	if res.Detections != res.Recharacterized {
		t.Errorf("detections %d != re-characterizations %d (each confirmation refreshes its pair)",
			res.Detections, res.Recharacterized)
	}

	// Migrate entries: typed, From ≠ Machine, receiving machine holds ≥1
	// instance; and they never appear before the drift lands (the static
	// gate is consistent with the pre-drift world, so nothing confirms).
	migrations := 0
	for _, p := range res.Log() {
		switch p.Kind {
		case 0:
			if p.From != 0 {
				t.Fatalf("plain decision with From set: %+v", p)
			}
		case PlacementMigrate:
			migrations++
			if p.From == p.Machine || p.Machine < 0 || p.N < 1 || p.Batch < 0 {
				t.Fatalf("malformed migrate entry: %+v", p)
			}
		default:
			t.Fatalf("unknown placement kind %q", p.Kind)
		}
	}
	if migrations != res.Migrations {
		t.Errorf("log has %d migrate entries, result counts %d", migrations, res.Migrations)
	}
	if res.Migrations+res.MigrationsFailed == 0 {
		t.Error("confirmed drift never attempted a migration")
	}

	sum := res.Summary()
	if sum.ClosedLoop == nil {
		t.Fatal("closed-loop run produced no ClosedLoop summary")
	}
	if sum.ClosedLoop.Detections != res.Detections || sum.ClosedLoop.Migrations != res.Migrations {
		t.Errorf("summary %+v does not echo result counters", sum.ClosedLoop)
	}

	// The success metric: fewer actual SLO violations than the static
	// gate on identical streams. (The 20-seed law lives in internal/simtest.)
	static := cfg
	static.Policy = PolicySLO
	sres, err := RunSim(context.Background(), static, events, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations >= sres.Violations {
		t.Errorf("closed loop %d violations, static SLO gate %d — loop should win under drift",
			res.Violations, sres.Violations)
	}

	// Replay determinism across worker counts, migrations included.
	for _, workers := range []int{1, 8} {
		again, err := RunSim(context.Background(), cfg, events, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, again) {
			t.Fatalf("closed-loop run differs at %d workers", workers)
		}
	}
}

// TestSimClosedLoopStationary pins the quiet path: with no injected
// drift, the synthetic world's measurement noise sits under the detector
// allowance, so the loop behaves exactly like the static SLO gate.
func TestSimClosedLoopStationary(t *testing.T) {
	cfg := synthSimConfig(t, 60, 1.2, 31)
	cfg.Policy = PolicyClosedLoop
	cfg.SLO = sloSimParams()
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSim(context.Background(), cfg, events, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detections != 0 || res.Migrations != 0 {
		t.Errorf("stationary world triggered the loop: %d detections, %d migrations",
			res.Detections, res.Migrations)
	}

	static := cfg
	static.Policy = PolicySLO
	sres, err := RunSim(context.Background(), static, events, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed != sres.Placed || res.Violations != sres.Violations || res.Rejected != sres.Rejected {
		t.Errorf("quiet closed loop (placed %d, violations %d) should match static gate (placed %d, violations %d)",
			res.Placed, res.Violations, sres.Placed, sres.Violations)
	}
}

// TestSimDriftAccountingAllPolicies: the post-drift measured surface
// drives violation accounting for every policy, so the static gate run
// under drift records more violations than the same run without it.
func TestSimDriftAccountingAllPolicies(t *testing.T) {
	cfg := driftSimConfig(t, 60, 1.5, 7)
	cfg.Policy = PolicySLO
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drifted, err := RunSim(context.Background(), cfg, events, 4)
	if err != nil {
		t.Fatal(err)
	}
	calm := cfg
	calm.Drift = nil
	base, err := RunSim(context.Background(), calm, events, 4)
	if err != nil {
		t.Fatal(err)
	}
	if drifted.Placed != base.Placed {
		t.Fatalf("drift must not change static-gate decisions: placed %d vs %d", drifted.Placed, base.Placed)
	}
	if drifted.Violations <= base.Violations {
		t.Errorf("3× drift should add violations: %d with drift, %d without", drifted.Violations, base.Violations)
	}
}

// TestSimClosedLoopValidation rejects configurations the loop cannot run.
func TestSimClosedLoopValidation(t *testing.T) {
	cfg := synthSimConfig(t, 20, 0.5, 1)
	cfg.Policy = PolicyClosedLoop
	if err := cfg.Validate(); err == nil {
		t.Error("PolicyClosedLoop without SLO parameters accepted")
	}
	cfg.SLO = sloSimParams()
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid closed-loop config rejected: %v", err)
	}
	for _, spec := range []*DriftSpec{
		{At: -1, Factor: 2},
		{At: 0.1, Factor: 0},
		{At: 0.1, Factor: 2, Batches: []int{99}},
		{At: 0.1, Factor: 2, Batches: []int{-1}},
	} {
		cfg.Drift = spec
		if err := cfg.Validate(); err == nil {
			t.Errorf("invalid drift spec %+v accepted", spec)
		}
	}
	cfg.Drift = &DriftSpec{At: 0.1, Factor: 2, Batches: []int{0, 2}}
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid drift spec rejected: %v", err)
	}
}
