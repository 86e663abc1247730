package check_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/profile"
	"repro/internal/rulers"
	"repro/internal/sim/check"
	"repro/internal/sim/engine"
	"repro/internal/sim/isa"
	"repro/internal/workload"
)

func twoCoreIVB() isa.Config {
	cfg := isa.IvyBridge()
	cfg.Cores = 2
	return cfg
}

// runWorkload assigns streams and runs warmup + a measured window with the
// checker attached, mimicking a profile run.
func runWorkload(t *testing.T, cfg isa.Config, assign func(*engine.Chip)) (*engine.Chip, *check.Checker) {
	t.Helper()
	chip := engine.MustNew(cfg)
	k := check.Attach(chip, 512)
	assign(chip)
	chip.Prewarm(40_000)
	chip.Run(8_000)
	chip.ResetCounters()
	chip.Run(20_000)
	return chip, k
}

// TestCleanEngineHasNoViolations runs representative workload mixtures —
// solo, SMT co-location with a cache Ruler, and a bandwidth-bound pair —
// and requires the seed engine to satisfy every invariant.
func TestCleanEngineHasNoViolations(t *testing.T) {
	cfg := twoCoreIVB()
	mcf, err := workload.ByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	lbm, err := workload.ByName("470.lbm")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		assign func(chip *engine.Chip)
	}{
		{"solo", func(chip *engine.Chip) {
			chip.Assign(0, 0, workload.NewGen(mcf, 7))
		}},
		{"smt-vs-ruler", func(chip *engine.Chip) {
			chip.Assign(0, 0, workload.NewGen(mcf, 7))
			chip.Assign(0, 1, rulers.L2(uint64(cfg.L2.SizeBytes)).NewStream(11))
		}},
		{"bandwidth-pair", func(chip *engine.Chip) {
			chip.Assign(0, 0, workload.NewGen(lbm, 3))
			chip.Assign(0, 1, rulers.MemBW(uint64(cfg.L3.SizeBytes)).NewStream(5))
			chip.Assign(1, 0, workload.NewGen(lbm, 9))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chip, k := runWorkload(t, cfg, tc.assign)
			if err := chip.CheckErr(); err != nil {
				t.Errorf("invariant violation: %v", err)
			}
			for _, v := range k.Violations {
				t.Errorf("violation: %v", v)
			}
			if k.Checks == 0 {
				t.Fatal("checker never ran")
			}
		})
	}
}

// TestCheckerCatchesInjectedDrift corrupts the retired-instruction counter
// mid-run — the silent-drift failure mode the verification layer exists to
// catch — and requires a structured uop-conservation violation naming the
// counter, core and context.
func TestCheckerCatchesInjectedDrift(t *testing.T) {
	cfg := twoCoreIVB()
	mcf, err := workload.ByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	chip := engine.MustNew(cfg)
	check.Attach(chip, 256)
	chip.Assign(0, 0, workload.NewGen(mcf, 7))
	chip.Run(2_000)
	if err := chip.CheckErr(); err != nil {
		t.Fatalf("violation before corruption: %v", err)
	}
	chip.CorruptCounterForTest(0, 0, +50)
	chip.Run(2_000)
	err = chip.CheckErr()
	if err == nil {
		t.Fatal("checker missed injected counter drift")
	}
	var v *check.Violation
	if !errors.As(err, &v) {
		t.Fatalf("violation is not structured: %T %v", err, err)
	}
	if v.Invariant != "uop-conservation" || v.Counter != "Instructions" {
		t.Errorf("wrong attribution: invariant %q counter %q", v.Invariant, v.Counter)
	}
	if v.Core != 0 || v.Context != 0 {
		t.Errorf("wrong location: core %d ctx %d", v.Core, v.Context)
	}
	if v.Cycle == 0 {
		t.Error("violation has no cycle")
	}
	for _, frag := range []string{"uop-conservation", "cycle", "core 0 ctx 0", "Instructions"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("violation message %q missing %q", err.Error(), frag)
		}
	}
}

// TestCheckerCatchesBackwardDrift injects a counter decrease and requires
// a monotonicity violation.
func TestCheckerCatchesBackwardDrift(t *testing.T) {
	cfg := twoCoreIVB()
	mcf, err := workload.ByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	chip := engine.MustNew(cfg)
	check.Attach(chip, 256)
	chip.Assign(0, 0, workload.NewGen(mcf, 7))
	chip.Run(2_000)
	chip.CorruptCounterForTest(0, 0, -40)
	chip.Run(2_000)
	err = chip.CheckErr()
	if err == nil {
		t.Fatal("checker missed backward counter drift")
	}
	var v *check.Violation
	if !errors.As(err, &v) {
		t.Fatalf("violation is not structured: %T %v", err, err)
	}
	if v.Invariant != "pmu-monotonicity" || v.Counter != "Instructions" {
		t.Errorf("wrong attribution: invariant %q counter %q", v.Invariant, v.Counter)
	}
}

// TestProfileCheckOption runs the standard characterization path with the
// checker enabled through profile.Options and expects zero violations.
func TestProfileCheckOption(t *testing.T) {
	opts := profile.FastOptions()
	opts.Check = true
	opts.CheckInterval = 512
	cfg := twoCoreIVB()
	mcf, err := workload.ByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := profile.SoloContext(context.Background(), cfg, profile.App(mcf), opts); err != nil {
		t.Errorf("checked solo run failed: %v", err)
	}
	r := rulers.For(cfg, rulers.DimL3)
	if _, err := profile.ColocateContext(context.Background(), cfg, profile.App(mcf), profile.Rulers(r, 1), profile.SMT, opts); err != nil {
		t.Errorf("checked SMT co-location failed: %v", err)
	}
	if _, err := profile.ColocateContext(context.Background(), cfg, profile.App(mcf), profile.Rulers(r, 1), profile.CMP, opts); err != nil {
		t.Errorf("checked CMP co-location failed: %v", err)
	}
}

// TestCheckerSurvivesReassignment exercises the OnReset path: reusing a
// chip across Assign/ResetCounters cycles must not produce spurious
// violations.
func TestCheckerSurvivesReassignment(t *testing.T) {
	cfg := twoCoreIVB()
	mcf, err := workload.ByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	chip := engine.MustNew(cfg)
	k := check.Attach(chip, 200)
	for round := 0; round < 3; round++ {
		chip.Assign(0, 0, workload.NewGen(mcf, uint64(round)+1))
		if round%2 == 1 {
			chip.Assign(0, 1, rulers.IntAdd().NewStream(uint64(round)))
		} else {
			chip.Assign(0, 1, nil)
		}
		chip.Run(1_500)
		chip.ResetCounters()
		chip.Run(1_500)
		if err := chip.CheckErr(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if k.Checks == 0 {
		t.Fatal("checker never ran")
	}
}
