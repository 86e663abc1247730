package simtest

import (
	"context"
	"testing"

	"repro/internal/isol"
	"repro/internal/profile"
	"repro/internal/rulers"
	"repro/internal/sim/isa"
	"repro/internal/sim/pmu"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// l3VictimSpec derives a randomized but L3-resident victim: the law needs
// workloads whose working set actually lives in the shared cache, or the
// partition has nothing to protect.
func l3VictimSpec(r *xrand.Rand, name string) *workload.Spec {
	spec := RandomSpec(r, name)
	spec.FootprintBytes = uint64(1) << (21 + r.Intn(2)) // 2 or 4 MiB
	spec.Pattern = workload.PatternRandom
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return spec
}

// TestWayPartitionMonotonicity is the CAT law: giving the victim more
// exclusive L3 ways (and the aggressor correspondingly fewer) never
// increases the victim's degradation, modulo measurement noise. The
// aggressor is the L3 Ruler at full intensity on the victim's SMT sibling.
func TestWayPartitionMonotonicity(t *testing.T) {
	const eps = 0.02
	cfg := SmallIVB(2)
	ways := cfg.L3.Ways
	ruler := rulers.For(cfg, rulers.DimL3)
	for seed := uint64(0); seed < numSeeds; seed++ {
		r := xrand.New(seed + 0xCA7)
		spec := l3VictimSpec(r, "rand-cat")
		opts := TinyOptions()
		opts.BaseSeed = seed + 1

		solo, err := profile.SoloContext(context.Background(), cfg, profile.App(spec), opts)
		if err != nil {
			t.Fatalf("seed %d solo: %v", seed, err)
		}
		deg := func(victimWays int) float64 {
			pcfg := cfg
			v, a := isol.SplitWays(victimWays, ways)
			// Victim on core 0 context 0 (gid 0), aggressor on its SMT
			// sibling (gid 1); the other core stays unrestricted.
			pcfg.Isolation = isol.Policy{WayMasks: []uint64{v, a}}
			res, err := profile.ColocateContext(context.Background(), pcfg, profile.App(spec), profile.Rulers(ruler, 1), profile.SMT, opts)
			if err != nil {
				t.Fatalf("seed %d ways %d: %v", seed, victimWays, err)
			}
			return profile.Degradation(solo.AppIPC, res.AppIPC)
		}
		d2, d8, d14 := deg(2), deg(ways/2), deg(ways-2)
		t.Logf("seed %2d ways2=%+.4f ways%d=%+.4f ways%d=%+.4f", seed, d2, ways/2, d8, ways-2, d14)
		if d8 > d2+eps {
			t.Errorf("seed %d: growing the victim partition 2→%d ways increased degradation %.4f→%.4f", seed, ways/2, d2, d8)
		}
		if d14 > d8+eps {
			t.Errorf("seed %d: growing the victim partition %d→%d ways increased degradation %.4f→%.4f", seed, ways/2, ways-2, d8, d14)
		}
	}
}

// TestThrottleMonotonicity is the MBA law: tightening the aggressor's
// memory-bandwidth budget never increases the victim's degradation. The
// aggressor is the DRAM-bandwidth Ruler on the victim's SMT sibling.
func TestThrottleMonotonicity(t *testing.T) {
	const eps = 0.02
	cfg := SmallIVB(2)
	ruler := rulers.For(cfg, rulers.DimMemBW)
	for seed := uint64(0); seed < numSeeds; seed++ {
		r := xrand.New(seed + 0x3BA)
		spec := RandomSpec(r, "rand-mba")
		opts := TinyOptions()
		opts.BaseSeed = seed + 1

		solo, err := profile.SoloContext(context.Background(), cfg, profile.App(spec), opts)
		if err != nil {
			t.Fatalf("seed %d solo: %v", seed, err)
		}
		deg := func(refill uint64) float64 {
			pcfg := cfg
			if refill > 0 {
				// Throttle only the aggressor (gid 1).
				pcfg.Isolation = isol.Policy{MemBudgets: []isol.MemBudget{{}, {Tokens: 4, RefillCycles: refill}}}
			}
			res, err := profile.ColocateContext(context.Background(), pcfg, profile.App(spec), profile.Rulers(ruler, 1), profile.SMT, opts)
			if err != nil {
				t.Fatalf("seed %d refill %d: %v", seed, refill, err)
			}
			return profile.Degradation(solo.AppIPC, res.AppIPC)
		}
		dFree, dLoose, dTight := deg(0), deg(32), deg(256)
		t.Logf("seed %2d free=%+.4f loose=%+.4f tight=%+.4f", seed, dFree, dLoose, dTight)
		if dLoose > dFree+eps {
			t.Errorf("seed %d: throttling the aggressor (refill 32) increased victim degradation %.4f→%.4f", seed, dFree, dLoose)
		}
		if dTight > dLoose+eps {
			t.Errorf("seed %d: tightening the throttle 32→256 increased victim degradation %.4f→%.4f", seed, dLoose, dTight)
		}
	}
}

// TestIsolationDeterminism: an isolation-enabled configuration is as
// reproducible as a plain one — same seed, bit-identical PMU dump.
func TestIsolationDeterminism(t *testing.T) {
	cfg := SmallIVB(2)
	v, a := isol.SplitWays(4, cfg.L3.Ways)
	cfg.Isolation = isol.Policy{
		WayMasks:   []uint64{v, a},
		MemBudgets: []isol.MemBudget{{}, {Tokens: 4, RefillCycles: 64}},
	}
	r := xrand.New(0x15)
	spec := RandomSpec(r, "rand-iso-det")
	ruler := rulers.For(cfg, rulers.DimL3)
	opts := TinyOptions()
	run := func() uint64 {
		res, err := profile.ColocateContext(context.Background(), cfg, profile.App(spec), profile.Rulers(ruler, 1), profile.SMT, opts)
		if err != nil {
			t.Fatal(err)
		}
		return HashRun(res)
	}
	if h1, h2 := run(), run(); h1 != h2 {
		t.Errorf("isolation-enabled run is not deterministic: %016x != %016x", h1, h2)
	}
}

// TestSMT4Smoke is the >2-way smoke test the hardcoded-2 audit demanded:
// a 4-context POWER8-like core runs one app against three Ruler siblings
// under the runtime invariant checker, every context makes progress, and
// three co-runners interfere no less than one.
func TestSMT4Smoke(t *testing.T) {
	const eps = 0.02
	cfg := isa.Power8SMT4()
	cfg.Cores = 1
	r := xrand.New(0x54)
	spec := RandomSpec(r, "rand-smt4")
	ruler := rulers.For(cfg, rulers.DimL2)
	opts := TinyOptions()

	solo, err := profile.SoloContext(context.Background(), cfg, profile.App(spec), opts)
	if err != nil {
		t.Fatalf("solo: %v", err)
	}
	one, err := profile.ColocateContext(context.Background(), cfg, profile.App(spec), profile.Rulers(ruler, 1), profile.SMT, opts)
	if err != nil {
		t.Fatalf("1 sibling: %v", err)
	}
	three, err := profile.ColocateContext(context.Background(), cfg, profile.App(spec), profile.Rulers(ruler, 3), profile.SMT, opts)
	if err != nil {
		t.Fatalf("3 siblings: %v", err)
	}
	if len(three.PartnerCounters) != 3 {
		t.Fatalf("expected 3 partner contexts, got %d", len(three.PartnerCounters))
	}
	for i, c := range append(append([]pmu.Counters{}, three.AppCounters...), three.PartnerCounters...) {
		if c.Instructions == 0 {
			t.Errorf("context %d retired nothing", i)
		}
	}
	d1 := profile.Degradation(solo.AppIPC, one.AppIPC)
	d3 := profile.Degradation(solo.AppIPC, three.AppIPC)
	t.Logf("deg 1-sibling=%+.4f 3-sibling=%+.4f", d1, d3)
	if d3 < d1-eps {
		t.Errorf("three SMT siblings interfere less than one: %.4f < %.4f", d3, d1)
	}
}

// TestBigLittleSmoke: on the asymmetric preset, the same FP-heavy workload
// retires faster on a big core than on a little one — proof the per-class
// port maps and latencies actually reach the pipeline.
func TestBigLittleSmoke(t *testing.T) {
	cfg := isa.BigLittle()
	cfg.Cores = 2
	cfg.Classes[0].Cores = 1
	cfg.Classes[1].Cores = 1
	spec := &workload.Spec{
		Name:        "fp-hot",
		Suite:       workload.SpecFP,
		Mix:         workload.Mix{FPMul: 0.45, FPAdd: 0.35, IntAdd: 0.15, Nop: 0.05},
		MeanDepDist: 6,
		IndepFrac:   0.7,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	opts := TinyOptions()
	res, err := profile.SoloContext(context.Background(), cfg, profile.AppThreads(spec, 2), opts)
	if err != nil {
		t.Fatalf("solo: %v", err)
	}
	big, little := res.AppCounters[0].IPC(), res.AppCounters[1].IPC()
	t.Logf("big IPC=%.3f little IPC=%.3f", big, little)
	if big <= little {
		t.Errorf("big core (%.3f IPC) not faster than little core (%.3f IPC)", big, little)
	}
}
