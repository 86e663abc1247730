package simtest

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/profile"
	"repro/internal/rulers"
	"repro/internal/sim/pmu"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// numSeeds is the width of every law sweep. The ISSUE floor is 20; keep it
// exactly there so the suite stays affordable under -race.
const numSeeds = 20

// nopSpec is a co-runner that consumes no shared resource: pure nops, no
// memory, no branches, no front-end misses. Used by the isolation law.
func nopSpec() *workload.Spec {
	s := &workload.Spec{
		Name:        "nop-partner",
		Suite:       workload.SpecINT,
		Mix:         workload.Mix{Nop: 1},
		MeanDepDist: 4,
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

// TestDeterminism is the reproducibility law: for every seed, running the
// identical (workload, ruler, placement) configuration twice must produce a
// bit-identical PMU dump — hashed over every counter of every context.
func TestDeterminism(t *testing.T) {
	cfg := SmallIVB(2)
	for seed := uint64(0); seed < numSeeds; seed++ {
		r := xrand.New(seed + 0xD5)
		spec := RandomSpec(r, "rand-det")
		dim := rulers.Dimensions()[r.Intn(len(rulers.Dimensions()))]
		ruler := rulers.For(cfg, dim).WithIntensity(RandomIntensity(r))
		placement := RandomPlacement(r)
		opts := TinyOptions()
		opts.BaseSeed = seed + 1

		run := func() uint64 {
			res, err := profile.ColocateContext(context.Background(), cfg, profile.App(spec), profile.Rulers(ruler, 1), placement, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return HashRun(res)
		}
		h1, h2 := run(), run()
		if h1 != h2 {
			t.Errorf("seed %d (%s vs %s, %s): hashes differ: %016x != %016x",
				seed, spec.Name, ruler.Name, placement, h1, h2)
		}
	}
}

// TestDegradationNonNegative is the contention-only-takes law: co-running
// with a Ruler never speeds an application up beyond measurement noise.
// Shared-structure aliasing (branch predictor, replacement state) can move
// IPC a hair in either direction at Tiny windows, hence the small epsilon.
func TestDegradationNonNegative(t *testing.T) {
	const eps = 0.01
	cfg := SmallIVB(2)
	for seed := uint64(0); seed < numSeeds; seed++ {
		r := xrand.New(seed + 0x9E)
		spec := RandomSpec(r, "rand-deg")
		dim := rulers.Dimensions()[r.Intn(len(rulers.Dimensions()))]
		ruler := rulers.For(cfg, dim)
		placement := RandomPlacement(r)
		opts := TinyOptions()
		opts.BaseSeed = seed + 1

		solo, err := profile.SoloContext(context.Background(), cfg, profile.App(spec), opts)
		if err != nil {
			t.Fatalf("seed %d solo: %v", seed, err)
		}
		co, err := profile.ColocateContext(context.Background(), cfg, profile.App(spec), profile.Rulers(ruler, 1), placement, opts)
		if err != nil {
			t.Fatalf("seed %d colocate: %v", seed, err)
		}
		deg := profile.Degradation(solo.AppIPC, co.AppIPC)
		t.Logf("seed %2d %s %-8s deg=%+.4f", seed, placement, ruler.Name, deg)
		if deg < -eps {
			t.Errorf("seed %d: co-location with %s (%s) sped the app up: degradation %.4f < -%.2f",
				seed, ruler.Name, placement, deg, eps)
		}
	}
}

// TestRulerIntensityMonotonicity is the pressure-dial law: raising a
// Ruler's duty cycle must not reduce the interference it inflicts on a
// co-runner, modulo measurement noise.
func TestRulerIntensityMonotonicity(t *testing.T) {
	const eps = 0.02
	cfg := SmallIVB(2)
	dims := rulers.Dimensions()
	for seed := uint64(0); seed < numSeeds; seed++ {
		r := xrand.New(seed + 0x51)
		spec := RandomSpec(r, "rand-mono")
		dim := dims[int(seed)%len(dims)]
		placement := profile.SMT
		if dim.IsMemory() && r.Bool(0.5) {
			placement = profile.CMP // memory dims also contend cross-core
		}
		opts := TinyOptions()
		opts.BaseSeed = seed + 1

		solo, err := profile.SoloContext(context.Background(), cfg, profile.App(spec), opts)
		if err != nil {
			t.Fatalf("seed %d solo: %v", seed, err)
		}
		deg := func(intensity float64) float64 {
			ruler := rulers.For(cfg, dim).WithIntensity(intensity)
			res, err := profile.ColocateContext(context.Background(), cfg, profile.App(spec), profile.Rulers(ruler, 1), placement, opts)
			if err != nil {
				t.Fatalf("seed %d intensity %.1f: %v", seed, intensity, err)
			}
			return profile.Degradation(solo.AppIPC, res.AppIPC)
		}
		low, high := deg(0.3), deg(1.0)
		t.Logf("seed %2d %-8s %s low=%+.4f high=%+.4f", seed, dim, placement, low, high)
		if high < low-eps {
			t.Errorf("seed %d: %s ruler (%s) interference fell with intensity: deg(1.0)=%.4f < deg(0.3)=%.4f-%.2f",
				seed, dim, placement, high, low, eps)
		}
	}
}

// TestCrossContextIsolation is the no-shared-resource law: a CMP co-runner
// that issues only nops — touching no cache line, no port the app's core
// owns, no DRAM — must leave the app's counters *bit-identical* to its solo
// run. Any difference means state is leaking between contexts that share
// nothing architectural.
func TestCrossContextIsolation(t *testing.T) {
	cfg := SmallIVB(2)
	nop := nopSpec()
	for seed := uint64(0); seed < numSeeds; seed++ {
		r := xrand.New(seed + 0x15)
		spec := RandomSpec(r, "rand-iso")
		opts := TinyOptions()
		opts.BaseSeed = seed + 1

		solo, err := profile.SoloContext(context.Background(), cfg, profile.App(spec), opts)
		if err != nil {
			t.Fatalf("seed %d solo: %v", seed, err)
		}
		co, err := profile.ColocateContext(context.Background(), cfg, profile.App(spec), profile.App(nop), profile.CMP, opts)
		if err != nil {
			t.Fatalf("seed %d colocate: %v", seed, err)
		}
		soloHash := HashCounters(solo.AppCounters...)
		coHash := HashCounters(co.AppCounters...)
		if soloHash != coHash {
			t.Errorf("seed %d: nop partner on another core perturbed the app's counters (solo %016x vs co %016x)",
				seed, soloHash, coHash)
			for _, pair := range diffFields(solo.AppCounters[0], co.AppCounters[0]) {
				t.Logf("  %s: solo %d co %d", pair.name, pair.a, pair.b)
			}
		}
	}
}

type fieldDiff struct {
	name string
	a, b uint64
}

func diffFields(a, b pmu.Counters) []fieldDiff {
	fa, fb := a.FieldList(), b.FieldList()
	var out []fieldDiff
	for i := range fa {
		if fa[i].Value != fb[i].Value {
			out = append(out, fieldDiff{fa[i].Name, fa[i].Value, fb[i].Value})
		}
	}
	return out
}

// TestScaleConsistency is the window-size law: a reduced measurement window
// (FastOptions) must agree with the full-scale window (DefaultOptions) on
// the *structure* of contention — which pairing hurts more — even if the
// point values drift. This is what licenses running the experiment suite at
// TestScale in CI.
func TestScaleConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale windows in short mode")
	}
	cfg := SmallIVB(2)
	mcf := mustSpec(t, "429.mcf")   // cache-thrashing: heavy SMT victim
	namd := mustSpec(t, "444.namd") // compute-dense: mild co-runner
	lbm := mustSpec(t, "470.lbm")   // bandwidth-bound: heavy aggressor

	degAt := func(opts profile.Options, a, b *workload.Spec) float64 {
		opts.Check = true
		solo, err := profile.SoloContext(context.Background(), cfg, profile.App(a), opts)
		if err != nil {
			t.Fatal(err)
		}
		co, err := profile.ColocateContext(context.Background(), cfg, profile.App(a), profile.App(b), profile.SMT, opts)
		if err != nil {
			t.Fatal(err)
		}
		return profile.Degradation(solo.AppIPC, co.AppIPC)
	}

	for _, scale := range []struct {
		name string
		opts profile.Options
	}{
		{"fast", profile.FastOptions()},
		{"full", profile.DefaultOptions()},
	} {
		heavy := degAt(scale.opts, mcf, lbm)  // mcf under a bandwidth hog
		light := degAt(scale.opts, namd, mcf) // namd barely shares ports with mcf
		t.Logf("%s: deg(mcf|lbm)=%.4f deg(namd|mcf)=%.4f", scale.name, heavy, light)
		if heavy <= 0.02 {
			t.Errorf("%s scale: mcf vs lbm degradation %.4f not clearly positive", scale.name, heavy)
		}
		if light < -0.02 {
			t.Errorf("%s scale: namd vs mcf degradation %.4f negative", scale.name, light)
		}
		if heavy <= light {
			t.Errorf("%s scale: ordering inverted: deg(mcf|lbm)=%.4f <= deg(namd|mcf)=%.4f",
				scale.name, heavy, light)
		}
	}
}

func mustSpec(t *testing.T, name string) *workload.Spec {
	t.Helper()
	s, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestParallelismIndependence is the scheduling-transparency law: the
// worker count is an execution detail, so a characterization sweep must
// produce bit-identical results at any Parallelism. Each seed gets a
// fresh profiler (and thus a fresh simulation cache) per worker count, so
// every cell genuinely re-simulates under the parallel schedule rather
// than reading the sequential run's memo.
func TestParallelismIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization sweep in short mode")
	}
	cfg := SmallIVB(2)
	for seed := uint64(0); seed < numSeeds; seed++ {
		r := xrand.New(seed + 0x7A)
		specs := []*workload.Spec{
			RandomSpec(r, "rand-par-a"),
			RandomSpec(r, "rand-par-b"),
		}
		placement := RandomPlacement(r)

		var baseline []profile.Characterization
		for _, workers := range []int{1, 2, 8} {
			opts := TinyOptions()
			opts.BaseSeed = seed + 1
			opts.Parallelism = workers
			got, err := profile.NewProfiler(cfg, opts).CharacterizeAllContext(context.Background(), specs, placement)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if baseline == nil {
				baseline = got
			} else if !reflect.DeepEqual(baseline, got) {
				t.Errorf("seed %d (%s): Parallelism=%d changed the characterization",
					seed, placement, workers)
			}
		}
	}
}
