package experiments

import (
	"context"
	"sync"
	"testing"

	"repro/internal/profile"
	"repro/internal/workload"
)

// tinyLabScale keeps lab tests fast: two short-window machines and no
// experiment fan-out beyond what the test itself requests.
func tinyLabScale() Scale {
	return Scale{
		Options:          profile.FastOptions(),
		IvyBridgeCores:   2,
		SandyBridgeCores: 4,
	}
}

// Regression for the CharacterizationsContext check-then-act race: concurrent
// callers of the same memo key used to each run the full characterization
// fan-out, with every loser's work discarded. The memo is now
// single-flight, so exactly one fan-out may execute. Run under -race (the
// CI race job includes this package) to also catch unsynchronised map
// access.
func TestCharacterizationsSingleFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization fan-out in short mode")
	}
	lab := NewLab(tinyLabScale())
	a, err := workload.ByName("444.namd")
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.ByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	// Same set contents in different orders: one memo key, and each caller
	// gets results in its own requested order.
	sets := [][]*workload.Spec{
		{a, b}, {b, a}, {a, b}, {b, a}, {a, b}, {b, a},
	}
	results := make([][]profile.Characterization, len(sets))
	errs := make([]error, len(sets))
	var wg sync.WaitGroup
	for i, set := range sets {
		wg.Add(1)
		go func(i int, set []*workload.Spec) {
			defer wg.Done()
			results[i], errs[i] = lab.CharacterizationsContext(context.Background(), IvyBridge, profile.SMT, set)
		}(i, set)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
		if len(results[i]) != 2 {
			t.Fatalf("caller %d: %d characterizations", i, len(results[i]))
		}
		for j, s := range sets[i] {
			if results[i][j].App != s.Name {
				t.Errorf("caller %d slot %d: got %q, want %q", i, j, results[i][j].App, s.Name)
			}
		}
	}
	// All callers must observe identical characterizations per app.
	for i := 1; i < len(sets); i++ {
		for j, s := range sets[i] {
			want := results[0][0]
			if s.Name == sets[0][1].Name {
				want = results[0][1]
			}
			if results[i][j] != want {
				t.Errorf("caller %d: characterization of %s differs from caller 0", i, s.Name)
			}
		}
	}
	if runs := lab.charRuns.Load(); runs != 1 {
		t.Errorf("characterization fan-out executed %d times for one key, want 1 (single-flight)", runs)
	}
	// A second, sequential call is a pure memo hit.
	if _, err := lab.CharacterizationsContext(context.Background(), IvyBridge, profile.SMT, sets[0]); err != nil {
		t.Fatal(err)
	}
	if runs := lab.charRuns.Load(); runs != 1 {
		t.Errorf("memo hit re-ran the fan-out (%d runs)", runs)
	}
}

// A reduced-core Scale (TestScale halves the Sandy Bridge-EN to 4 cores)
// must still characterize the 6-thread CloudSuite applications: the
// thread clamp lives in CharacterizationsContext's job construction
// (profile.Profiler.JobFor), not in cloudSet, and this pins that it
// actually engages.
func TestScaleReducedCoresClampsCloudThreads(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization fan-out in short mode")
	}
	scale := TestScale()
	scale.MaxCloudApps = 1
	lab := NewLab(scale)
	set := lab.cloudSet()
	if len(set) != 1 {
		t.Fatalf("cloudSet returned %d apps, want 1", len(set))
	}
	spec := set[0]
	// Premise: the stock thread count really exceeds the reduced machine,
	// so a missing clamp could not pass this test.
	if spec.ThreadCount() <= lab.SNB.Cores {
		t.Fatalf("%s has %d threads, not above the reduced %d cores — test premise broken",
			spec.Name, spec.ThreadCount(), lab.SNB.Cores)
	}
	// cloudSet leaves the spec untouched (its doc comment says so).
	if spec.ThreadCount() != workload.CloudSuiteApps()[0].ThreadCount() {
		t.Errorf("cloudSet modified %s's thread count", spec.Name)
	}
	// Unclamped, the machine cannot host the job ...
	p := lab.Profiler(SandyBridgeEN)
	if _, err := p.CharacterizeJobContext(context.Background(), profile.AppThreads(spec, spec.ThreadCount()), profile.SMT); err == nil {
		t.Errorf("%d-thread job on %d cores characterized without error — clamp premise broken",
			spec.ThreadCount(), lab.SNB.Cores)
	}
	// ... while CharacterizationsContext clamps and succeeds.
	chars, err := lab.CharacterizationsContext(context.Background(), SandyBridgeEN, profile.SMT, set)
	if err != nil {
		t.Fatalf("CharacterizationsContext with reduced cores: %v", err)
	}
	if chars[0].App != spec.Name || chars[0].SoloIPC <= 0 {
		t.Errorf("clamped characterization looks wrong: %+v", chars[0])
	}
}
