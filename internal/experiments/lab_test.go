package experiments

import (
	"context"
	"testing"

	"repro/internal/profile"
	"repro/internal/workload"
)

// A reduced-core Scale (TestScale halves the Sandy Bridge-EN to 4 cores)
// must still characterize the 6-thread CloudSuite applications: the
// thread clamp lives in CharacterizeAllContext's job construction
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
	// ... while CharacterizeAllContext clamps and succeeds.
	chars, err := p.CharacterizeAllContext(context.Background(), set, profile.SMT)
	if err != nil {
		t.Fatalf("CharacterizeAllContext with reduced cores: %v", err)
	}
	if chars[0].App != spec.Name || chars[0].SoloIPC <= 0 {
		t.Errorf("clamped characterization looks wrong: %+v", chars[0])
	}
}
