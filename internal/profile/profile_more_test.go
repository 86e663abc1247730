package profile

import (
	"context"
	"testing"

	"repro/internal/rulers"
	"repro/internal/workload"
)

func TestDegradationHelper(t *testing.T) {
	if d := Degradation(2, 1); d != 0.5 {
		t.Errorf("Degradation(2,1) = %g", d)
	}
	if d := Degradation(0, 1); d != 0 {
		t.Errorf("zero solo IPC should yield 0, got %g", d)
	}
	if d := Degradation(1, 1.1); d >= 0 {
		t.Error("speed-ups should be negative degradations")
	}
}

func TestJobWrappers(t *testing.T) {
	spec, err := workload.ByName("web-search")
	if err != nil {
		t.Fatal(err)
	}
	if j := App(spec); j.Name() != "web-search" || j.Instances() != spec.ThreadCount() {
		t.Errorf("App wrapper: %s/%d", j.Name(), j.Instances())
	}
	if j := AppThreads(spec, 3); j.Instances() != 3 {
		t.Errorf("AppThreads: %d", j.Instances())
	}
	if j := AppThreads(spec, 0); j.Instances() != 1 {
		t.Errorf("AppThreads clamps to 1, got %d", j.Instances())
	}
	r := rulers.FPAdd()
	if j := Rulers(r, 4); j.Name() != "FP_ADD" || j.Instances() != 4 {
		t.Errorf("Rulers wrapper: %s/%d", j.Name(), j.Instances())
	}
	if j := Rulers(r, 0); j.Instances() != 1 {
		t.Error("Rulers clamps to 1")
	}
}

func TestPlacementValidation(t *testing.T) {
	cfg := testConfig() // 2 cores
	spec, _ := workload.ByName("456.hmmer")
	opts := FastOptions()
	// SMT partner beyond core count.
	if _, err := ColocateContext(context.Background(), cfg, App(spec), Rulers(rulers.FPAdd(), 3), SMT, opts); err == nil {
		t.Error("oversubscribed SMT placement accepted")
	}
	// CMP needs job+partner cores.
	if _, err := ColocateContext(context.Background(), cfg, App(spec), Rulers(rulers.FPAdd(), 2), CMP, opts); err == nil {
		t.Error("oversubscribed CMP placement accepted")
	}
	// Job larger than the machine.
	ws, _ := workload.ByName("web-search") // 6 threads
	if _, err := SoloContext(context.Background(), cfg, App(ws), opts); err == nil {
		t.Error("6-thread job accepted on a 2-core machine")
	}
}

func TestSoloRunMemoization(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in short mode")
	}
	p := NewProfiler(testConfig(), FastOptions())
	spec, _ := workload.ByName("456.hmmer")
	a, err := p.SoloRunContext(context.Background(), App(spec))
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.SoloRunContext(context.Background(), App(spec))
	if err != nil {
		t.Fatal(err)
	}
	if a.AppIPC != b.AppIPC {
		t.Error("memoized solo run differed")
	}
}

func TestCharacterizationDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in short mode")
	}
	spec, _ := workload.ByName("445.gobmk")
	p1 := NewProfiler(testConfig(), FastOptions())
	p2 := NewProfiler(testConfig(), FastOptions())
	c1, err := p1.CharacterizeContext(context.Background(), spec, SMT)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p2.CharacterizeContext(context.Background(), spec, SMT)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Sen != c2.Sen || c1.Con != c2.Con || c1.SoloIPC != c2.SoloIPC {
		t.Error("characterization not reproducible across profilers")
	}
}

func TestMeasurePairsDeduplicates(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in short mode")
	}
	p := NewProfiler(testConfig(), FastOptions())
	a, _ := workload.ByName("456.hmmer")
	b, _ := workload.ByName("444.namd")
	set := []*workload.Spec{a, b}
	pairs, err := p.MeasurePairsContext(context.Background(), set, set, SMT)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 {
		t.Errorf("2-app set produced %d measurements, want 1 unordered pair", len(pairs))
	}
}

func TestMultithreadedCharacterizationClamped(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in short mode")
	}
	// web-search wants 6 threads; a 2-core machine must clamp, not fail.
	p := NewProfiler(testConfig(), FastOptions())
	ws, _ := workload.ByName("web-search")
	ch, err := p.CharacterizeContext(context.Background(), ws, SMT)
	if err != nil {
		t.Fatal(err)
	}
	if ch.SoloIPC <= 0 {
		t.Error("clamped characterization produced no IPC")
	}
}

func TestOptionsWorkers(t *testing.T) {
	o := Options{Parallelism: 3}
	if o.workers() != 3 {
		t.Error("explicit parallelism ignored")
	}
	if (Options{}).workers() < 1 {
		t.Error("default workers < 1")
	}
}
