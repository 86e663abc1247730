package workload

import (
	"testing"
	"testing/quick"

	"repro/internal/sim/isa"
)

func TestRegistryShape(t *testing.T) {
	if n := len(SPECCPU2006()); n != 29 {
		t.Errorf("SPEC CPU2006 has %d models, want 29", n)
	}
	if n := len(CloudSuiteApps()); n != 4 {
		t.Errorf("CloudSuite has %d models, want 4", n)
	}
	if n := len(All()); n != 33 {
		t.Errorf("All has %d models, want 33", n)
	}
	even, odd := EvenSPEC(), OddSPEC()
	if len(even)+len(odd) != 29 {
		t.Errorf("parity split %d+%d != 29", len(even), len(odd))
	}
	for _, s := range even {
		if s.Number%2 != 0 {
			t.Errorf("%s in the even set", s.Name)
		}
	}
	for _, s := range odd {
		if s.Number%2 != 1 {
			t.Errorf("%s in the odd set", s.Name)
		}
	}
}

func TestAllSpecsValid(t *testing.T) {
	for _, s := range All() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if sum := s.Mix.Sum(); sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: mix sums to %f", s.Name, sum)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("429.mcf")
	if err != nil || s.Name != "429.mcf" {
		t.Errorf("ByName failed: %v", err)
	}
	if _, err := ByName("430.nonexistent"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestCloudSuiteProperties(t *testing.T) {
	for _, s := range CloudSuiteApps() {
		if !s.LatencySensitive() {
			t.Errorf("%s should be latency-sensitive", s.Name)
		}
		if s.ThreadCount() < 2 {
			t.Errorf("%s should be multithreaded", s.Name)
		}
		if s.ArrivalRate >= s.ServiceRate {
			t.Errorf("%s queue unstable", s.Name)
		}
	}
	// The paper: Data-Serving and Graph-Analytics report no percentiles.
	reporting := 0
	for _, s := range CloudSuiteApps() {
		if s.ReportsPercentile {
			reporting++
		}
	}
	if reporting != 2 {
		t.Errorf("%d services report percentiles, want 2 (Web-Search, Data-Caching)", reporting)
	}
}

func TestPaperCalloutsEncoded(t *testing.T) {
	// The table should preserve the contrasts the paper names.
	namd, _ := ByName("444.namd")
	mcf, _ := ByName("429.mcf")
	if namd.Mix.FPAdd < 0.25 {
		t.Error("namd should be FP_ADD-heavy (paper: 71% port-1 sensitivity)")
	}
	if mcf.Mix.FPAdd != 0 || mcf.Mix.FPMul != 0 {
		t.Error("mcf should have no FP work (paper: 6% port-1 sensitivity)")
	}
	calculix, _ := ByName("454.calculix")
	lbm, _ := ByName("470.lbm")
	if calculix.Mix.FPMul <= calculix.Mix.FPAdd {
		t.Error("calculix should lean FP_MUL (paper: contentious on port 0)")
	}
	if lbm.Mix.FPAdd <= lbm.Mix.FPMul {
		t.Error("lbm should lean FP_ADD (paper: contentious on port 1)")
	}
	if calculix.FootprintBytes > 32<<10 {
		t.Error("calculix should be L1-resident (paper: high L1 reliance)")
	}
	// CloudSuite: big shared-cache footprints (paper Finding 8).
	for _, s := range CloudSuiteApps() {
		if s.FootprintBytes < 8<<20 {
			t.Errorf("%s footprint %d too small for L3 contentiousness", s.Name, s.FootprintBytes)
		}
	}
}

func TestGenDeterminism(t *testing.T) {
	spec, _ := ByName("403.gcc")
	a, b := NewGen(spec, 42), NewGen(spec, 42)
	var ua, ub isa.Uop
	for i := 0; i < 10000; i++ {
		ua, ub = isa.Uop{}, isa.Uop{}
		a.Next(&ua)
		b.Next(&ub)
		if ua != ub {
			t.Fatalf("same-seed generators diverged at uop %d", i)
		}
	}
}

func TestGenSeedsDiffer(t *testing.T) {
	spec, _ := ByName("403.gcc")
	a, b := NewGen(spec, 1), NewGen(spec, 2)
	same := 0
	var ua, ub isa.Uop
	for i := 0; i < 1000; i++ {
		ua, ub = isa.Uop{}, isa.Uop{}
		a.Next(&ua)
		b.Next(&ub)
		if ua == ub {
			same++
		}
	}
	if same > 900 {
		t.Errorf("different seeds produced %d/1000 identical uops", same)
	}
}

// Property: generated uops respect the spec's structural invariants.
func TestGenInvariants(t *testing.T) {
	if err := quick.Check(func(seed uint64, pick uint8) bool {
		specs := All()
		spec := specs[int(pick)%len(specs)]
		g := NewGen(spec, seed)
		var u isa.Uop
		for i := 0; i < 2000; i++ {
			u = isa.Uop{}
			g.Next(&u)
			switch u.Kind {
			case isa.Load, isa.Store:
				if u.Addr >= spec.FootprintBytes && u.Addr >= spec.HotBytes && u.Addr >= spec.WarmBytes {
					return false // address outside every region
				}
				if u.Addr%8 != 0 {
					return false // unaligned
				}
			case isa.Branch:
				if int(u.BrTag) >= spec.BranchTags {
					return false
				}
			case isa.Nop:
				if u.Dep1 != 0 || u.Dep2 != 0 {
					return false // nops carry no dependencies
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The empirical mix must track the spec's mix.
func TestGenMixFrequencies(t *testing.T) {
	spec, _ := ByName("444.namd")
	g := NewGen(spec, 9)
	counts := make(map[isa.UopKind]int)
	const n = 200000
	var u isa.Uop
	for i := 0; i < n; i++ {
		u = isa.Uop{}
		g.Next(&u)
		counts[u.Kind]++
	}
	check := func(kind isa.UopKind, want float64) {
		got := float64(counts[kind]) / n
		if got < want-0.01 || got > want+0.01 {
			t.Errorf("%v frequency %.4f, want %.3f", kind, got, want)
		}
	}
	check(isa.FPMul, spec.Mix.FPMul)
	check(isa.FPAdd, spec.Mix.FPAdd)
	check(isa.Load, spec.Mix.Load)
	check(isa.Branch, spec.Mix.Branch)
}

func TestValidateCatchesBadSpecs(t *testing.T) {
	base := func() Spec {
		s := *mustByName(t, "456.hmmer")
		return s
	}
	mutations := []struct {
		name string
		f    func(*Spec)
	}{
		{"empty name", func(s *Spec) { s.Name = "" }},
		{"bad mix sum", func(s *Spec) { s.Mix.Load += 0.5 }},
		{"dep < 1", func(s *Spec) { s.MeanDepDist = 0.5 }},
		{"no footprint", func(s *Spec) { s.FootprintBytes = 0 }},
		{"bad bias", func(s *Spec) { s.BranchBias = 1.5 }},
		{"bad frac", func(s *Spec) { s.IndepFrac = -0.1 }},
		{"hot frac no bytes", func(s *Spec) { s.HotFrac = 0.5; s.HotBytes = 0 }},
		{"warm frac no bytes", func(s *Spec) { s.WarmFrac = 0.5; s.WarmBytes = 0 }},
		{"fracs > 1", func(s *Spec) { s.HotFrac = 0.6; s.HotBytes = 1; s.WarmFrac = 0.6; s.WarmBytes = 1 }},
		{"unstable queue", func(s *Spec) { s.ServiceRate = 100; s.ArrivalRate = 100 }},
	}
	for _, m := range mutations {
		s := base()
		m.f(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

func mustByName(t *testing.T, name string) *Spec {
	t.Helper()
	s, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSuiteStrings(t *testing.T) {
	if SpecINT.String() != "SPEC_INT" || SpecFP.String() != "SPEC_FP" || Cloud.String() != "CloudSuite" {
		t.Error("suite names wrong")
	}
	if PatternRandom.String() != "random" || PatternStride.String() != "stride" || PatternMixed.String() != "mixed" {
		t.Error("pattern names wrong")
	}
}

func TestPrewarmFootprintRules(t *testing.T) {
	// Random patterns declare their main footprint.
	mcf := mustByName(t, "429.mcf")
	g := NewGen(mcf, 1)
	found := false
	for _, s := range g.PrewarmFootprint() {
		if s == mcf.FootprintBytes {
			found = true
		}
	}
	if !found {
		t.Error("random-pattern main footprint not declared")
	}
	// Long streams do not (no reuse before wraparound).
	lbm := mustByName(t, "470.lbm")
	g = NewGen(lbm, 1)
	for _, s := range g.PrewarmFootprint() {
		if s == lbm.FootprintBytes {
			t.Error("streaming main footprint declared resident")
		}
	}
	// Short-wrap strided regions do (h264ref's 512 KiB wraps quickly).
	h264 := mustByName(t, "464.h264ref")
	g = NewGen(h264, 1)
	found = false
	for _, s := range g.PrewarmFootprint() {
		if s == h264.FootprintBytes {
			found = true
		}
	}
	if !found {
		t.Error("short-wrap strided footprint not declared")
	}
}

// Warm advances a generator exactly as Next does: for every catalogue
// spec (and one whose dependency distances draw nothing), Warm×N then
// Next×M yields the micro-ops Next×(N+M) does, and each warmed micro-op
// carries the Kind, Addr and branch fields Next would have filled. Warm
// never zeroes its Uop, so the scratch starts out full of junk.
func TestGenWarmMatchesNext(t *testing.T) {
	unitDep := *All()[0]
	unitDep.Name, unitDep.MeanDepDist = "unit-dep", 1
	specs := append(All(), &unitDep)
	const n, m = 5000, 2000
	for _, s := range specs {
		for _, seed := range []uint64{1, 99} {
			warmed, ref := NewGen(s, seed), NewGen(s, seed)
			scratch := isa.Uop{Kind: isa.FPMul, Dep1: 9, Addr: 0xdead, BrTag: 7, Taken: true, ICacheMiss: true}
			for i := 0; i < n+m; i++ {
				var want isa.Uop
				ref.Next(&want)
				if i < n {
					warmed.Warm(&scratch)
					ok := scratch.Kind == want.Kind
					switch want.Kind {
					case isa.Load, isa.Store:
						ok = ok && scratch.Addr == want.Addr
					case isa.Branch:
						ok = ok && scratch.BrTag == want.BrTag && scratch.Taken == want.Taken
					}
					if !ok {
						t.Fatalf("%s seed %d: Warm #%d = %+v, Next gave %+v", s.Name, seed, i, scratch, want)
					}
					continue
				}
				var got isa.Uop
				warmed.Next(&got)
				if got != want {
					t.Fatalf("%s seed %d: Next #%d after %d Warms = %+v, want %+v", s.Name, seed, i, n, got, want)
				}
			}
		}
	}
}
