package simtest

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/profile"
	"repro/internal/rulers"
	"repro/internal/sim/isa"
	"repro/internal/sim/pmu"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "regenerate golden PMU fixtures")

const goldenPath = "testdata/golden_pmu.json"

// goldenRun is one committed counter snapshot: every PMU counter of every
// context of a canonical (workload, machine, placement) triple.
type goldenRun struct {
	Name    string              `json:"name"`
	App     []map[string]uint64 `json:"app"`
	Partner []map[string]uint64 `json:"partner,omitempty"`
}

func countersToMap(c pmu.Counters) map[string]uint64 {
	m := make(map[string]uint64)
	for _, f := range c.FieldList() {
		m[f.Name] = f.Value
	}
	return m
}

func resultToGolden(name string, res profile.RunResult) goldenRun {
	g := goldenRun{Name: name}
	for _, c := range res.AppCounters {
		g.App = append(g.App, countersToMap(c))
	}
	for _, c := range res.PartnerCounters {
		g.Partner = append(g.Partner, countersToMap(c))
	}
	return g
}

func reduced(cfg isa.Config) isa.Config {
	cfg.Cores = 2
	return cfg
}

// goldenCases enumerates the canonical triples: solo, app-vs-app and
// app-vs-Ruler under both placements, across all three machine models,
// including a multithreaded CloudSuite arrangement. With check set the runs
// double as invariant runs; without it the engine takes its fast paths
// (idle-skip in particular), which the unchecked golden pass pins to the
// same fixtures.
func goldenCases(t *testing.T, check bool) []struct {
	name string
	run  func() (profile.RunResult, error)
} {
	t.Helper()
	ivb := reduced(isa.IvyBridge())
	snb := reduced(isa.SandyBridgeEN())
	p7 := reduced(isa.Power7Like())
	opts := profile.FastOptions()
	opts.Check = check

	spec := func(name string) *workload.Spec { return mustSpec(t, name) }
	app := func(name string) profile.Job { return profile.App(spec(name)) }

	return []struct {
		name string
		run  func() (profile.RunResult, error)
	}{
		{"ivb2/solo/429.mcf", func() (profile.RunResult, error) {
			return profile.SoloContext(context.Background(), ivb, app("429.mcf"), opts)
		}},
		{"ivb2/smt/444.namd+429.mcf", func() (profile.RunResult, error) {
			return profile.ColocateContext(context.Background(), ivb, app("444.namd"), app("429.mcf"), profile.SMT, opts)
		}},
		{"ivb2/smt/470.lbm+MEM_BW", func() (profile.RunResult, error) {
			r := rulers.For(ivb, rulers.DimMemBW)
			return profile.ColocateContext(context.Background(), ivb, app("470.lbm"), profile.Rulers(r, 1), profile.SMT, opts)
		}},
		{"ivb2/smt/401.bzip2+L3@0.50", func() (profile.RunResult, error) {
			r := rulers.For(ivb, rulers.DimL3).WithIntensity(0.5)
			return profile.ColocateContext(context.Background(), ivb, app("401.bzip2"), profile.Rulers(r, 1), profile.SMT, opts)
		}},
		{"ivb2/cmp/483.xalancbmk+429.mcf", func() (profile.RunResult, error) {
			return profile.ColocateContext(context.Background(), ivb, app("483.xalancbmk"), app("429.mcf"), profile.CMP, opts)
		}},
		{"snb2/smt/433.milc+456.hmmer", func() (profile.RunResult, error) {
			return profile.ColocateContext(context.Background(), snb, app("433.milc"), app("456.hmmer"), profile.SMT, opts)
		}},
		{"snb2/solo/web-search.x2", func() (profile.RunResult, error) {
			return profile.SoloContext(context.Background(), snb, profile.AppThreads(spec("web-search"), 2), opts)
		}},
		{"p7x2/smt/444.namd+429.mcf", func() (profile.RunResult, error) {
			return profile.ColocateContext(context.Background(), p7, app("444.namd"), app("429.mcf"), profile.SMT, opts)
		}},
	}
}

// TestGoldenPMU locks the engine's counter output for the canonical triples
// to the committed fixtures. A legitimate engine change regenerates them
// with
//
//	go test ./internal/simtest -run TestGolden -update
//
// and the fixture diff becomes part of the review: every counter shift is
// visible, none is silent.
func TestGoldenPMU(t *testing.T) {
	if testing.Short() {
		t.Skip("golden PMU runs in short mode")
	}
	cases := goldenCases(t, true)

	if *update {
		var out []goldenRun
		for _, c := range cases {
			res, err := c.run()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			out = append(out, resultToGolden(c.name, res))
		}
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s with %d fixtures", goldenPath, len(out))
		return
	}

	runAgainstFixtures(t, cases)
}

// TestGoldenPMUUnchecked replays the same canonical triples against the
// same fixtures with the invariant checker detached. This is the path
// production sweeps take — the engine may idle-skip, park contexts and use
// its issue fast paths — and it must be bit-exact with the checked runs
// that generated the fixtures.
func TestGoldenPMUUnchecked(t *testing.T) {
	if testing.Short() {
		t.Skip("golden PMU runs in short mode")
	}
	runAgainstFixtures(t, goldenCases(t, false))
}

func runAgainstFixtures(t *testing.T, cases []struct {
	name string
	run  func() (profile.RunResult, error)
}) {
	t.Helper()
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixtures (regenerate with -update): %v", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("corrupt golden fixtures: %v", err)
	}
	byName := make(map[string]goldenRun, len(want))
	for _, g := range want {
		byName[g.Name] = g
	}
	if len(byName) != len(cases) {
		t.Errorf("fixture count %d != case count %d (regenerate with -update)", len(byName), len(cases))
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			g, ok := byName[c.name]
			if !ok {
				t.Fatalf("no fixture for %s (regenerate with -update)", c.name)
			}
			res, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			got := resultToGolden(c.name, res)
			compareContexts(t, "app", g.App, got.App)
			compareContexts(t, "partner", g.Partner, got.Partner)
		})
	}
}

func compareContexts(t *testing.T, role string, want, got []map[string]uint64) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s context count: fixture %d, run %d", role, len(want), len(got))
		return
	}
	for i := range want {
		for name, wv := range want[i] {
			if gv, ok := got[i][name]; !ok || gv != wv {
				t.Errorf("%s[%d].%s = %d, fixture %d", role, i, name, got[i][name], wv)
			}
		}
		for name := range got[i] {
			if _, ok := want[i][name]; !ok {
				t.Errorf("%s[%d].%s missing from fixture (new counter? regenerate with -update)", role, i, name)
			}
		}
	}
}

// TestGoldenFixturesCommitted guards against an -update run that was never
// committed: the fixture file must exist and parse even in -short mode.
func TestGoldenFixturesCommitted(t *testing.T) {
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden fixtures not committed: %v", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("corrupt golden fixtures: %v", err)
	}
	if len(want) == 0 {
		t.Fatal("golden fixture file is empty")
	}
	for _, g := range want {
		if g.Name == "" || len(g.App) == 0 {
			t.Errorf("fixture %+v missing name or app counters", g)
		}
	}
}
