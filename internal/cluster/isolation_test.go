package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/isol"
)

// synthGenTable builds one generation's prediction table on its
// generation-specific synthetic world, through the full Predictor seam.
func synthGenTable(tb testing.TB, gen string, seed uint64) *PredTable {
	tb.Helper()
	const nLat, nBatch, maxInst = 3, 4, 6
	set, tbl, err := SyntheticGenWorld(gen, nLat, nBatch, maxInst, seed)
	if err != nil {
		tb.Fatal(err)
	}
	pred := NewTieredPredictor(
		&SurrogatePredictor{Set: set, Capacity: maxInst},
		&TablePredictor{Table: tbl},
	)
	pt, err := BuildPredTable(context.Background(), tbl, nil, QoSAvg, pred, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return pt
}

// synthGenConfig assembles a heterogeneous two-generation fleet: a 3:2 mix
// of "snb" machines at the default geometry and wider "ivb" machines, each
// with its own degradation surface.
func synthGenConfig(tb testing.TB, machines int, horizon float64, seed uint64) SimConfig {
	tb.Helper()
	cfg := synthSimConfig(tb, machines, horizon, seed)
	cfg.Table = nil
	cfg.MachineGens = []MachineGenSpec{
		{Name: "snb", Count: 3, Table: synthGenTable(tb, "snb", seed)},
		{Name: "ivb", Count: 2, Threads: 8, Contexts: 16, Table: synthGenTable(tb, "ivb", seed)},
	}
	return cfg
}

func TestAllocPolicyRegistry(t *testing.T) {
	for _, p := range AllocPolicies() {
		got, err := AllocPolicyByName(p.Name)
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if got.Name != p.Name || got.Score == nil {
			t.Errorf("%s resolved to %+v", p.Name, got)
		}
	}
	if def, err := AllocPolicyByName(""); err != nil || def.Name != "bestfit" {
		t.Errorf("empty name resolved to %q, %v (want bestfit)", def.Name, err)
	}
	if _, err := AllocPolicyByName("worstfit"); err == nil {
		t.Error("unknown alloc policy accepted")
	}
}

// TestIsolationConfigValidation rejects every degenerate isolation and
// heterogeneity configuration with a typed or descriptive error instead of
// a panic or livelock downstream.
func TestIsolationConfigValidation(t *testing.T) {
	base := func() SimConfig { return synthSimConfig(t, 20, 1, 5) }
	hetero := func() SimConfig { return synthGenConfig(t, 20, 1, 5) }
	cases := []struct {
		name string
		mut  func(*SimConfig)
		want string
	}{
		{"isol params without the policy", func(c *SimConfig) { c.Isol = &IsolSimParams{} }, "isolation parameters need policy"},
		{"isolation policy without SLO", func(c *SimConfig) { c.Policy = PolicyIsolation }, "needs SLO parameters"},
		{"unknown alloc", func(c *SimConfig) { c.Alloc = "worstfit" }, "unknown alloc policy"},
		{"alloc under random", func(c *SimConfig) { c.Policy = PolicyRandom; c.Alloc = "spread" }, "no effect under policy Random"},
		{"isolation with drift", func(c *SimConfig) {
			c.Policy = PolicyIsolation
			c.SLO = sloSimParams()
			c.Drift = &DriftSpec{At: 0.5, Factor: 2}
		}, "does not compose with drift"},
		{"bad ladder", func(c *SimConfig) {
			c.Policy = PolicyIsolation
			c.SLO = sloSimParams()
			c.Isol = &IsolSimParams{Levels: []isol.Setting{{Name: "off", DegScale: 0.5}}}
		}, "level 0 must be the identity"},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// Degenerate ladders surface isol's typed error.
	cfg := base()
	cfg.Policy = PolicyIsolation
	cfg.SLO = sloSimParams()
	cfg.Isol = &IsolSimParams{Levels: []isol.Setting{{Name: "off", DegScale: 1, ThrottleFrac: 1}, {Name: "zero", DegScale: 0}}}
	var ce *isol.ConfigError
	if err := cfg.Validate(); !errors.As(err, &ce) {
		t.Errorf("degenerate ladder error %v is not a *isol.ConfigError", err)
	}

	genCases := []struct {
		name string
		mut  func(*SimConfig)
		want string
	}{
		{"gens with table", func(c *SimConfig) { c.Table = c.MachineGens[0].Table }, "leave Table nil"},
		{"unnamed gen", func(c *SimConfig) { c.MachineGens[0].Name = "" }, "has no name"},
		{"duplicate gen", func(c *SimConfig) { c.MachineGens[1].Name = c.MachineGens[0].Name }, "duplicate machine generation"},
		{"zero count", func(c *SimConfig) { c.MachineGens[0].Count = 0 }, "must be positive"},
		{"no idle contexts", func(c *SimConfig) { c.MachineGens[1].Contexts = c.MachineGens[1].Threads }, "leaves no idle context"},
		{"closed loop over gens", func(c *SimConfig) {
			c.Policy = PolicyClosedLoop
			c.SLO = sloSimParams()
		}, "does not support heterogeneous"},
		{"drift over gens", func(c *SimConfig) { c.Drift = &DriftSpec{At: 0.5, Factor: 2} }, "does not support heterogeneous"},
		{"mismatched shapes", func(c *SimConfig) {
			pt := *c.MachineGens[1].Table
			pt.MaxInstances = 3
			pt.PredQoS = pt.PredQoS[:len(pt.LatencyApps)*len(pt.BatchApps)*3]
			pt.ActualQoS = pt.ActualQoS[:len(pt.PredQoS)]
			pt.PredDeg = pt.PredDeg[:len(pt.PredQoS)]
			pt.ActualDeg = pt.ActualDeg[:len(pt.PredQoS)]
			pt.PredBound = pt.PredBound[:len(pt.PredQoS)]
			c.MachineGens[1].Table = &pt
		}, "table shape differs"},
	}
	for _, tc := range genCases {
		cfg := hetero()
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestHeterogeneousSim smoke-tests a mixed-generation fleet: the run
// completes, places work on both generations (machine generation is a pure
// function of the global id), and is bit-identical across worker counts.
func TestHeterogeneousSim(t *testing.T) {
	cfg := synthGenConfig(t, 60, 2, 7)
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer saveFailureTrace(t, cfg, events)
	res, err := RunSim(context.Background(), cfg, events, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed == 0 {
		t.Fatal("heterogeneous run placed nothing")
	}
	// Recover each placement's generation from the machine id and check
	// both generations took work.
	total := 0
	for _, g := range cfg.MachineGens {
		total += g.Count
	}
	placedByGen := make([]int, len(cfg.MachineGens))
	for _, p := range res.Log() {
		if p.Machine < 0 || p.Kind != 0 {
			continue
		}
		slot := int(p.Machine % int64(total))
		gen := 0
		if slot >= cfg.MachineGens[0].Count {
			gen = 1
		}
		placedByGen[gen]++
	}
	for gi, n := range placedByGen {
		if n == 0 {
			t.Errorf("generation %q received no placements", cfg.MachineGens[gi].Name)
		}
	}
	res8, err := RunSim(context.Background(), cfg, events, 8)
	if err != nil {
		t.Fatal(err)
	}
	if hashLog(res.Log()) != hashLog(res8.Log()) || res.Placed != res8.Placed {
		t.Error("heterogeneous run is not worker-count invariant")
	}
}

// TestAllocSpreadReducesViolations pins the Navarro-style allocation
// benchmark: on a fixed contention-heavy run, the load-spreading policy
// admits the same arrivals but lands them on wider-headroom machines, so it
// must produce strictly fewer measured SLO violations than the default
// greedy bestfit packing. The exact margin is not pinned — only the
// ordering, which is the claim the policy exists to make.
func TestAllocSpreadReducesViolations(t *testing.T) {
	base := synthSimConfig(t, 100, 2, 97)
	base.Workload.ArrivalRate = 3600
	base.Workload.MeanDuration = 0.05
	base.Workload.Churn = 0.05
	base.Policy = PolicySLO
	base.SLO = sloSimParams()
	events, err := GenerateEvents(base)
	if err != nil {
		t.Fatal(err)
	}
	run := func(alloc string) SimResult {
		cfg := base
		cfg.Alloc = alloc
		res, err := RunSim(context.Background(), cfg, events, 4)
		if err != nil {
			t.Fatalf("alloc %q: %v", alloc, err)
		}
		return res
	}
	greedy := run("bestfit")
	spread := run("spread")
	t.Logf("bestfit: placed=%d violations=%d; spread: placed=%d violations=%d",
		greedy.Placed, greedy.Violations, spread.Placed, spread.Violations)
	if greedy.Violations == 0 {
		t.Fatal("baseline run has no violations; benchmark is vacuous")
	}
	if spread.Violations >= greedy.Violations {
		t.Errorf("spread allocation (%d violations) does not beat greedy bestfit (%d)",
			spread.Violations, greedy.Violations)
	}
	// bestfit must be the literal default: explicit name and empty name
	// agree bit for bit.
	def := run("")
	if hashLog(def.Log()) != hashLog(greedy.Log()) {
		t.Error("explicit bestfit diverges from the default allocation")
	}
}

// inflateActual returns a copy of the table whose measured degradations
// are factor× the predicted world believes — systematic under-prediction,
// the same injection device the closed-loop drift tests use. Every
// admissible placement near the budget boundary then measures over it,
// giving the enforcement ladder violations to absorb.
func inflateActual(pt *PredTable, factor float64) *PredTable {
	q := *pt
	q.ActualDeg = make([]float64, len(pt.ActualDeg))
	for i, d := range pt.ActualDeg {
		q.ActualDeg[i] = d * factor
	}
	return &q
}

// goldenIsolConfig is the heterogeneous isolation run's configuration:
// goldenConfig's workload on a two-generation fleet whose interference
// is under-predicted 1.5×, so the ladder has violations to absorb.
func goldenIsolConfig(t *testing.T) SimConfig {
	cfg := synthGenConfig(t, 100, 2, 97)
	cfg.Workload.ArrivalRate = 3600
	cfg.Workload.MeanDuration = 0.05
	cfg.Workload.Churn = 0.05
	for i := range cfg.MachineGens {
		cfg.MachineGens[i].Table = inflateActual(cfg.MachineGens[i].Table, 1.5)
	}
	cfg.Policy = PolicyIsolation
	cfg.SLO = sloSimParams()
	return cfg
}

// TestGoldenIsolClusterSim pins the heterogeneous isolation run end to
// end: a 100-machine two-generation fleet with 1.5× under-predicted
// interference under PolicyIsolation, with the summary's isolation block
// (escalations, resolutions, migrations, tax) and the full placement log
// hashed into the fixture.
func TestGoldenIsolClusterSim(t *testing.T) {
	cfg := goldenIsolConfig(t)
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer saveFailureTrace(t, cfg, events)
	res, err := RunSim(context.Background(), cfg, events, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Isolations == 0 {
		t.Fatal("golden isolation run never escalated; fixture would pin a dead ladder")
	}
	checkGolden(t, "golden_isol.json", goldenOf(res))
}

// TestIsolationSummaryByteStable: marshalling the same isolation run's
// summary twice is byte-identical, and a replay of the same events
// reproduces those bytes — the contract `clustersim -summary-json`
// consumers rely on.
func TestIsolationSummaryByteStable(t *testing.T) {
	cfg := synthGenConfig(t, 40, 1, 11)
	cfg.Policy = PolicyIsolation
	cfg.SLO = sloSimParams()
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	marshal := func() []byte {
		res, err := RunSim(context.Background(), cfg, events, 3)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res.Summary())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := marshal(), marshal()
	if string(a) != string(b) {
		t.Errorf("summary JSON not byte-stable across replays:\n%s\n%s", a, b)
	}
}
