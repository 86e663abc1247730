package cluster

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/service"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

// goldenRun pins a 100-machine, ~10k-event simulation end to end:
// the summary aggregates, the placement-log length, a hash of every log
// entry, and the first placements verbatim. Any change to the workload
// generator, the event loop, the placement policy or the merge order
// shows up as a fixture diff; regenerate deliberately with -update.
type goldenRun struct {
	Summary Summary     `json:"summary"`
	LogLen  int         `json:"log_len"`
	LogHash uint64      `json:"log_hash"`
	Head    []Placement `json:"head"`
}

func goldenConfig(t *testing.T) SimConfig {
	cfg := synthSimConfig(t, 100, 2, 97)
	cfg.Workload.ArrivalRate = 3600
	cfg.Workload.MeanDuration = 0.05
	cfg.Workload.Churn = 0.05
	return cfg
}

func hashLog(log []Placement) uint64 {
	h := fnv.New64a()
	for _, p := range log {
		fmt.Fprintf(h, "%g|%d|%d|%d|%d|%d|%d\n", p.At, p.Shard, p.Seq, p.Machine, p.Lat, p.Batch, p.N)
	}
	return h.Sum64()
}

func TestGoldenClusterSim(t *testing.T) {
	cfg := goldenConfig(t)
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer saveFailureTrace(t, cfg, events)
	res, err := RunSim(context.Background(), cfg, events, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events < 9_000 || res.Events > 20_000 {
		t.Fatalf("golden run drifted to %d events, want ~10k", res.Events)
	}
	checkGolden(t, "golden_cluster.json", goldenOf(res))
}

// goldenOf reduces a run to its pinned form: summary, log length, log
// hash and the first five placements.
func goldenOf(res SimResult) goldenRun {
	log := res.Log()
	return goldenRun{
		Summary: res.Summary(),
		LogLen:  len(log),
		LogHash: hashLog(log),
		Head:    log[:min(5, len(log))],
	}
}

// checkGolden compares got against the named fixture, or rewrites the
// fixture under -update.
func checkGolden[T any](t *testing.T, name string, got T) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	var want T
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		gj, _ := json.MarshalIndent(got, "", "  ")
		t.Errorf("golden mismatch (run with -update if intentional):\ngot %s", gj)
	}
}

// TestGoldenSLOClusterSim pins the SLO-gated policy end to end the same
// way: summary (including the saturation block), log length, and log hash
// over a seeded run.
func TestGoldenSLOClusterSim(t *testing.T) {
	cfg := goldenConfig(t)
	cfg.Policy = PolicySLO
	cfg.SLO = sloSimParams()
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer saveFailureTrace(t, cfg, events)
	res, err := RunSim(context.Background(), cfg, events, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_cluster_slo.json", goldenOf(res))
}

// TestGoldenClosedLoopClusterSim pins the closed loop end to end: the
// same seeded run under injected drift, with the summary's closed-loop
// block (detections, re-characterizations, migrations) and the placement
// log — migrate entries included — hashed into the fixture.
func TestGoldenClosedLoopClusterSim(t *testing.T) {
	cfg := goldenConfig(t)
	cfg.Policy = PolicyClosedLoop
	cfg.SLO = sloSimParams()
	cfg.Drift = &DriftSpec{At: cfg.Workload.Horizon / 3, Factor: 3}
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
		t.Fatal("golden closed-loop run confirmed no drift; fixture would pin a dead loop")
	}
	checkGolden(t, "golden_cluster_closedloop.json", goldenOf(res))
}

// TestGoldenDegenerateSim pins the empty-trace edge as a fixture: a world
// with no machines and no arrivals must reduce to a zeroed summary and an
// empty placement log, byte for byte.
func TestGoldenDegenerateSim(t *testing.T) {
	cfg := synthSimConfig(t, 0, 1, 53)
	cfg.Workload.ArrivalRate = 0
	cfg.Workload.Churn = 0
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSim(context.Background(), cfg, events, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_cluster_degenerate.json", goldenOf(res))
}

// TestGoldenPolicies pins the placement logs of the policies and
// allocation scorers no other fixture covers — Oracle and Random on the
// QoS floor, and the non-default allocation policies under the SLO gate —
// on goldenConfig's workload, one fixture entry per case.
func TestGoldenPolicies(t *testing.T) {
	cases := []struct {
		name   string
		policy PolicyKind
		alloc  string
	}{
		{"oracle", PolicyOracle, ""},
		{"random", PolicyRandom, ""},
		{"slo-firstfit", PolicySLO, "firstfit"},
		{"slo-spread", PolicySLO, "spread"},
		{"slo-minload", PolicySLO, "minload"},
		{"slo-mindeg", PolicySLO, "mindeg"},
	}
	base := goldenConfig(t)
	events, err := GenerateEvents(base)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]goldenRun, len(cases))
	for _, c := range cases {
		cfg := base
		cfg.Policy = c.policy
		cfg.Alloc = c.alloc
		if c.policy == PolicySLO {
			cfg.SLO = sloSimParams()
		}
		res, err := RunSim(context.Background(), cfg, events, 4)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = goldenOf(res)
	}
	checkGolden(t, "golden_policies.json", got)
}

// TestGoldenStudy pins the static scale-out study (Figures 14–17's
// machinery) over synthetic worlds: every seed × prediction source × QoS
// definition × target × policy cell's full Result. The other study tests
// only check inequalities; this one makes any change to admission,
// dealing or scoring a fixture diff.
func TestGoldenStudy(t *testing.T) {
	const nLat, nBatch, maxInst = 5, 7, 6
	got := make(map[string]Result)
	for _, seed := range []uint64{3, 11, 29} {
		set, tbl, err := SyntheticWorld(nLat, nBatch, maxInst, seed)
		if err != nil {
			t.Fatal(err)
		}
		services := make(map[string]service.Service, nLat)
		for i, lat := range tbl.LatencyApps {
			services[lat] = service.Service{Name: lat, Mu: 1000, Lambda: 300 + 60*float64(i), QoSPercentile: 0.9, ReportsPercentile: true}
		}
		preds := []struct {
			name string
			pred Predictor
		}{
			{"table", nil},
			{"tiered", NewTieredPredictor(&SurrogatePredictor{Set: set, Capacity: maxInst}, &TablePredictor{Table: tbl})},
		}
		for _, p := range preds {
			for _, qos := range []QoSKind{QoSAvg, QoSTail} {
				pt, err := BuildPredTable(context.Background(), tbl, services, qos, p.pred, 1)
				if err != nil {
					t.Fatal(err)
				}
				s := &Study{
					Table:         pt,
					ServersPerApp: 60, ThreadsPerServer: 6, ContextsPerServer: 12, Seed: seed,
				}
				for _, target := range []float64{0.95, 0.90, 0.85} {
					for _, pol := range []PolicyKind{PolicySMiTe, PolicyOracle, PolicyRandom} {
						r, err := s.Run(pol, target)
						if err != nil {
							t.Fatalf("seed %d %s %v %.2f %v: %v", seed, p.name, qos, target, pol, err)
						}
						got[fmt.Sprintf("seed%d/%s/%v/%.2f/%v", seed, p.name, qos, target, pol)] = r
					}
				}
			}
		}
	}
	checkGolden(t, "golden_study.json", got)
}

// TestGoldenGates pins the admission, scoring and violation-accounting
// paths the other fixtures leave open: QoS-floor policies under SLO
// accounting, every policy family under injected drift, the QoS-floor
// and SLO gates on a heterogeneous fleet, and legacy tables without a
// degradation surface — one fixture entry per case, on goldenConfig's
// workload.
func TestGoldenGates(t *testing.T) {
	drift := func(factor float64, batches ...int) *DriftSpec {
		return &DriftSpec{At: 2.0 / 3, Factor: factor, Batches: batches}
	}
	legacy := func(cfg *SimConfig) {
		lt := *cfg.Table
		lt.PredDeg, lt.ActualDeg, lt.PredBound = nil, nil, nil
		cfg.Table = &lt
	}
	cases := []struct {
		name   string
		gens   bool
		policy PolicyKind
		slo    bool
		drift  *DriftSpec
		alloc  string
		legacy bool
	}{
		{name: "smite-slo", policy: PolicySMiTe, slo: true},
		{name: "random-slo-drift", policy: PolicyRandom, slo: true, drift: drift(3, 0, 2)},
		{name: "smite-drift", policy: PolicySMiTe, drift: drift(3, 1)},
		{name: "oracle-drift", policy: PolicyOracle, drift: drift(0.5)},
		{name: "slo-drift", policy: PolicySLO, slo: true, drift: drift(3)},
		{name: "closedloop-drift", policy: PolicyClosedLoop, slo: true, drift: drift(3, 0, 2)},
		{name: "gens-oracle", gens: true, policy: PolicyOracle},
		{name: "gens-slo-spread", gens: true, policy: PolicySLO, slo: true, alloc: "spread"},
		{name: "gens-isolation-mindeg", gens: true, policy: PolicyIsolation, slo: true, alloc: "mindeg"},
		{name: "legacy-smite-mindeg", policy: PolicySMiTe, alloc: "mindeg", legacy: true},
		{name: "legacy-smite-drift", policy: PolicySMiTe, drift: drift(3), legacy: true},
	}
	got := make(map[string]goldenRun, len(cases))
	for _, c := range cases {
		cfg := goldenConfig(t)
		if c.gens {
			cfg = synthGenConfig(t, 100, 2, 97)
			cfg.Workload.ArrivalRate = 3600
			cfg.Workload.MeanDuration = 0.05
			cfg.Workload.Churn = 0.05
		}
		cfg.Policy, cfg.Drift, cfg.Alloc = c.policy, c.drift, c.alloc
		if c.slo {
			cfg.SLO = sloSimParams()
		}
		if c.legacy {
			legacy(&cfg)
		}
		events, err := GenerateEvents(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := RunSim(context.Background(), cfg, events, 4)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = goldenOf(res)
	}
	checkGolden(t, "golden_gates.json", got)
}
