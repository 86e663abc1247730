package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	clworkload "repro/internal/cluster/workload"
)

// synthSimConfig assembles a runnable SimConfig on a synthetic world: the
// surrogate tier answers predictions first, the measured table is the
// fallback, and the QoS surface is precomputed through the Predictor seam.
func synthSimConfig(tb testing.TB, machines int, horizon float64, seed uint64) SimConfig {
	tb.Helper()
	const nLat, nBatch, maxInst = 3, 4, 6
	set, tbl, err := SyntheticWorld(nLat, nBatch, maxInst, seed)
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
	return SimConfig{
		Workload: clworkload.Config{
			Machines: machines, Horizon: horizon,
			Lats: nLat, Batches: nBatch, Seed: seed,
			ArrivalRate:  float64(machines) * 30,
			MeanDuration: 0.05,
			Diurnal:      0.4,
			BurstProb:    0.1, BurstFactor: 2.5,
			Drift: 0.2,
			Churn: 0.02,
		},
		Shards:            8,
		Policy:            PolicySMiTe,
		Target:            0.92,
		ThreadsPerServer:  6,
		ContextsPerServer: 12,
		Table:             pt,
	}
}

// saveFailureTrace records the failing run's trace under CLUSTER_TRACE_DIR
// (CI uploads the directory as an artifact) so the exact event stream that
// broke a law can be replayed locally.
func saveFailureTrace(tb testing.TB, cfg SimConfig, shards [][]clworkload.Event) {
	tb.Helper()
	dir := os.Getenv("CLUSTER_TRACE_DIR")
	if dir == "" || !tb.Failed() {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		tb.Logf("saving failure trace: %v", err)
		return
	}
	name := filepath.Join(dir, fmt.Sprintf("%s.trace", filepath.Base(tb.Name())))
	f, err := os.Create(name)
	if err != nil {
		tb.Logf("saving failure trace: %v", err)
		return
	}
	defer f.Close()
	if err := WriteTrace(f, cfg, shards); err != nil {
		tb.Logf("saving failure trace: %v", err)
		return
	}
	tb.Logf("failure trace saved to %s", name)
}

func TestSimSmoke(t *testing.T) {
	cfg := synthSimConfig(t, 60, 2, 7)
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer saveFailureTrace(t, cfg, events)
	res, err := RunSim(context.Background(), cfg, events, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrived == 0 || res.Arrived != res.Placed+res.Rejected {
		t.Errorf("job accounting broken: arrived %d, placed %d, rejected %d", res.Arrived, res.Placed, res.Rejected)
	}
	if res.Departed+res.Evicted > res.Placed {
		t.Errorf("more departures (%d) + evictions (%d) than placements (%d)", res.Departed, res.Evicted, res.Placed)
	}
	if res.Events < res.Arrived+res.Departed {
		t.Errorf("event count %d below arrivals %d + departures %d", res.Events, res.Arrived, res.Departed)
	}
	if res.MachinesStart != 60 {
		t.Errorf("initial fleet %d, want 60", res.MachinesStart)
	}
	if got := res.MachinesStart + res.MachineUps - res.MachineDowns; got != res.MachinesEnd {
		t.Errorf("fleet churn arithmetic: start %d + ups %d − downs %d != end %d",
			res.MachinesStart, res.MachineUps, res.MachineDowns, res.MachinesEnd)
	}
	if res.MeanUtilization <= res.BaselineUtilization || res.MeanUtilization > 1 {
		t.Errorf("mean utilisation %g outside (baseline %g, 1]", res.MeanUtilization, res.BaselineUtilization)
	}
	if res.PeakUtilization < res.MeanUtilization || res.PeakUtilization > 1 {
		t.Errorf("peak utilisation %g inconsistent with mean %g", res.PeakUtilization, res.MeanUtilization)
	}
	log := res.Log()
	if len(log) != res.Arrived {
		t.Errorf("placement log has %d entries for %d arrivals", len(log), res.Arrived)
	}
	for i := 1; i < len(log); i++ {
		a, b := log[i-1], log[i]
		if a.At > b.At || (a.At == b.At && a.Shard > b.Shard) {
			t.Fatalf("log out of (At, Shard, Seq) order at %d", i)
		}
	}
}

// TestGenerateEventsMatchesPerShard pins the parallel generator to its
// serial specification: every shard's stream equals a plain per-shard
// clworkload.Generate call, at one, a few and many shards.
func TestGenerateEventsMatchesPerShard(t *testing.T) {
	cfg := goldenConfig(t)
	for _, shards := range []int{1, 3, 16} {
		cfg.Shards = shards
		got, err := GenerateEvents(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]clworkload.Event, shards)
		for s := range want {
			if want[s], err = clworkload.Generate(cfg.Workload, s, shards); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d shards: parallel streams differ from per-shard Generate", shards)
		}
	}
}

// TestGenerateEventsExactSize pins the generator's single allocation: on
// a 2000-machine run it allocates at most 1.5 × 24 B per event, and every
// shard's stream keeps its capacity within 5% of its length.
func TestGenerateEventsExactSize(t *testing.T) {
	cfg := synthSimConfig(t, 2000, 2, 7)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	shards, err := GenerateEvents(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for s, ev := range shards {
		n += len(ev)
		if float64(cap(ev)) > 1.05*float64(len(ev)) {
			t.Errorf("shard %d: cap %d for %d events", s, cap(ev), len(ev))
		}
	}
	if perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(n); perEvent > 1.5*24 {
		t.Errorf("generation allocated %.1f B per event over %d events, want ≤ %g", perEvent, n, 1.5*24)
	}
}

// TestSimParallelismIndependence is the shard-fan-out law at package
// level (internal/simtest sweeps it over 20 seeds): the merged result is
// bit-identical at any worker count.
func TestSimParallelismIndependence(t *testing.T) {
	cfg := synthSimConfig(t, 48, 2, 11)
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer saveFailureTrace(t, cfg, events)
	base, err := RunSim(context.Background(), cfg, events, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := RunSim(context.Background(), cfg, events, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d diverged from sequential run", workers)
		}
	}
}

// TestSimOracleNeverViolates: the Oracle policy admits on the same
// measured QoS the violation check scores with, so it can never place
// into a violating occupancy.
func TestSimOracleNeverViolates(t *testing.T) {
	cfg := synthSimConfig(t, 48, 2, 13)
	cfg.Policy = PolicyOracle
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer saveFailureTrace(t, cfg, events)
	res, err := RunSim(context.Background(), cfg, events, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("Oracle produced %d violations", res.Violations)
	}
}

// TestSimTighterTargetPlacesLess checks the QoS floor steers admission:
// on the same events, a tighter target places fewer instances and does
// not raise utilisation.
func TestSimTighterTargetPlacesLess(t *testing.T) {
	cfg := synthSimConfig(t, 48, 2, 23)
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer saveFailureTrace(t, cfg, events)
	run := func(target float64) SimResult {
		c := cfg
		c.Target = target
		res, err := RunSim(context.Background(), c, events, 2)
		if err != nil {
			t.Fatalf("target %g: %v", target, err)
		}
		return res
	}
	loose, tight := run(0.85), run(0.97)
	if tight.Placed >= loose.Placed {
		t.Errorf("target 0.97 placed %d, not fewer than target 0.85's %d", tight.Placed, loose.Placed)
	}
	if tight.MeanUtilization > loose.MeanUtilization {
		t.Errorf("target 0.97 utilisation %g above target 0.85's %g", tight.MeanUtilization, loose.MeanUtilization)
	}
}

// TestSimPolicySpread: Random placement must violate more often than
// SMiTe on the same event stream, and SMiTe must track Oracle's
// utilisation — the fleet-level shape of the paper's Figures 14/15.
func TestSimPolicySpread(t *testing.T) {
	cfg := synthSimConfig(t, 80, 3, 17)
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer saveFailureTrace(t, cfg, events)
	byPolicy := map[PolicyKind]SimResult{}
	for _, pol := range []PolicyKind{PolicySMiTe, PolicyOracle, PolicyRandom} {
		c := cfg
		c.Policy = pol
		res, err := RunSim(context.Background(), c, events, 4)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		byPolicy[pol] = res
	}
	if sm, rd := byPolicy[PolicySMiTe], byPolicy[PolicyRandom]; sm.ViolationFrac >= rd.ViolationFrac {
		t.Errorf("SMiTe violation fraction %g not below Random's %g", sm.ViolationFrac, rd.ViolationFrac)
	}
	sm, or := byPolicy[PolicySMiTe], byPolicy[PolicyOracle]
	if sm.MeanUtilization < 0.9*or.MeanUtilization {
		t.Errorf("SMiTe utilisation %g lags Oracle's %g by more than 10%%", sm.MeanUtilization, or.MeanUtilization)
	}
}

func TestSimCancellation(t *testing.T) {
	cfg := synthSimConfig(t, 200, 50, 19)
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunSim(ctx, cfg, events, 2); err == nil {
		t.Fatal("cancelled run reported success")
	}
}

// TestSimWarehouseScale is the headline acceptance run: 10k machines,
// ≥1M placement/churn events, predictions through the surrogate tier,
// seconds of wall-clock — and the recorded trace replays bit-identically
// at parallelism 1 and 8.
func TestSimWarehouseScale(t *testing.T) {
	if testing.Short() {
		t.Skip("warehouse-scale simulation in short mode")
	}
	cfg := synthSimConfig(t, 10_000, 1, 23)
	cfg.Workload.ArrivalRate = 600_000
	cfg.Workload.MeanDuration = 0.005
	cfg.Shards = 16
	if raceEnabled {
		// The race detector slows the event loop several-fold; keep the
		// structure (10k machines, churn, drift) but an eighth of the load.
		cfg.Workload.ArrivalRate = 75_000
	}
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer saveFailureTrace(t, cfg, events)

	start := time.Now()
	res, err := RunSim(context.Background(), cfg, events, 0)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	t.Logf("10k machines: %d events in %v (%.0f events/sec), util %.1f%%→%.1f%%, violations %.2f%%",
		res.Events, elapsed, float64(res.Events)/elapsed.Seconds(),
		res.BaselineUtilization*100, res.MeanUtilization*100, res.ViolationFrac*100)
	if !raceEnabled {
		if res.Events < 1_000_000 {
			t.Errorf("only %d events simulated, want >= 1M", res.Events)
		}
		if elapsed > 30*time.Second {
			t.Errorf("run took %v, want under 30s", elapsed)
		}
	}

	// Record → replay → the placement log and every aggregate must match
	// bit for bit, at sequential and at 8-way parallel replay.
	var buf bytes.Buffer
	if err := WriteTrace(&buf, cfg, events); err != nil {
		t.Fatal(err)
	}
	rcfg, revents, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		replay, err := RunSim(context.Background(), rcfg, revents, workers)
		if err != nil {
			t.Fatalf("replay workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(res.Log(), replay.Log()) {
			t.Fatalf("replay workers=%d: placement log diverged", workers)
		}
		if !reflect.DeepEqual(res, replay) {
			t.Fatalf("replay workers=%d: result diverged", workers)
		}
	}
}

// sloSimParams returns SLO parameters sized for the synthetic world's
// queueing shape: a 400 req/s solo drain puts the solo p95 around 7.5 ms,
// so the class budgets leave real but finite room for degradation.
func sloSimParams() *SLOSimParams {
	return &SLOSimParams{
		Classes: []SLOSimClass{
			{Name: "critical", Budget: 0.020, Percentile: 0.95, Mu: 1000, Lambda: 600},
			{Name: "standard", Budget: 0.060, Percentile: 0.95, Mu: 1000, Lambda: 600},
			{Name: "sheddable", Budget: 0.150, Percentile: 0.90, Mu: 1000, Lambda: 700},
		},
		Headroom: 0.1,
	}
}

// TestSimSLOPolicy runs the SLO admission policy end to end and pins its
// core guarantees: determinism across worker counts, and — the admission
// contract — every placement lands on a cell whose error-bound-inflated
// Eq. 6 tail estimate fits the class's effective budget.
func TestSimSLOPolicy(t *testing.T) {
	cfg := synthSimConfig(t, 60, 1.5, 19)
	cfg.Policy = PolicySLO
	cfg.SLO = sloSimParams()
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer saveFailureTrace(t, cfg, events)

	seq, err := RunSim(context.Background(), cfg, events, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunSim(context.Background(), cfg, events, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("SLO policy diverges across worker counts")
	}
	if seq.Placed == 0 {
		t.Fatal("SLO policy placed nothing; budgets are mis-sized for the synthetic world")
	}

	// The admission contract: no placement on an inadmissible cell.
	gate, err := buildGate(cfg.Table, &cfg, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range seq.Log() {
		if p.Machine < 0 {
			continue
		}
		cell := cfg.Table.Cell(int(p.Lat), int(p.Batch), int(p.N))
		if !gate.admit[cell] {
			t.Fatalf("placement %+v landed on inadmissible cell %d (inflated tail over budget)", p, cell)
		}
	}

	// The comparison study: rerun the same streams under the greedy
	// QoS-floor policy, with violation accounting held identical (cfg.SLO
	// stays set). The SLO gate admits any co-location whose inflated tail
	// fits the budget — deliberately more permissive than the 0.92 QoS
	// floor — so it must place at least as much work, and its violations
	// stay bounded near the budget rather than exploding.
	greedy := cfg
	greedy.Policy = PolicySMiTe
	base, err := RunSim(context.Background(), greedy, events, 4)
	if err != nil {
		t.Fatal(err)
	}
	if base.Placed == 0 {
		t.Fatal("baseline placed nothing")
	}
	if seq.Placed < base.Placed {
		t.Errorf("SLO policy placed %d, fewer than greedy baseline %d", seq.Placed, base.Placed)
	}
	if seq.MeanUtilization < base.MeanUtilization {
		t.Errorf("SLO policy utilization %.4f below greedy baseline %.4f",
			seq.MeanUtilization, base.MeanUtilization)
	}
	if seq.ViolationFrac > 0.05 {
		t.Errorf("SLO policy violation frac %.4f; budgets should keep mispredictions rare", seq.ViolationFrac)
	}
}

// TestSimSLOValidation pins the configuration errors around the SLO gate.
func TestSimSLOValidation(t *testing.T) {
	cfg := synthSimConfig(t, 10, 1, 7)
	cfg.Policy = PolicySLO
	if err := cfg.Validate(); err == nil {
		t.Error("PolicySLO without SLO parameters accepted")
	}
	cfg.SLO = sloSimParams()
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid SLO config rejected: %v", err)
	}
	cfg.SLO.Classes[0].Budget = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative budget accepted")
	}
	cfg.SLO = sloSimParams()
	cfg.SLO.Headroom = 1
	if err := cfg.Validate(); err == nil {
		t.Error("headroom 1 accepted")
	}
	cfg.SLO = sloSimParams()
	cfg.SLO.Classes[0].Percentile = math.NaN()
	if err := cfg.Validate(); err == nil {
		t.Error("NaN percentile accepted")
	}
	cfg.SLO = sloSimParams()
	cfg.SLO.Classes[0].Mu = math.NaN()
	if err := cfg.Validate(); err == nil {
		t.Error("NaN service rate accepted")
	}
	// Legacy tables without the degradation surface cannot be SLO-gated.
	cfg.SLO = sloSimParams()
	cfg.Table = &PredTable{
		LatencyApps:  cfg.Table.LatencyApps,
		BatchApps:    cfg.Table.BatchApps,
		MaxInstances: cfg.Table.MaxInstances,
		QoS:          cfg.Table.QoS,
		PredQoS:      cfg.Table.PredQoS,
		ActualQoS:    cfg.Table.ActualQoS,
	}
	if err := cfg.Validate(); err == nil {
		t.Error("SLO run over a table without degradations accepted")
	}
}

// TestSimDegenerateWorlds pins the empty-world edge: zero machines (or a
// zero arrival rate) must simulate to an empty placement log — no
// spurious records, no errors — at any worker count.
func TestSimDegenerateWorlds(t *testing.T) {
	for _, tc := range []struct {
		name     string
		machines int
	}{
		{"zero machines", 0},
		{"machines but no arrivals", 25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := synthSimConfig(t, tc.machines, 1, 31)
			cfg.Workload.ArrivalRate = 0
			cfg.Workload.Churn = 0
			events, err := GenerateEvents(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, sh := range events {
				if len(sh) != 0 {
					t.Fatalf("degenerate world generated %d events in a shard", len(sh))
				}
			}
			for _, workers := range []int{1, 4} {
				res, err := RunSim(context.Background(), cfg, events, workers)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Log()) != 0 || res.Events != 0 || res.Placed != 0 || res.Rejected != 0 {
					t.Fatalf("degenerate world produced a non-empty run: %+v", res)
				}
				if res.MachinesStart != tc.machines || res.MachinesEnd != tc.machines {
					t.Fatalf("fleet %d -> %d, want %d unchanged", res.MachinesStart, res.MachinesEnd, tc.machines)
				}
			}
		})
	}
}

// TestValidateNonFinite: SimConfig.Validate rejects NaN and ±Inf in every
// float a cluster run reads with a *ConfigError naming the field's JSON
// path, and GenerateEvents fails on them instead of looping on a clock
// that never advances.
func TestValidateNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		field string
		mut   func(c *SimConfig)
	}{
		{"workload.horizon", func(c *SimConfig) { c.Workload.Horizon = nan }},
		{"workload.horizon", func(c *SimConfig) { c.Workload.Horizon = inf }},
		{"workload.arrival_rate", func(c *SimConfig) { c.Workload.ArrivalRate = nan }},
		{"workload.arrival_rate", func(c *SimConfig) { c.Workload.ArrivalRate = inf }},
		{"workload.mean_duration", func(c *SimConfig) { c.Workload.MeanDuration = inf }},
		{"workload.diurnal", func(c *SimConfig) { c.Workload.Diurnal = nan }},
		{"workload.churn", func(c *SimConfig) { c.Workload.Churn = nan }},
		{"workload.churn", func(c *SimConfig) { c.Workload.Churn = -inf }},
		{"target", func(c *SimConfig) { c.Target = nan }},
		{"drift.at", func(c *SimConfig) { c.Drift = &DriftSpec{At: inf, Factor: 2} }},
		{"drift.factor", func(c *SimConfig) { c.Drift = &DriftSpec{At: 0.5, Factor: nan} }},
		{"slo.headroom", func(c *SimConfig) { c.SLO.Headroom = nan }},
		{"slo.classes[1].mu", func(c *SimConfig) { c.SLO.Classes[1].Mu = nan }},
		{"slo.classes[2].lambda", func(c *SimConfig) { c.SLO.Classes[2].Lambda = inf }},
	}
	base := synthSimConfig(t, 20, 1, 5)
	for _, tc := range cases {
		cfg := base
		cfg.Policy, cfg.SLO = PolicySLO, sloSimParams()
		tc.mut(&cfg)
		var ce *ConfigError
		if err := cfg.Validate(); !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("%s: Validate = %v, want a *ConfigError on that field", tc.field, err)
		}
		if _, err := GenerateEvents(cfg); err == nil {
			t.Errorf("%s: GenerateEvents accepted the config", tc.field)
		}
	}
}
