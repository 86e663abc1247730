// Package repro's root benchmark harness: the layer benchmarks (engine
// cycle loop, characterization, qosd, cluster simulator) and the two
// figure-level drivers the CI bench gate times, Table I and Figure 2, at
// TestScale. The other figures' TestScale results are pinned bit for bit
// by internal/experiments/testdata/testscale_*.json; cmd/figures -scale
// full regenerates the paper-scale numbers recorded in EXPERIMENTS.md.
//
// Macro-benchmarks take seconds per iteration; run with -benchtime=1x for
// a single pass:
//
//	go test -bench=. -benchmem -benchtime=1x .
package repro

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	clusterworkload "repro/internal/cluster/workload"
	"repro/internal/experiments"
	"repro/internal/isol"
	"repro/internal/profile"
	"repro/internal/qosd"
	"repro/internal/rulers"
	"repro/internal/sim/engine"
	"repro/internal/sim/isa"
	"repro/internal/slo"
	"repro/internal/workload"
	"repro/smite"
)

func newLab() *experiments.Lab { return experiments.NewLab(experiments.TestScale()) }

// skipMacroBench keeps `go test -short -bench .` fast: the figure-level
// macro benchmarks take seconds per iteration (Fig2FunctionalUnitSenCon
// sits at ~4.7 s/op), so short mode runs only the micro benchmarks. CI's
// bench job runs without -short and keeps the full gate.
func skipMacroBench(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("macro benchmark in short mode")
	}
}

// BenchmarkEngineHotLoop measures the raw engine cycle loop — the substrate
// every figure bottoms out in — on one SMT core, without the profiling
// layers. The memory-bound pair dominates real experiment wall-clock (long
// DRAM stalls), the compute-bound pair keeps the port scheduler honest, and
// the solo-idle case isolates the idle-skip fast path. ns/op is per
// Run(5000) window; the CI bench job gates on these numbers (see
// BENCH_baseline.json).
func BenchmarkEngineHotLoop(b *testing.B) {
	cases := []struct {
		name string
		a, p string // app and SMT partner ("" = solo)
	}{
		{"mem-bound-smt", "429.mcf", "470.lbm"},
		{"compute-bound-smt", "444.namd", "453.povray"},
		{"mem-bound-solo", "429.mcf", ""},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			cfg := isa.IvyBridge()
			cfg.Cores = 1
			chip := engine.MustNew(cfg)
			spec, err := workload.ByName(bc.a)
			if err != nil {
				b.Fatal(err)
			}
			chip.Assign(0, 0, workload.NewGen(spec, 1))
			if bc.p != "" {
				ps, err := workload.ByName(bc.p)
				if err != nil {
					b.Fatal(err)
				}
				chip.Assign(0, 1, workload.NewGen(ps, 2))
			}
			chip.Prewarm(60_000)
			chip.Run(10_000) // warm the pipeline before timing
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				chip.Run(5000)
			}
			b.StopTimer()
			if c := chip.Counters(0, 0); c.Instructions == 0 {
				b.Fatal("no forward progress")
			}
		})
	}
}

// BenchmarkEngineHotLoopIsolated is BenchmarkEngineHotLoop's mem-bound SMT
// pair with hardware QoS enforcement actually engaged: a half/half L3 way
// partition alone, then with a token-bucket throttle on the aggressor. The
// gate pins the cost of the enforcement mechanisms themselves; the
// disabled path needs no twin benchmark because a zero isol.Policy takes
// the exact pre-isolation code path, which EngineHotLoop already gates.
func BenchmarkEngineHotLoopIsolated(b *testing.B) {
	cases := []struct {
		name     string
		throttle bool
	}{
		{"ways-half", false},
		{"ways-half+throttle", true},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			cfg := isa.IvyBridge()
			cfg.Cores = 1
			v, a := isol.SplitWays(cfg.L3.Ways/2, cfg.L3.Ways)
			pol := isol.Policy{WayMasks: []uint64{v, a}}
			if bc.throttle {
				pol.MemBudgets = []isol.MemBudget{{}, {Tokens: 4, RefillCycles: 64}}
			}
			cfg.Isolation = pol
			chip := engine.MustNew(cfg)
			spec, err := workload.ByName("429.mcf")
			if err != nil {
				b.Fatal(err)
			}
			chip.Assign(0, 0, workload.NewGen(spec, 1))
			ps, err := workload.ByName("470.lbm")
			if err != nil {
				b.Fatal(err)
			}
			chip.Assign(0, 1, workload.NewGen(ps, 2))
			chip.Prewarm(60_000)
			chip.Run(10_000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				chip.Run(5000)
			}
			b.StopTimer()
			if c := chip.Counters(0, 0); c.Instructions == 0 {
				b.Fatal("no forward progress")
			}
		})
	}
}

// BenchmarkChipPrewarm measures functional warm-up on its own: the
// Prewarm of one characterization cell (FastOptions' PrewarmUops) running
// 429.mcf beside the L3 Ruler on a cold one-core Ivy Bridge chip. Every
// profile run pays it before its first timed cycle, and the engine's
// Mcycles/s numbers count timed cycles only. Reset and Assign run outside
// the timer, so one op is exactly one Prewarm from empty caches.
func BenchmarkChipPrewarm(b *testing.B) {
	cfg := isa.IvyBridge()
	cfg.Cores = 1
	spec, err := workload.ByName("429.mcf")
	if err != nil {
		b.Fatal(err)
	}
	ruler := rulers.For(cfg, rulers.DimL3)
	uops := profile.FastOptions().PrewarmUops
	chip := engine.MustNew(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		chip.Reset()
		chip.Assign(0, 0, workload.NewGen(spec, 1))
		chip.Assign(0, 1, ruler.NewStream(2))
		b.StartTimer()
		chip.Prewarm(uops)
	}
	b.StopTimer()
	if chip.L3().LineCount() == 0 {
		b.Fatal("prewarm installed nothing")
	}
}

// BenchmarkTable1MachineConfigs regenerates Table I (machine specifications).
func BenchmarkTable1MachineConfigs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := newLab()
		r := lab.Table1()
		if len(r.Machines) != 2 || r.String() == "" {
			b.Fatal("Table 1 incomplete")
		}
	}
}

// BenchmarkFig2FunctionalUnitSenCon regenerates Figure 2: per-application
// sensitivity/contentiousness on the functional-unit dimensions.
func BenchmarkFig2FunctionalUnitSenCon(b *testing.B) {
	skipMacroBench(b)
	for i := 0; i < b.N; i++ {
		lab := newLab()
		r, err := lab.Fig2FunctionalUnitsContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Chars) == 0 {
			b.Fatal("no characterizations")
		}
	}
}

// BenchmarkAblationStreamPrefetcher quantifies the stream-prefetcher design
// choice called out in DESIGN.md: the IPC of a sequential-stream workload
// with the prefetcher on versus off.
func BenchmarkAblationStreamPrefetcher(b *testing.B) {
	skipMacroBench(b)
	run := func(prefetch bool) float64 {
		cfg := isa.IvyBridge()
		cfg.Cores = 2
		cfg.StreamPrefetcher = prefetch
		spec, err := workload.ByName("470.lbm")
		if err != nil {
			b.Fatal(err)
		}
		res, err := profile.SoloContext(context.Background(), cfg, profile.App(spec), profile.FastOptions())
		if err != nil {
			b.Fatal(err)
		}
		return res.AppIPC
	}
	for i := 0; i < b.N; i++ {
		with, without := run(true), run(false)
		b.ReportMetric(with, "ipc-prefetch")
		b.ReportMetric(without, "ipc-noprefetch")
		if with <= without {
			b.Fatal("prefetcher should speed up streaming")
		}
	}
}

// BenchmarkAblationL3Replacement quantifies the L2/L3 random-replacement
// design choice: the co-location degradation cliff of a cache-resident app
// against a thrashing neighbour under LRU versus random replacement.
func BenchmarkAblationL3Replacement(b *testing.B) {
	skipMacroBench(b)
	measure := func(policy isa.ReplacementPolicy) float64 {
		cfg := isa.IvyBridge()
		cfg.Cores = 2
		cfg.L3.Policy = policy
		cfg.L2.Policy = policy
		a, err := workload.ByName("401.bzip2")
		if err != nil {
			b.Fatal(err)
		}
		bb, err := workload.ByName("483.xalancbmk")
		if err != nil {
			b.Fatal(err)
		}
		p := profile.NewProfiler(cfg, profile.FastOptions())
		pm, err := p.MeasurePairContext(context.Background(), a, bb, profile.SMT)
		if err != nil {
			b.Fatal(err)
		}
		return pm.DegA
	}
	for i := 0; i < b.N; i++ {
		lru, random := measure(isa.PolicyLRU), measure(isa.PolicyRandom)
		b.ReportMetric(lru*100, "deg-lru-%")
		b.ReportMetric(random*100, "deg-random-%")
	}
}

// BenchmarkCheckerOverhead measures the cost of the runtime invariant
// checker (internal/sim/check) on a representative SMT co-location run.
// Every other benchmark in this file runs checker-disabled — the unchecked
// fast path is a single nil comparison per cycle; the checked sub-benchmark
// documents what tests pay for continuous verification at the default
// interval. Target: within ~5% of the unchecked runtime.
func BenchmarkCheckerOverhead(b *testing.B) {
	cfg := isa.IvyBridge()
	cfg.Cores = 2
	mcf, err := workload.ByName("429.mcf")
	if err != nil {
		b.Fatal(err)
	}
	namd, err := workload.ByName("444.namd")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		check bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			opts := profile.FastOptions()
			opts.Check = mode.check
			for i := 0; i < b.N; i++ {
				res, err := profile.ColocateContext(context.Background(), cfg, profile.App(namd), profile.App(mcf), profile.SMT, opts)
				if err != nil {
					b.Fatal(err)
				}
				if res.AppIPC <= 0 {
					b.Fatal("no progress")
				}
			}
		})
	}
}

// BenchmarkTraceOverheadDisabled measures the engine hot loop through
// RunContext with observability disabled: background context, no sampler,
// no tracer. That is the exact path every simulation takes when the obs
// subsystem is off, so its ns/op must stay within noise of
// EngineHotLoop/mem-bound-smt (the same workload through plain Run) — the
// hooks are a nil comparison, not a cost. The CI bench job gates this
// number against BENCH_baseline.json.
func BenchmarkTraceOverheadDisabled(b *testing.B) {
	cfg := isa.IvyBridge()
	cfg.Cores = 1
	chip := engine.MustNew(cfg)
	spec, err := workload.ByName("429.mcf")
	if err != nil {
		b.Fatal(err)
	}
	chip.Assign(0, 0, workload.NewGen(spec, 1))
	partner, err := workload.ByName("470.lbm")
	if err != nil {
		b.Fatal(err)
	}
	chip.Assign(0, 1, workload.NewGen(partner, 2))
	chip.Prewarm(60_000)
	chip.Run(10_000)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := chip.RunContext(ctx, 5000); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if c := chip.Counters(0, 0); c.Instructions == 0 {
		b.Fatal("no forward progress")
	}
}

// BenchmarkQosdPredict measures the smited serving hot path as a
// scheduler client sees it: HTTP round-trip, JSON codec, registry
// snapshot and the Equation 3 answer, which after the first request comes
// from the generation-scoped prediction memo. One op is a burst of
// 256 keep-alive requests, so single-iteration CI runs (-benchtime 1x)
// still average over enough round-trips to gate on. The CI bench job
// compares ns/op against BENCH_baseline.json.
func BenchmarkQosdPredict(b *testing.B) {
	const burst = 256
	victim := smite.Characterization{App: "web-search", SoloIPC: 1.2}
	aggr := smite.Characterization{App: "429.mcf", SoloIPC: 0.5}
	var coef [smite.NumDimensions]float64
	for d := range victim.Sen {
		victim.Sen[d] = 0.05 * float64(d+1)
		aggr.Con[d] = 0.1 * float64(d+1)
		coef[d] = 0.2
	}
	reg := qosd.NewRegistry()
	reg.AddProfiles([]smite.Characterization{victim, aggr})
	reg.SetModel(smite.NewModel(coef, 0.01))
	ts := httptest.NewServer(qosd.NewServer(reg, qosd.Config{}).Handler())
	defer ts.Close()
	c := qosd.NewClient(ts.URL, ts.Client())
	ctx := context.Background()
	req := qosd.PredictRequest{Victim: "web-search", Aggressor: "429.mcf"}
	if _, err := c.Predict(ctx, req); err != nil {
		b.Fatal(err) // warm the connection and the prediction memo
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			if _, err := c.Predict(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkQosdPredictTraced is BenchmarkQosdPredict with per-request span
// tracing on (?trace=1 against an EnableTrace server): every request
// allocates a tracer, records the route and predict spans, and
// renders the Chrome trace for /debug/trace/last. The delta against
// QosdPredict is the full per-request cost of tracing; the CI bench job
// gates it against BENCH_baseline.json so the traced path cannot silently
// balloon.
func BenchmarkQosdPredictTraced(b *testing.B) {
	const burst = 256
	victim := smite.Characterization{App: "web-search", SoloIPC: 1.2}
	aggr := smite.Characterization{App: "429.mcf", SoloIPC: 0.5}
	var coef [smite.NumDimensions]float64
	for d := range victim.Sen {
		victim.Sen[d] = 0.05 * float64(d+1)
		aggr.Con[d] = 0.1 * float64(d+1)
		coef[d] = 0.2
	}
	reg := qosd.NewRegistry()
	reg.AddProfiles([]smite.Characterization{victim, aggr})
	reg.SetModel(smite.NewModel(coef, 0.01))
	ts := httptest.NewServer(qosd.NewServer(reg, qosd.Config{EnableTrace: true}).Handler())
	defer ts.Close()
	// Raw POSTs: the typed client has no query-parameter surface.
	url := ts.URL + "/v1/predict?trace=1"
	const body = `{"victim":"web-search","aggressor":"429.mcf"}`
	post := func() error {
		resp, err := ts.Client().Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("predict = %d", resp.StatusCode)
		}
		return nil
	}
	if err := post(); err != nil {
		b.Fatal(err) // warm the connection and the prediction memo
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			if err := post(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCharacterizeAllParallel measures the parallel characterization
// scheduler end to end through the public API: a fresh System (fresh
// simulation cache, so every cell genuinely simulates) characterizes four
// SPEC applications at worker counts 1 and 8. The flat-cell fan-out in
// internal/profile gives ~44 independent cells, so on a multi-core runner
// the workers-8 sub-benchmark should approach the core count's speedup
// over workers-1; on a single-core machine the two converge. The CI bench
// job gates ns/op of both against BENCH_baseline.json, catching both a
// slowdown of the simulation substrate and a scheduler regression that
// serializes the fan-out.
func BenchmarkCharacterizeAllParallel(b *testing.B) {
	skipMacroBench(b)
	var specs []*smite.Spec
	for _, n := range []string{"444.namd", "429.mcf", "453.povray", "470.lbm"} {
		s, err := workload.ByName(n)
		if err != nil {
			b.Fatal(err)
		}
		specs = append(specs, s)
	}
	// Sub-benchmark names must not end in "-<digits>": benchci strips a
	// trailing -N as the GOMAXPROCS suffix when normalizing names.
	for _, bc := range []struct {
		name    string
		workers int
	}{{"seq", 1}, {"par8", 8}} {
		workers := bc.workers
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := smite.FastOptions()
				opts.Parallelism = workers
				sys, err := smite.New(smite.IvyBridge.Config(), smite.WithOptions(opts))
				if err != nil {
					b.Fatal(err)
				}
				chars, err := sys.CharacterizeAllContext(context.Background(), specs, smite.SMT)
				if err != nil {
					b.Fatal(err)
				}
				if len(chars) != len(specs) {
					b.Fatalf("got %d characterizations, want %d", len(chars), len(specs))
				}
			}
		})
	}
}

// fitBenchSpecs resolves the two-application working set shared by the
// surrogate benchmarks and the speedup acceptance test.
func fitBenchSpecs(tb testing.TB) []*smite.Spec {
	tb.Helper()
	var specs []*smite.Spec
	for _, n := range []string{"444.namd", "429.mcf"} {
		s, err := workload.ByName(n)
		if err != nil {
			tb.Fatal(err)
		}
		specs = append(specs, s)
	}
	return specs
}

// TestSurrogateSpeedup pins the tentpole's acceptance figure: once a set
// is fitted (the one-time cost a profile store amortizes away), answering
// the same characterization + prediction queries from the surrogate must
// be at least 10x faster than the engine-only baseline. The real measured
// gap is many orders of magnitude (nanoseconds against seconds), so the
// 10x assert is lenient enough that CI scheduling noise cannot flip it.
func TestSurrogateSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("engine baseline characterization in short mode")
	}
	specs := fitBenchSpecs(t)
	sys, err := smite.New(smite.IvyBridge.Config(), smite.WithOptions(smite.FastOptions()))
	if err != nil {
		t.Fatal(err)
	}
	set, err := sys.Fit(context.Background(), specs, smite.SMT, smite.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var coef [smite.NumDimensions]float64
	for d := range coef {
		coef[d] = 0.2
	}
	m := smite.NewModel(coef, 0.01)

	// Engine-only baseline: a fresh System (cold caches) measures the full
	// characterization the decision path would otherwise need.
	start := time.Now()
	fresh, err := smite.New(smite.IvyBridge.Config(), smite.WithOptions(smite.FastOptions()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.CharacterizeAllContext(context.Background(), specs, smite.SMT); err != nil {
		t.Fatal(err)
	}
	engineTime := time.Since(start)

	const queries = 100
	start = time.Now()
	for i := 0; i < queries; i++ {
		if chars := set.Characterizations(); len(chars) != len(specs) {
			t.Fatalf("got %d characterizations, want %d", len(chars), len(specs))
		}
		if _, err := m.PredictSurrogate(set, "444.namd", "429.mcf"); err != nil {
			t.Fatal(err)
		}
	}
	surrogateTime := time.Since(start) / queries

	t.Logf("engine baseline %v, surrogate %v per query (%.0fx)",
		engineTime, surrogateTime, float64(engineTime)/float64(surrogateTime))
	if engineTime < 10*surrogateTime {
		t.Errorf("surrogate path is only %.1fx faster than the engine baseline (%v vs %v), want >= 10x",
			float64(engineTime)/float64(surrogateTime), surrogateTime, engineTime)
	}
}

// BenchmarkSurrogatePredict measures the surrogate tier's answer latency:
// a set is fitted once (setup, not timed) and then queried through the
// same Model.PredictSurrogate path qosd serves. The whole point of the
// tier is microsecond answers, so the CI bench job gates this tightly —
// the acceptance target is <10 µs/op.
func BenchmarkSurrogatePredict(b *testing.B) {
	specs := fitBenchSpecs(b)
	sys, err := smite.New(smite.IvyBridge.Config(), smite.WithOptions(smite.FastOptions()))
	if err != nil {
		b.Fatal(err)
	}
	set, err := sys.Fit(context.Background(), specs, smite.SMT, smite.FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var coef [smite.NumDimensions]float64
	for d := range coef {
		coef[d] = 0.2
	}
	m := smite.NewModel(coef, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred, err := m.PredictSurrogate(set, "444.namd", "429.mcf")
		if err != nil {
			b.Fatal(err)
		}
		if pred.Bound < 0 {
			b.Fatal("negative bound")
		}
	}
}

// BenchmarkCharacterizeBatched measures the batched fitter sweep end to
// end: one fresh System per iteration fits both applications across the
// standard intensity grid, so every (dimension, intensity) cell simulates
// through the per-worker batched engine path with amortized setup. Gated
// against BENCH_baseline.json alongside CharacterizeAllParallel, its
// unbatched single-intensity counterpart.
func BenchmarkCharacterizeBatched(b *testing.B) {
	skipMacroBench(b)
	specs := fitBenchSpecs(b)
	for i := 0; i < b.N; i++ {
		opts := smite.FastOptions()
		opts.Parallelism = 8
		sys, err := smite.New(smite.IvyBridge.Config(), smite.WithOptions(opts))
		if err != nil {
			b.Fatal(err)
		}
		set, err := sys.Fit(context.Background(), specs, smite.SMT, smite.FitOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(set.Models) != len(specs) {
			b.Fatalf("got %d models, want %d", len(set.Models), len(specs))
		}
	}
}

// clusterSimBench assembles a discrete-event cluster run on a synthetic
// co-location world: surrogate tier first, measured-table fallback, QoS
// surface precomputed once through the Predictor seam. Shared setup for
// the cluster-scale benchmarks below.
func clusterSimBench(b *testing.B, machines int, arrival float64) (cluster.SimConfig, [][]clusterworkload.Event) {
	b.Helper()
	const nLat, nBatch, maxInst = 3, 4, 6
	set, tbl, err := cluster.SyntheticWorld(nLat, nBatch, maxInst, 23)
	if err != nil {
		b.Fatal(err)
	}
	pred := cluster.NewTieredPredictor(
		&cluster.SurrogatePredictor{Set: set, Capacity: maxInst},
		&cluster.TablePredictor{Table: tbl},
	)
	pt, err := cluster.BuildPredTable(context.Background(), tbl, nil, cluster.QoSAvg, pred, 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := cluster.SimConfig{
		Workload: clusterworkload.Config{
			Machines: machines, Horizon: 1,
			Lats: nLat, Batches: nBatch, Seed: 23,
			ArrivalRate:  arrival,
			MeanDuration: 0.005,
			Diurnal:      0.4,
			BurstProb:    0.1, BurstFactor: 2.5,
			Drift: 0.2,
			Churn: 0.02,
		},
		Shards:            16,
		Policy:            cluster.PolicySMiTe,
		Target:            0.92,
		ThreadsPerServer:  6,
		ContextsPerServer: 12,
		Table:             pt,
	}
	events, err := cluster.GenerateEvents(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return cfg, events
}

// BenchmarkClusterSim10k is the warehouse-scale acceptance number as a
// gated benchmark: a 10k-machine fleet under temporal arrivals, churn and
// contention-aware placement, ~300k events per iteration fanned across
// all cores. events/sec is the headline custom metric; ns/op and
// allocs/op are gated by benchci against BENCH_baseline.json.
func BenchmarkClusterSim10k(b *testing.B) {
	cfg, events := clusterSimBench(b, 10_000, 150_000)
	b.ReportAllocs()
	b.ResetTimer()
	totalEvents := 0
	for i := 0; i < b.N; i++ {
		res, err := cluster.RunSim(context.Background(), cfg, events, 0)
		if err != nil {
			b.Fatal(err)
		}
		totalEvents += res.Events
	}
	b.StopTimer()
	b.ReportMetric(float64(totalEvents)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkClusterGenerateEvents is the event-generation stage of
// BenchmarkClusterSim10k on its own: the per-shard exogenous streams
// (arrivals, churn) for the same 10k-machine fleet, without running
// them. ns/op is the generator's share of a fresh cluster run.
func BenchmarkClusterGenerateEvents(b *testing.B) {
	cfg, _ := clusterSimBench(b, 10_000, 150_000)
	b.ReportAllocs()
	b.ResetTimer()
	totalEvents := 0
	for i := 0; i < b.N; i++ {
		shards, err := cluster.GenerateEvents(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range shards {
			totalEvents += len(s)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(totalEvents)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkClusterPlacementIncremental isolates the incremental placement
// path: a dense arrival stream on a small fleet, sequential execution, so
// ns/op tracks the per-decision cost of the occupancy-bucket admission
// scan rather than shard fan-out overheads.
func BenchmarkClusterPlacementIncremental(b *testing.B) {
	cfg, events := clusterSimBench(b, 200, 40_000)
	cfg.Workload.Churn = 0
	events, err := cluster.GenerateEvents(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	decisions := 0
	for i := 0; i < b.N; i++ {
		res, err := cluster.RunSim(context.Background(), cfg, events, 1)
		if err != nil {
			b.Fatal(err)
		}
		decisions += res.Arrived
	}
	b.StopTimer()
	b.ReportMetric(float64(decisions)/b.Elapsed().Seconds(), "decisions/sec")
}

// BenchmarkQosdAdmit measures the full /v1/admit round trip: the tiered
// prediction plus the Eq. 6 admission check and the saturation analyzer's
// bookkeeping, over a keep-alive connection in bursts of 256 like
// QosdPredict. The delta against QosdPredict is the per-decision cost of
// the SLO gate itself.
func BenchmarkQosdAdmit(b *testing.B) {
	const burst = 256
	victim := smite.Characterization{App: "web-search", SoloIPC: 1.2}
	aggr := smite.Characterization{App: "429.mcf", SoloIPC: 0.5}
	var coef [smite.NumDimensions]float64
	for d := range victim.Sen {
		victim.Sen[d] = 0.05 * float64(d+1)
		aggr.Con[d] = 0.1 * float64(d+1)
		coef[d] = 0.2
	}
	reg := qosd.NewRegistry()
	reg.AddProfiles([]smite.Characterization{victim, aggr})
	reg.SetModel(smite.NewModel(coef, 0.01))
	cfg := &qosd.SLOConfig{Classes: slo.DefaultSLOClasses(), Headroom: 0.1}
	ts := httptest.NewServer(qosd.NewServer(reg, qosd.Config{SLO: cfg}).Handler())
	defer ts.Close()
	c := qosd.NewClient(ts.URL, ts.Client())
	ctx := context.Background()
	req := qosd.AdmitRequest{
		Victim: "web-search", Aggressor: "429.mcf", Class: "standard",
		Queue: qosd.QueueSpec{Mu: 1000, Lambda: 600},
	}
	if _, err := c.Admit(ctx, req); err != nil {
		b.Fatal(err) // warm the connection and the prediction memo
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			if _, err := c.Admit(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkQosdPredictHandler is QosdPredict without the HTTP transport:
// each request runs Handler().ServeHTTP in process on a recorder, so the
// delta against QosdPredict is the loopback transport and client codec.
// The CI bench regex selects it through its QosdPredict substring.
func BenchmarkQosdPredictHandler(b *testing.B) {
	benchQosdHandler(b, qosd.Config{}, "/v1/predict", func(victim, aggressor string) string {
		return fmt.Sprintf(`{"victim":%q,"aggressor":%q}`, victim, aggressor)
	})
}

// BenchmarkQosdAdmitHandler is QosdAdmit without the HTTP transport, like
// QosdPredictHandler. The CI bench regex selects it through its QosdAdmit
// substring.
func BenchmarkQosdAdmitHandler(b *testing.B) {
	cfg := &qosd.SLOConfig{Classes: slo.DefaultSLOClasses(), Headroom: 0.1}
	benchQosdHandler(b, qosd.Config{SLO: cfg}, "/v1/admit", func(victim, aggressor string) string {
		return fmt.Sprintf(`{"victim":%q,"aggressor":%q,"class":"standard","queue":{"mu":1000,"lambda":600}}`,
			victim, aggressor)
	})
}

// benchQosdHandler serves bursts of 256 requests to path per op, in
// process. Requests cycle through every ordered pair of eight registered
// applications (56 pairs), and every 100th request re-uploads a profile,
// which bumps the registry generation and empties the prediction memo:
// each generation then sees 56 memo misses and 44 hits, so the timed path
// includes the Equation 3 evaluation and not only a hot memo hit.
func benchQosdHandler(b *testing.B, cfg qosd.Config, path string, body func(victim, aggressor string) string) {
	const burst, apps, bumpEvery = 256, 8, 100
	chars := make([]smite.Characterization, apps)
	for i := range chars {
		c := smite.Characterization{App: fmt.Sprintf("app-%d", i), SoloIPC: 0.5 + 0.1*float64(i)}
		for d := range c.Sen {
			c.Sen[d] = 0.01 * float64((i+d)%apps+1)
			c.Con[d] = 0.02 * float64((i*d)%apps+1)
		}
		chars[i] = c
	}
	var coef [smite.NumDimensions]float64
	for d := range coef {
		coef[d] = 0.2
	}
	reg := qosd.NewRegistry()
	reg.AddProfiles(chars)
	reg.SetModel(smite.NewModel(coef, 0.01))
	h := qosd.NewServer(reg, cfg).Handler()
	var bodies []string
	for _, v := range chars {
		for _, a := range chars {
			if v.App != a.App {
				bodies = append(bodies, body(v.App, a.App))
			}
		}
	}
	bump := chars[:1]
	n := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			if n%bumpEvery == 0 {
				reg.AddProfiles(bump)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(bodies[n%len(bodies)])))
			if rec.Code != http.StatusOK {
				b.Fatalf("%s = %d: %s", path, rec.Code, rec.Body)
			}
			n++
		}
	}
}

// BenchmarkClusterSimSLOPolicy is BenchmarkClusterSim10k under the SLO
// admission policy: the same 10k-machine fleet with placement gated by
// the precomputed per-cell admission surface instead of the QoS floor.
// The delta against ClusterSim10k is the cost of building the gate plus
// any per-decision difference in the placement scan.
func BenchmarkClusterSimSLOPolicy(b *testing.B) {
	cfg, events := clusterSimBench(b, 10_000, 150_000)
	cfg.Policy = cluster.PolicySLO
	cfg.SLO = &cluster.SLOSimParams{
		Classes: []cluster.SLOSimClass{
			{Name: "critical", Budget: 0.020, Percentile: 0.95, Mu: 1000, Lambda: 600},
			{Name: "standard", Budget: 0.060, Percentile: 0.95, Mu: 1000, Lambda: 600},
			{Name: "sheddable", Budget: 0.150, Percentile: 0.90, Mu: 1000, Lambda: 700},
		},
		Headroom: 0.1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	totalEvents := 0
	for i := 0; i < b.N; i++ {
		res, err := cluster.RunSim(context.Background(), cfg, events, 0)
		if err != nil {
			b.Fatal(err)
		}
		totalEvents += res.Events
	}
	b.StopTimer()
	b.ReportMetric(float64(totalEvents)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkClusterSimIsolation is the SLO-policy benchmark with the
// hardware enforcement ladder engaged: same 10k-machine fleet and event
// stream, PolicyIsolation with the stock four-level ladder. The gate pins
// the cost of the extra (gen, level) bucket dimensions and the
// escalate-before-migrate pass in the placement hot path.
func BenchmarkClusterSimIsolation(b *testing.B) {
	cfg, events := clusterSimBench(b, 10_000, 150_000)
	cfg.Policy = cluster.PolicyIsolation
	cfg.SLO = &cluster.SLOSimParams{
		Classes: []cluster.SLOSimClass{
			{Name: "critical", Budget: 0.020, Percentile: 0.95, Mu: 1000, Lambda: 600},
			{Name: "standard", Budget: 0.060, Percentile: 0.95, Mu: 1000, Lambda: 600},
			{Name: "sheddable", Budget: 0.150, Percentile: 0.90, Mu: 1000, Lambda: 700},
		},
		Headroom: 0.1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	totalEvents := 0
	for i := 0; i < b.N; i++ {
		res, err := cluster.RunSim(context.Background(), cfg, events, 0)
		if err != nil {
			b.Fatal(err)
		}
		totalEvents += res.Events
	}
	b.StopTimer()
	b.ReportMetric(float64(totalEvents)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkPredictorSeam measures the unified Predict seam end to end:
// one TieredPredictor.Predict call per (lat, batch, n) cell of a
// synthetic world, covering both the surrogate hit path (closed-form
// curves plus the certificate check) and the table fallback. ns/op is
// per full sweep; predictions/sec is the headline custom metric.
func BenchmarkPredictorSeam(b *testing.B) {
	const nLat, nBatch, maxInst = 4, 6, 6
	set, tbl, err := cluster.SyntheticWorld(nLat, nBatch, maxInst, 7)
	if err != nil {
		b.Fatal(err)
	}
	tiered := cluster.NewTieredPredictor(
		&cluster.SurrogatePredictor{Set: set, Capacity: maxInst},
		&cluster.TablePredictor{Table: tbl},
	)
	lats := make([]string, nLat)
	for i := range lats {
		lats[i] = fmt.Sprintf("latsvc-%02d", i)
	}
	batches := make([]string, nBatch)
	for i := range batches {
		batches[i] = fmt.Sprintf("batch-%02d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	calls := 0
	for i := 0; i < b.N; i++ {
		for _, lat := range lats {
			for _, batch := range batches {
				for n := 1; n <= maxInst; n++ {
					if _, err := tiered.Predict(lat, batch, n); err != nil {
						b.Fatal(err)
					}
					calls++
				}
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(calls)/b.Elapsed().Seconds(), "predictions/sec")
}

// BenchmarkBuildPredTable measures the prediction-table build every
// cluster run starts from, on the fleet workload's world shape (4 latency
// apps × 6 batch apps × 6 instances): one tiered Predict per cell plus its
// QoS reductions, sequential so ns/op is the per-table cost without
// fan-out overhead. cells/sec is the headline custom metric.
func BenchmarkBuildPredTable(b *testing.B) {
	const nLat, nBatch, maxInst = 4, 6, 6
	set, tbl, err := cluster.SyntheticWorld(nLat, nBatch, maxInst, 23)
	if err != nil {
		b.Fatal(err)
	}
	pred := cluster.NewTieredPredictor(
		&cluster.SurrogatePredictor{Set: set, Capacity: maxInst},
		&cluster.TablePredictor{Table: tbl},
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.BuildPredTable(context.Background(), tbl, nil, cluster.QoSAvg, pred, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*nLat*nBatch*maxInst)/b.Elapsed().Seconds(), "cells/sec")
}
