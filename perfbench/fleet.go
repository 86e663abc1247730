package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/cluster"
	clworkload "repro/internal/cluster/workload"
	"repro/internal/obs/trace"
	"repro/internal/sim/isa"
)

// fleetInputs is everything the fleet workload hands the program: the
// workload shape, the synthetic world, the SLO classes, the drift and the
// machine-generation mix.
type fleetInputs struct {
	Workload  clworkload.Config    `json:"workload"`
	Shards    int                  `json:"shards"`
	Target    float64              `json:"target"`
	Threads   int                  `json:"threads"`
	Contexts  int                  `json:"contexts"`
	WorldSeed uint64               `json:"world_seed"`
	SLO       cluster.SLOSimParams `json:"slo"`
	Drift     cluster.DriftSpec    `json:"drift"`
	Gens      []fleetGen           `json:"gens"`
}

// fleetGen is one machine generation of the isolation stage's fleet.
type fleetGen struct {
	Name     string `json:"name"`
	Count    int    `json:"count"`
	Threads  int    `json:"threads"`
	Contexts int    `json:"contexts"`
}

// fleetWorldSeed fixes the synthetic application universe (its
// degradation surfaces), as characterize fixes its applications: the run
// seed varies the event streams, not the hardware-and-application world,
// whose draw alone would swing the utilisation gain by a third.
const fleetWorldSeed = 23

func fleetInputsFor(seed uint64, small bool) (fleetInputs, error) {
	in := fleetInputs{
		Workload: clworkload.Config{
			Machines: 10_000, Horizon: 1,
			Lats: 4, Batches: 6, Seed: mix64(seed, 0xF1EE),
			ArrivalRate:  800_000,
			MeanDuration: 0.03,
			Diurnal:      0.4,
			BurstProb:    0.1, BurstFactor: 2.5,
			Drift: 0.2,
			Churn: 0.02,
		},
		Shards:    16,
		Target:    0.92,
		Threads:   6,
		Contexts:  12,
		WorldSeed: fleetWorldSeed,
		SLO: cluster.SLOSimParams{
			Classes: []cluster.SLOSimClass{
				{Name: "critical", Budget: 0.020, Percentile: 0.95, Mu: 1000, Lambda: 600},
				{Name: "standard", Budget: 0.060, Percentile: 0.95, Mu: 1000, Lambda: 600},
				{Name: "sheddable", Budget: 0.150, Percentile: 0.90, Mu: 1000, Lambda: 700},
			},
			Headroom: 0,
		},
		Drift: cluster.DriftSpec{At: 0.3, Factor: 3},
	}
	if small {
		in.Workload.Machines = 400
		in.Workload.ArrivalRate = 20_000
	}
	for _, g := range []struct {
		name  string
		count int
	}{{"snb", 3}, {"ivb", 2}} {
		cfg, err := isa.MachineGenByName(g.name)
		if err != nil {
			return in, err
		}
		in.Gens = append(in.Gens, fleetGen{Name: g.name, Count: g.count, Threads: cfg.Cores, Contexts: cfg.Contexts()})
	}
	return in, nil
}

// predTable builds one generation's QoS surface through the serving seam:
// surrogate curves first, the seeded measured table as fallback. An empty
// generation name is the homogeneous world.
func (in fleetInputs) predTable(ctx context.Context, gen string, maxInst, workers int) (*cluster.PredTable, error) {
	set, tbl, err := cluster.SyntheticGenWorld(gen, in.Workload.Lats, in.Workload.Batches, maxInst, in.WorldSeed)
	if gen == "" {
		set, tbl, err = cluster.SyntheticWorld(in.Workload.Lats, in.Workload.Batches, maxInst, in.WorldSeed)
	}
	if err != nil {
		return nil, err
	}
	pred := cluster.NewTieredPredictor(
		&cluster.SurrogatePredictor{Set: set, Capacity: maxInst},
		&cluster.TablePredictor{Table: tbl},
	)
	return cluster.BuildPredTable(ctx, tbl, nil, cluster.QoSAvg, pred, workers)
}

// fleetStages are the RunSim stages, in pipeline order.
var fleetStages = []string{"smite", "slo", "closedloop", "isolation"}

// stageConfigs assembles the four stage configurations over the built
// tables: tables[0] is the homogeneous world, tables[1:] the generations.
func (in fleetInputs) stageConfigs(tables []*cluster.PredTable) map[string]cluster.SimConfig {
	base := cluster.SimConfig{
		Workload:          in.Workload,
		Shards:            in.Shards,
		Policy:            cluster.PolicySMiTe,
		Target:            in.Target,
		ThreadsPerServer:  in.Threads,
		ContextsPerServer: in.Contexts,
		Table:             tables[0],
	}
	slo := in.SLO
	drift := in.Drift
	out := map[string]cluster.SimConfig{"smite": base}
	// The static SLO gate and the closed loop face the same drift, so
	// their violation rates compare like for like.
	c := base
	c.Policy, c.SLO, c.Drift = cluster.PolicySLO, &slo, &drift
	out["slo"] = c
	c.Policy = cluster.PolicyClosedLoop
	out["closedloop"] = c
	c = base
	c.Policy, c.SLO, c.Table = cluster.PolicyIsolation, &slo, nil
	c.Isol = &cluster.IsolSimParams{}
	for i, g := range in.Gens {
		c.MachineGens = append(c.MachineGens, cluster.MachineGenSpec{
			Name: g.Name, Count: g.Count, Threads: g.Threads, Contexts: g.Contexts, Table: tables[i+1],
		})
	}
	out["isolation"] = c
	return out
}

// tableDepths returns the batch-instance depth of each table: the
// homogeneous world's idle contexts, then one shared depth for the
// generations that fits the tightest one.
func (in fleetInputs) tableDepths() []int {
	depth := in.Contexts - in.Threads
	for _, g := range in.Gens {
		depth = min(depth, g.Contexts-g.Threads)
	}
	out := []int{in.Contexts - in.Threads}
	for range in.Gens {
		out = append(out, depth)
	}
	return out
}

// fleetPass is one pipeline pass's outputs.
type fleetPass struct {
	wall      time.Duration
	generate  time.Duration
	predtable time.Duration
	events    int
	runsim    map[string]time.Duration
	allocs    map[string]float64 // per event, only when measured
	summaries map[string]cluster.Summary
	configs   map[string]cluster.SimConfig
	shards    [][]clworkload.Event
}

// fleetOnce is the timed pipeline: generate the events, build every
// generation's table, then replay the events under each stage's policy.
// Each step is one stage span under a fleet.iteration span.
func fleetOnce(ctx context.Context, r *runner, in fleetInputs, countAllocs bool) (fleetPass, error) {
	t0 := time.Now()
	ctx, it := trace.Start(ctx, "fleet.iteration")
	defer it.End()
	p := fleetPass{runsim: map[string]time.Duration{}, allocs: map[string]float64{}, summaries: map[string]cluster.Summary{}}

	depths := in.tableDepths()
	sctx, sp := trace.Start(ctx, "stage.predtable")
	t := time.Now()
	var tables []*cluster.PredTable
	for i, gen := range append([]string{""}, genNames(in.Gens)...) {
		pt, err := in.predTable(sctx, gen, depths[i], r.workers)
		if err != nil {
			sp.End()
			return p, fmt.Errorf("building the %q table: %w", gen, err)
		}
		tables = append(tables, pt)
	}
	p.predtable = time.Since(t)
	sp.End()
	p.configs = in.stageConfigs(tables)

	// The event streams depend only on the workload, so any stage's
	// configuration generates them.
	_, sp = trace.Start(ctx, "stage.generate")
	t = time.Now()
	shards, err := cluster.GenerateEvents(p.configs["smite"])
	p.generate = time.Since(t)
	sp.End()
	if err != nil {
		return p, fmt.Errorf("generating events: %w", err)
	}
	p.shards = shards
	for _, s := range shards {
		p.events += len(s)
	}

	for _, stage := range fleetStages {
		sctx, sp := trace.Start(ctx, "stage.runsim."+stage)
		var before runtimeMem
		if countAllocs {
			before.read()
		}
		t := time.Now()
		res, err := cluster.RunSim(sctx, p.configs[stage], shards, r.workers)
		p.runsim[stage] = time.Since(t)
		sp.End()
		if err != nil {
			return p, fmt.Errorf("stage %s: %w", stage, err)
		}
		if countAllocs {
			var after runtimeMem
			after.read()
			p.allocs[stage] = float64(after.mallocs-before.mallocs) / float64(res.Events)
		}
		p.summaries[stage] = res.Summary()
		checkSummary(r, stage, res)
	}
	p.wall = time.Since(t0)
	return p, nil
}

func genNames(gs []fleetGen) []string {
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = g.Name
	}
	return out
}

// checkSummary is the fleet output check: a stage's summary conserves
// arrivals (placed + rejected = arrived), never counts more violations
// than placements, and processed events.
func checkSummary(r *runner, stage string, res cluster.SimResult) {
	s := res.Summary()
	e := s.Events
	r.ops.check(e.Placed+e.Rejected == e.Arrived && s.SLO.Violations <= e.Placed && e.Total > 0 && e.Arrived > 0,
		"stage %s: placed %d + rejected %d != arrived %d, or violations %d > placed", stage, e.Placed, e.Rejected, e.Arrived, s.SLO.Violations)
}

func runFleet(ctx context.Context, r *runner) error {
	var in fleetInputs
	setup, err := timeSetup(func() error {
		var err error
		in, err = fleetInputsFor(r.opts.seed, r.opts.small)
		return err
	})
	if err != nil {
		return err
	}
	r.set("setup_s", setup)

	heap := startHeapPeak()
	rates := map[string][]float64{}
	var first fleetPass
	err = r.timePasses(func(pass int) error {
		p, err := fleetOnce(ctx, r, in, false)
		if err != nil {
			return err
		}
		for _, stage := range fleetStages {
			rates[stage] = append(rates[stage], float64(p.summaries[stage].Events.Total)/p.runsim[stage].Seconds())
		}
		p.shards = nil
		if pass == 0 {
			first = p
		}
		// The same events under the same policies must give the same
		// summaries on every pass.
		r.ops.check(reflect.DeepEqual(p.summaries, first.summaries), "pass %d: summaries differ from the first pass", pass+1)
		return nil
	})
	r.set("heap_mb", heap.Stop())
	if err != nil {
		return err
	}
	for _, stage := range fleetStages {
		r.note("events_per_s."+stage, median(rates[stage]))
	}
	gain, violation := fleetOutcome(first.summaries)
	r.note("util_gain_pct", gain)
	r.note("violation_pct", violation)
	r.note("events", first.events)
	return nil
}

// fleetOutcome is what the fleet's operator gets, in percent: the smite
// stage's mean utilisation over the no-co-location baseline, minus one,
// and the slo stage's SLO violation fraction.
func fleetOutcome(summaries map[string]cluster.Summary) (utilGain, violation float64) {
	u := summaries["smite"].Utilization
	return 100 * (u.Mean - u.Baseline) / u.Baseline, 100 * summaries["slo"].SLO.ViolationFrac
}

// fleetLayers is fleet's share of the traced run: after a warm-up pass,
// the pipeline once untraced and once traced, then RunSim at one worker.
func fleetLayers(ctx context.Context, r *runner) error {
	in, err := fleetInputsFor(r.opts.seed, r.opts.small)
	if err != nil {
		return err
	}
	var untraced fleetPass
	for i := 0; i < 2; i++ {
		runtime.GC()
		if untraced, err = fleetOnce(ctx, r, in, false); err != nil {
			return err
		}
	}
	tctx := r.tracedCtx(ctx)
	runtime.GC()
	traced, err := fleetOnce(tctx, r, in, true)
	if err != nil {
		return err
	}
	r.set("trace.overhead_s.fleet", (traced.wall - untraced.wall).Seconds())
	share, ok := stageShare(r.tracer.Spans(), "fleet.iteration")
	r.set("trace.stage_sum_share.fleet", share)
	r.set("trace.stage_sum_ok.fleet", boolMetric(ok))
	r.set("cluster.generate_s", traced.generate.Seconds())
	r.set("cluster.events", float64(traced.events))
	r.set("cluster.predtable_ms", traced.predtable.Seconds()*1e3)
	for _, stage := range fleetStages {
		r.set("cluster.runsim_s."+stage, traced.runsim[stage].Seconds())
		r.set("cluster.allocs_per_event."+stage, traced.allocs[stage])
	}
	iso := traced.summaries["isolation"].Isolation
	r.set("cluster.isolation_escalations", float64(iso.Escalations))
	r.set("cluster.isolation_resolved", float64(iso.Resolved))
	gain, violation := fleetOutcome(traced.summaries)
	r.set("cluster.util_gain_pct", gain)
	r.set("cluster.violation_pct", violation)

	// Parallel speedup: the smite stage at one worker against the
	// untraced pass at nproc workers; the summaries must agree.
	_, sp := trace.Start(tctx, "layer.cluster.runsim_1worker")
	t := time.Now()
	res, err := cluster.RunSim(ctx, untraced.configs["smite"], untraced.shards, 1)
	one := time.Since(t)
	sp.End()
	if err != nil {
		return err
	}
	r.ops.check(reflect.DeepEqual(res.Summary(), untraced.summaries["smite"]), "RunSim at 1 worker gives a different summary than at %d", r.workers)
	r.set("cluster.parallel_speedup", one.Seconds()/untraced.runsim["smite"].Seconds())
	r.ops.check(reflect.DeepEqual(traced.summaries, untraced.summaries), "traced pass summaries differ from the untraced pass")
	r.note("fleet.untraced_wall_s", untraced.wall.Seconds())
	r.note("fleet.traced_wall_s", traced.wall.Seconds())
	return nil
}
