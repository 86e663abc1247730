package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	clworkload "repro/internal/cluster/workload"
	"repro/internal/isol"
	"repro/internal/sim/isa"
	"repro/internal/slo"
	"repro/internal/surrogate"
)

// FlagError reports a flag value that fails validation. main exits 2 on
// any error; tests assert the flag name through errors.As, so validation
// failures stay distinguishable from runtime ones.
type FlagError struct {
	Flag   string
	Value  string
	Reason string
}

func (e *FlagError) Error() string {
	return fmt.Sprintf("invalid -%s value %q: %s", e.Flag, e.Value, e.Reason)
}

// simFlags holds the discrete-event mode's flags. Flags whose type
// matches a SimConfig field bind straight into cfg; config resolves the
// rest — the -policy, -slo-classes, -machine-mix and -isol grammars and
// the -slo-mu/-slo-lambda rates every class shares — and leaves every
// range rule to SimConfig.Validate.
type simFlags struct {
	fs    *flag.FlagSet
	cfg   cluster.SimConfig
	slo   cluster.SLOSimParams
	drift cluster.DriftSpec

	policy, sloClasses, machineMix, isolSpec string
	sloMu, sloLambda                         float64
	parallelism                              int
	traceOut, replay, summaryJSON            string
}

// Synthetic-world geometry for -sim runs: a 12-context, 6-thread server
// (the study's Sandy Bridge-EN shape) whose idle contexts take up to 6
// batch instances, over a 4×6 application population.
const (
	simLats     = 4
	simBatches  = 6
	simThreads  = 6
	simContexts = 12
)

// bindSimFlags registers the discrete-event mode's flags on fs.
func bindSimFlags(fs *flag.FlagSet) *simFlags {
	f := &simFlags{fs: fs, cfg: cluster.SimConfig{
		Workload: clworkload.Config{
			Lats: simLats, Batches: simBatches,
			MeanDuration: 0.05,
			Diurnal:      0.4,
			BurstProb:    0.1, BurstFactor: 2.5,
			Drift: 0.2,
		},
		ThreadsPerServer:  simThreads,
		ContextsPerServer: simContexts,
	}}
	w := &f.cfg.Workload
	fs.IntVar(&w.Machines, "machines", 1000, "sim: initial fleet size")
	fs.Float64Var(&w.Horizon, "duration", 1, "sim: simulated horizon in time units")
	fs.Float64Var(&w.Churn, "churn", 0.02, "sim: machine churn rate (fraction of fleet per time unit)")
	fs.Float64Var(&w.ArrivalRate, "arrival", 0, "sim: job arrival rate per time unit (0 = 30 jobs per machine)")
	fs.StringVar(&f.policy, "policy", "smite", "sim: placement policy (smite, oracle, random, slo, closedloop or isolation)")
	fs.Float64Var(&f.cfg.Target, "target", 0.92, "sim: QoS floor placements must respect, in (0,1]")
	fs.IntVar(&f.cfg.Shards, "shards", 0, "sim: scheduling cells to split the fleet into (0 = default)")
	fs.IntVar(&f.parallelism, "parallelism", 0, "sim: worker goroutines for shard fan-out (0 = GOMAXPROCS); results are identical at any value")
	fs.Uint64Var(&w.Seed, "seed", 1, "sim: workload and synthetic-world seed")
	fs.StringVar(&f.traceOut, "trace-out", "", "sim: record the exogenous event trace to this file")
	fs.StringVar(&f.replay, "replay", "", "replay a recorded trace (implies -sim; config comes from the trace header)")
	fs.StringVar(&f.summaryJSON, "summary-json", "", "sim: write the machine-readable run summary to this file (- for stdout)")
	fs.StringVar(&f.sloClasses, "slo-classes", "critical:20ms:0.95,standard:60ms:0.95,sheddable:150ms:0.90",
		"sim: SLO classes for -policy=slo as name:budget[:percentile],... (budgets are Go durations)")
	fs.Float64Var(&f.slo.Headroom, "slo-headroom", 0.1, "sim: admission headroom in [0,1); budgets shrink to budget*(1-headroom) for admission")
	fs.Float64Var(&f.sloMu, "slo-mu", 1000, "sim: solo per-thread service rate (req/s) for the SLO classes' M/M/1 model")
	fs.Float64Var(&f.sloLambda, "slo-lambda", 600, "sim: arrival rate (req/s) for the SLO classes' M/M/1 model")
	fs.Float64Var(&f.drift.At, "drift-at", 0, "sim: simulated time the measured degradation surface shifts (with -drift-factor)")
	fs.Float64Var(&f.drift.Factor, "drift-factor", 0, "sim: factor the measured degradations scale by at -drift-at (0 = no drift)")
	fs.StringVar(&f.machineMix, "machine-mix", "", "sim: heterogeneous fleet as gen=weight,... over named machine generations (snb, ivb, power7, smt4, biglittle); empty = homogeneous")
	fs.StringVar(&f.isolSpec, "isol", "", "sim: isolation ladder for -policy=isolation as name:degscale:tax,... above the implicit off level (empty = stock ladder)")
	fs.StringVar(&f.cfg.Alloc, "alloc", "", "sim: thread-to-core allocation policy scoring candidate contexts (bestfit, firstfit, spread, minload or mindeg; empty = bestfit)")
	return f
}

// reject builds the FlagError for flag from its parsed value.
func (f *simFlags) reject(flag, reason string) error {
	return &FlagError{Flag: flag, Value: f.fs.Lookup(flag).Value.String(), Reason: reason}
}

// simPolicies is the -policy grammar.
var simPolicies = map[string]cluster.PolicyKind{
	"smite": cluster.PolicySMiTe, "oracle": cluster.PolicyOracle, "random": cluster.PolicyRandom,
	"slo": cluster.PolicySLO, "closedloop": cluster.PolicyClosedLoop, "isolation": cluster.PolicyIsolation,
}

// flagOfField maps the SimConfig fields the flags set onto their flag. A
// ConfigError path resolves through its longest mapped prefix with the
// indices dropped: "slo.classes[2].mu" → -slo-mu, "machine_gens[0].count"
// → -machine-mix.
var flagOfField = map[string]string{
	"workload.horizon":      "duration",
	"workload.churn":        "churn",
	"workload.arrival_rate": "arrival",
	"target":                "target",
	"shards":                "shards",
	"alloc":                 "alloc",
	"drift":                 "drift-factor",
	"drift.at":              "drift-at",
	"drift.factor":          "drift-factor",
	"slo.headroom":          "slo-headroom",
	"slo.classes":           "slo-classes",
	"slo.classes.mu":        "slo-mu",
	"slo.classes.lambda":    "slo-lambda",
	"isolation":             "isol",
	"machine_gens":          "machine-mix",
}

var fieldIndex = regexp.MustCompile(`\[\d+\]`)

// config resolves the parsed flags into a SimConfig that passes
// SimConfig.Validate. The CLI itself checks only its grammars and the
// rules no SimConfig carries (a positive -machines, because -arrival 0
// scales with it, and avg QoS, the only kind the synthetic world
// defines); a Validate rejection maps back onto the flag that set the
// field.
func (f *simFlags) config(ctx context.Context, qos string) (cluster.SimConfig, error) {
	cfg := f.cfg
	w := &cfg.Workload
	if w.Machines <= 0 {
		return cfg, f.reject("machines", "fleet size must be positive")
	}
	if w.ArrivalRate == 0 {
		w.ArrivalRate = 30 * float64(w.Machines)
	}
	if qos != "avg" {
		return cfg, f.reject("qos", "the synthetic sim world only defines avg QoS")
	}
	kind, ok := simPolicies[f.policy]
	if !ok {
		return cfg, f.reject("policy", "want smite, oracle, random, slo, closedloop or isolation")
	}
	cfg.Policy = kind
	if kind.NeedsSLO() {
		classes, err := slo.ParseSLOClasses(f.sloClasses)
		if err != nil {
			return cfg, f.reject("slo-classes", err.Error())
		}
		p := f.slo
		for _, cl := range classes {
			p.Classes = append(p.Classes, cluster.SLOSimClass{
				Name: cl.Name, Budget: cl.Budget, Percentile: cl.Percentile,
				Mu: f.sloMu, Lambda: f.sloLambda,
			})
		}
		cfg.SLO = &p
	}
	if f.drift.Factor != 0 {
		d := f.drift
		cfg.Drift = &d
	}
	levels, err := parseIsolLadder(f.isolSpec)
	if err != nil {
		return cfg, err
	}
	if levels != nil {
		cfg.Isol = &cluster.IsolSimParams{Levels: levels}
	}
	if err := f.attachTables(ctx, &cfg); err != nil {
		return cfg, err
	}
	if err := cfg.Validate(); err != nil {
		var ce *cluster.ConfigError
		if !errors.As(err, &ce) {
			return cfg, err
		}
		for path := fieldIndex.ReplaceAllString(ce.Field, ""); path != ""; path = path[:max(strings.LastIndexByte(path, '.'), 0)] {
			if flag, ok := flagOfField[path]; ok {
				return cfg, f.reject(flag, err.Error())
			}
		}
		return cfg, err
	}
	return cfg, nil
}

// mixGen is one -machine-mix entry resolved against the isa generation
// registry: the weight and the generation's server geometry (one latency
// thread per core, every hardware context placeable).
type mixGen struct {
	name              string
	count             int
	threads, contexts int
}

// parseMachineMix resolves "gen=weight,..." against the isa machine
// generation registry, mapping malformed entries onto typed FlagErrors.
// Weights are relative machine counts: "snb=3,ivb=2" means 3 Sandy
// Bridge-EN servers for every 2 Ivy Bridge ones, assigned round-robin by
// global machine ID.
func parseMachineMix(spec string) ([]mixGen, error) {
	var mix []mixGen
	for _, field := range strings.Split(spec, ",") {
		name, weight, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return nil, &FlagError{Flag: "machine-mix", Value: spec, Reason: fmt.Sprintf("entry %q is not gen=weight", field)}
		}
		name = strings.TrimSpace(name)
		cfg, err := isa.MachineGenByName(name)
		if err != nil {
			return nil, &FlagError{Flag: "machine-mix", Value: spec, Reason: err.Error()}
		}
		n, err := strconv.Atoi(strings.TrimSpace(weight))
		if err != nil || n <= 0 {
			return nil, &FlagError{Flag: "machine-mix", Value: spec, Reason: fmt.Sprintf("weight %q must be a positive integer", weight)}
		}
		mix = append(mix, mixGen{name: name, count: n, threads: cfg.Cores, contexts: cfg.Contexts()})
	}
	return mix, nil
}

// parseIsolLadder parses "name:degscale:tax,..." into the enforcement
// ladder above the implicit level-0 identity, then runs the shared ladder
// validation (monotone DegScale down, tax up). Empty means the stock
// isol.DefaultSettings ladder.
func parseIsolLadder(spec string) ([]isol.Setting, error) {
	if spec == "" {
		return nil, nil
	}
	levels := []isol.Setting{{Name: "off", ThrottleFrac: 1, DegScale: 1}}
	for _, field := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(field), ":")
		if len(parts) != 3 {
			return nil, &FlagError{Flag: "isol", Value: spec, Reason: fmt.Sprintf("entry %q is not name:degscale:tax", field)}
		}
		scale, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, &FlagError{Flag: "isol", Value: spec, Reason: fmt.Sprintf("degscale %q: %v", parts[1], err)}
		}
		tax, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, &FlagError{Flag: "isol", Value: spec, Reason: fmt.Sprintf("tax %q: %v", parts[2], err)}
		}
		levels = append(levels, isol.Setting{Name: strings.TrimSpace(parts[0]), ThrottleFrac: 1, DegScale: scale, ThroughputTax: tax})
	}
	if err := isol.ValidateSettings(levels); err != nil {
		return nil, &FlagError{Flag: "isol", Value: spec, Reason: err.Error()}
	}
	return levels, nil
}

// runClusterSim executes the discrete-event mode: either a fresh
// synthetic-world run (optionally recorded with -trace-out) or a byte-
// exact replay of a recorded trace.
func runClusterSim(ctx context.Context, f *simFlags, qos string, w io.Writer) error {
	if f.parallelism < 0 {
		return f.reject("parallelism", "worker count must be non-negative")
	}

	var cfg cluster.SimConfig
	var events [][]clworkload.Event
	if f.replay != "" {
		file, err := os.Open(f.replay)
		if err != nil {
			return err
		}
		cfg, events, err = cluster.ReadTrace(file)
		file.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "replaying %s: %d machines over %g time units\n", f.replay, cfg.Workload.Machines, cfg.Workload.Horizon)
	} else {
		var err error
		if cfg, err = f.config(ctx, qos); err != nil {
			return err
		}
		if events, err = cluster.GenerateEvents(cfg); err != nil {
			return err
		}
	}

	if f.traceOut != "" {
		file, err := os.Create(f.traceOut)
		if err != nil {
			return err
		}
		err = cluster.WriteTrace(file, cfg, events)
		if cerr := file.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "trace recorded to %s\n", f.traceOut)
	}

	start := time.Now()
	res, err := cluster.RunSim(ctx, cfg, events, f.parallelism)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Fprintf(w, "discrete-event cluster sim: %d machines, %d shards, policy %v, target %.0f%%\n",
		cfg.Workload.Machines, len(events), res.Policy, res.Target*100)
	fmt.Fprintf(w, "%d events in %v (%.0f events/sec)\n", res.Events, elapsed.Round(time.Millisecond),
		float64(res.Events)/elapsed.Seconds())
	fmt.Fprintf(w, "jobs: arrived %d, placed %d, rejected %d, departed %d, evicted %d\n",
		res.Arrived, res.Placed, res.Rejected, res.Departed, res.Evicted)
	fmt.Fprintf(w, "fleet: %d -> %d machines (ups %d, downs %d)\n",
		res.MachinesStart, res.MachinesEnd, res.MachineUps, res.MachineDowns)
	fmt.Fprintf(w, "utilisation: %.1f%% -> %.1f%% mean (peak %.1f%%), violations %d (%.2f%% of placements)\n",
		res.BaselineUtilization*100, res.MeanUtilization*100, res.PeakUtilization*100,
		res.Violations, res.ViolationFrac*100)

	summary := res.Summary()
	fmt.Fprintf(w, "saturation: %.1f%% of arrivals rejected -> %s\n",
		summary.Saturation.RejectionFrac*100, summary.Saturation.Signal)
	if summary.ClosedLoop != nil {
		fmt.Fprintf(w, "closed loop: %d drift detections, %d re-characterizations, %d migrations (%d failed)\n",
			res.Detections, res.Recharacterized, res.Migrations, res.MigrationsFailed)
	}
	if summary.Isolation.Enabled {
		fmt.Fprintf(w, "isolation: %d-level ladder, %d escalations, %d violations resolved in place, %d migrations, throughput tax %.2f%%\n",
			summary.Isolation.Levels, summary.Isolation.Escalations, summary.Isolation.Resolved,
			summary.Isolation.Migrations, summary.Isolation.ThroughputTax*100)
	}

	// Comparison policies ship their own control: the same event streams
	// rerun with violation accounting held identical, so the summary
	// carries a side-by-side.
	if control, label, ok := cluster.ControlConfig(cfg); ok {
		base, err := cluster.RunSim(ctx, control, events, f.parallelism)
		if err != nil {
			return err
		}
		summary.Baseline = base.BaselineSummary()
		fmt.Fprintf(w, "vs %s (%v): placed %d vs %d, violations %.2f%% vs %.2f%%, mean utilisation %.1f%% vs %.1f%%\n",
			label, base.Policy, res.Placed, base.Placed,
			res.ViolationFrac*100, base.ViolationFrac*100,
			res.MeanUtilization*100, base.MeanUtilization*100)
	}

	if f.summaryJSON != "" {
		data, err := json.MarshalIndent(summary, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if f.summaryJSON == "-" {
			_, err = w.Write(data)
		} else {
			err = os.WriteFile(f.summaryJSON, data, 0o644)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// attachTables builds the prediction surface(s) through the full serving
// seam — analytic surrogate curves as the first tier, the seeded measured
// table as the fallback — for the homogeneous world or for every
// -machine-mix generation.
func (f *simFlags) attachTables(ctx context.Context, cfg *cluster.SimConfig) error {
	const maxInst = simContexts - simThreads
	if f.machineMix == "" {
		pt, err := f.predTable(ctx, "", maxInst)
		cfg.Table = pt
		return err
	}
	mix, err := parseMachineMix(f.machineMix)
	if err != nil {
		return err
	}
	// Heterogeneous fleet: each generation interferes on its own seeded
	// degradation surface (same application populations, same table
	// shape), with the server geometry of its isa configuration. The
	// shared table depth fits the tightest generation's idle contexts —
	// roomier generations simply never fill their last contexts from the
	// table's point of view.
	depth := maxInst
	for _, g := range mix {
		depth = min(depth, g.contexts-g.threads)
	}
	for _, g := range mix {
		pt, err := f.predTable(ctx, g.name, depth)
		if err != nil {
			return err
		}
		cfg.MachineGens = append(cfg.MachineGens, cluster.MachineGenSpec{
			Name: g.name, Count: g.count,
			Threads: g.threads, Contexts: g.contexts,
			Table: pt,
		})
	}
	return nil
}

// predTable builds one generation's prediction surface; an empty gen name
// is the homogeneous world.
func (f *simFlags) predTable(ctx context.Context, gen string, maxInst int) (*cluster.PredTable, error) {
	world := cluster.SyntheticWorld
	if gen != "" {
		world = func(nLat, nBatch, maxInst int, seed uint64) (*surrogate.Set, *cluster.Table, error) {
			return cluster.SyntheticGenWorld(gen, nLat, nBatch, maxInst, seed)
		}
	}
	set, tbl, err := world(simLats, simBatches, maxInst, f.cfg.Workload.Seed)
	if err != nil {
		return nil, err
	}
	pred := cluster.NewTieredPredictor(
		&cluster.SurrogatePredictor{Set: set, Capacity: maxInst},
		&cluster.TablePredictor{Table: tbl},
	)
	return cluster.BuildPredTable(ctx, tbl, nil, cluster.QoSAvg, pred, f.parallelism)
}
