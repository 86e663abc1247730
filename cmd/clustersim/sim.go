package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	clworkload "repro/internal/cluster/workload"
	"repro/internal/isol"
	"repro/internal/sim/isa"
	"repro/internal/slo"
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

// simOptions carries the discrete-event mode's parsed flags.
type simOptions struct {
	machines    int
	duration    float64
	churn       float64
	arrival     float64
	policy      string
	target      float64
	shards      int
	parallelism int
	seed        uint64
	traceOut    string
	replay      string
	summaryJSON string
	qos         string

	sloClasses  string
	sloHeadroom float64
	sloMu       float64
	sloLambda   float64

	driftAt     float64
	driftFactor float64

	machineMix string
	isolSpec   string
	alloc      string

	// slo is the parsed -slo-* flag set, filled by validate when the
	// policy is slo, closedloop or isolation.
	slo *cluster.SLOSimParams
	// mix is the parsed -machine-mix flag; empty means homogeneous.
	mix []mixGen
	// isolLevels is the parsed -isol ladder; nil means the stock one.
	isolLevels []isol.Setting
}

// mixGen is one -machine-mix entry resolved against the isa generation
// registry: the weight and the generation's server geometry (one latency
// thread per core, every hardware context placeable).
type mixGen struct {
	name              string
	count             int
	threads, contexts int
}

// validate rejects unusable flag values with typed errors before any
// work starts. Replay mode takes its workload from the trace header, so
// only the execution knobs are checked there.
func (o *simOptions) validate() error {
	if o.replay == "" {
		if o.machines <= 0 {
			return &FlagError{Flag: "machines", Value: fmt.Sprint(o.machines), Reason: "fleet size must be positive"}
		}
		if o.duration <= 0 {
			return &FlagError{Flag: "duration", Value: fmt.Sprint(o.duration), Reason: "simulated horizon must be positive"}
		}
		if o.churn < 0 {
			return &FlagError{Flag: "churn", Value: fmt.Sprint(o.churn), Reason: "churn rate must be non-negative"}
		}
		if o.arrival < 0 {
			return &FlagError{Flag: "arrival", Value: fmt.Sprint(o.arrival), Reason: "arrival rate must be non-negative (0 = 30 jobs/machine)"}
		}
		if o.target <= 0 || o.target > 1 {
			return &FlagError{Flag: "target", Value: fmt.Sprint(o.target), Reason: "QoS target must be in (0, 1]"}
		}
		switch o.policy {
		case "smite", "oracle", "random":
		case "slo", "closedloop", "isolation":
			p, err := o.sloParams()
			if err != nil {
				return err
			}
			o.slo = p
		default:
			return &FlagError{Flag: "policy", Value: o.policy, Reason: "want smite, oracle, random, slo, closedloop or isolation"}
		}
		if o.isolSpec != "" && o.policy != "isolation" {
			return &FlagError{Flag: "isol", Value: o.isolSpec, Reason: "isolation ladder needs -policy=isolation"}
		}
		if o.policy == "isolation" {
			if o.driftFactor > 0 {
				return &FlagError{Flag: "drift-factor", Value: fmt.Sprint(o.driftFactor), Reason: "drift injection does not compose with -policy=isolation"}
			}
			levels, err := parseIsolLadder(o.isolSpec)
			if err != nil {
				return err
			}
			o.isolLevels = levels
		}
		if o.alloc != "" {
			if _, err := cluster.AllocPolicyByName(o.alloc); err != nil {
				return &FlagError{Flag: "alloc", Value: o.alloc, Reason: err.Error()}
			}
			if o.policy == "random" {
				return &FlagError{Flag: "alloc", Value: o.alloc, Reason: "allocation scoring has no effect under -policy=random"}
			}
		}
		if o.machineMix != "" {
			mix, err := parseMachineMix(o.machineMix)
			if err != nil {
				return err
			}
			if o.policy == "closedloop" {
				return &FlagError{Flag: "machine-mix", Value: o.machineMix, Reason: "closedloop does not support heterogeneous machine generations yet"}
			}
			if o.driftFactor > 0 {
				return &FlagError{Flag: "machine-mix", Value: o.machineMix, Reason: "drift injection does not support heterogeneous machine generations yet"}
			}
			o.mix = mix
		}
		if o.driftFactor < 0 {
			return &FlagError{Flag: "drift-factor", Value: fmt.Sprint(o.driftFactor), Reason: "drift factor must be non-negative (0 = no drift)"}
		}
		if o.driftFactor > 0 && o.driftAt < 0 {
			return &FlagError{Flag: "drift-at", Value: fmt.Sprint(o.driftAt), Reason: "drift time must be non-negative"}
		}
		if o.qos != "avg" {
			return &FlagError{Flag: "qos", Value: o.qos, Reason: "the synthetic sim world only defines avg QoS"}
		}
		if o.shards < 0 {
			return &FlagError{Flag: "shards", Value: fmt.Sprint(o.shards), Reason: "shard count must be non-negative"}
		}
	}
	if o.parallelism < 0 {
		return &FlagError{Flag: "parallelism", Value: fmt.Sprint(o.parallelism), Reason: "worker count must be non-negative"}
	}
	return nil
}

func (o *simOptions) policyKind() cluster.PolicyKind {
	switch o.policy {
	case "oracle":
		return cluster.PolicyOracle
	case "random":
		return cluster.PolicyRandom
	case "slo":
		return cluster.PolicySLO
	case "closedloop":
		return cluster.PolicyClosedLoop
	case "isolation":
		return cluster.PolicyIsolation
	}
	return cluster.PolicySMiTe
}

// parseMachineMix resolves "gen=weight,..." against the isa machine
// generation registry, mapping malformed entries onto typed FlagErrors.
// Weights are relative machine counts: "snb=3,ivb=2" means 3 Sandy
// Bridge-EN servers for every 2 Ivy Bridge ones, assigned round-robin by
// global machine ID.
func parseMachineMix(spec string) ([]mixGen, error) {
	var mix []mixGen
	seen := map[string]bool{}
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
		if seen[name] {
			return nil, &FlagError{Flag: "machine-mix", Value: spec, Reason: fmt.Sprintf("generation %q listed twice", name)}
		}
		seen[name] = true
		n, err := strconv.Atoi(strings.TrimSpace(weight))
		if err != nil || n <= 0 {
			return nil, &FlagError{Flag: "machine-mix", Value: spec, Reason: fmt.Sprintf("weight %q must be a positive integer", weight)}
		}
		mix = append(mix, mixGen{name: name, count: n, threads: cfg.Cores, contexts: cfg.Contexts()})
	}
	if len(mix) == 0 {
		return nil, &FlagError{Flag: "machine-mix", Value: spec, Reason: "empty mix"}
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

// sloParams parses the -slo-* flags into simulation parameters, mapping
// every malformed value onto a typed FlagError so smited and clustersim
// agree on the class grammar (slo.ParseSLOClasses) and on exiting 2.
func (o *simOptions) sloParams() (*cluster.SLOSimParams, error) {
	classes, err := slo.ParseSLOClasses(o.sloClasses)
	if err != nil {
		return nil, &FlagError{Flag: "slo-classes", Value: o.sloClasses, Reason: err.Error()}
	}
	if err := slo.CheckHeadroom(o.sloHeadroom); err != nil {
		return nil, &FlagError{Flag: "slo-headroom", Value: fmt.Sprint(o.sloHeadroom), Reason: err.Error()}
	}
	if !(o.sloMu > 0) {
		return nil, &FlagError{Flag: "slo-mu", Value: fmt.Sprint(o.sloMu), Reason: "service rate must be positive"}
	}
	if !(o.sloLambda > 0) {
		return nil, &FlagError{Flag: "slo-lambda", Value: fmt.Sprint(o.sloLambda), Reason: "arrival rate must be positive"}
	}
	p := &cluster.SLOSimParams{Headroom: o.sloHeadroom}
	for _, cl := range classes {
		p.Classes = append(p.Classes, cluster.SLOSimClass{
			Name: cl.Name, Budget: cl.Budget, Percentile: cl.Percentile,
			Mu: o.sloMu, Lambda: o.sloLambda,
		})
	}
	return p, nil
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

// runClusterSim executes the discrete-event mode: either a fresh
// synthetic-world run (optionally recorded with -trace-out) or a byte-
// exact replay of a recorded trace.
func runClusterSim(ctx context.Context, o simOptions, w io.Writer) error {
	if err := o.validate(); err != nil {
		return err
	}

	var cfg cluster.SimConfig
	var events [][]clworkload.Event
	if o.replay != "" {
		f, err := os.Open(o.replay)
		if err != nil {
			return err
		}
		cfg, events, err = cluster.ReadTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "replaying %s: %d machines over %g time units\n", o.replay, cfg.Workload.Machines, cfg.Workload.Horizon)
	} else {
		var err error
		if cfg, err = o.simConfig(); err != nil {
			return err
		}
		if events, err = cluster.GenerateEvents(cfg); err != nil {
			return err
		}
	}

	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		err = cluster.WriteTrace(f, cfg, events)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "trace recorded to %s\n", o.traceOut)
	}

	start := time.Now()
	res, err := cluster.RunSim(ctx, cfg, events, o.parallelism)
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
		base, err := cluster.RunSim(ctx, control, events, o.parallelism)
		if err != nil {
			return err
		}
		summary.Baseline = base.BaselineSummary()
		fmt.Fprintf(w, "vs %s (%v): placed %d vs %d, violations %.2f%% vs %.2f%%, mean utilisation %.1f%% vs %.1f%%\n",
			label, base.Policy, res.Placed, base.Placed,
			res.ViolationFrac*100, base.ViolationFrac*100,
			res.MeanUtilization*100, base.MeanUtilization*100)
	}

	if o.summaryJSON != "" {
		data, err := json.MarshalIndent(summary, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if o.summaryJSON == "-" {
			_, err = w.Write(data)
		} else {
			err = os.WriteFile(o.summaryJSON, data, 0o644)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// simConfig assembles the synthetic-world simulation: analytic surrogate
// curves as the first prediction tier, the seeded measured table as the
// fallback, and the QoS surface precomputed once through that seam.
func (o *simOptions) simConfig() (cluster.SimConfig, error) {
	const maxInst = simContexts - simThreads
	arrival := o.arrival
	if arrival == 0 {
		arrival = 30 * float64(o.machines)
	}
	cfg := cluster.SimConfig{
		Workload: clworkload.Config{
			Machines: o.machines, Horizon: o.duration,
			Lats: simLats, Batches: simBatches, Seed: o.seed,
			ArrivalRate:  arrival,
			MeanDuration: 0.05,
			Diurnal:      0.4,
			BurstProb:    0.1, BurstFactor: 2.5,
			Drift: 0.2,
			Churn: o.churn,
		},
		Shards:            o.shards,
		Policy:            o.policyKind(),
		SLO:               o.slo,
		Drift:             o.driftSpec(),
		Target:            o.target,
		ThreadsPerServer:  simThreads,
		ContextsPerServer: simContexts,
		Alloc:             o.alloc,
	}
	if o.isolLevels != nil {
		cfg.Isol = &cluster.IsolSimParams{Levels: o.isolLevels}
	}
	if len(o.mix) == 0 {
		pt, err := o.predTable("", maxInst, o.parallelism)
		if err != nil {
			return cluster.SimConfig{}, err
		}
		cfg.Table = pt
		return cfg, nil
	}
	// Heterogeneous fleet: each generation interferes on its own seeded
	// degradation surface (same application populations, same table
	// shape), with the server geometry of its isa configuration. The
	// shared table depth fits the tightest generation's idle contexts —
	// roomier generations simply never fill their last contexts from the
	// table's point of view.
	depth := maxInst
	for _, g := range o.mix {
		if idle := g.contexts - g.threads; idle < depth {
			depth = idle
		}
	}
	for _, g := range o.mix {
		pt, err := o.predTable(g.name, depth, o.parallelism)
		if err != nil {
			return cluster.SimConfig{}, err
		}
		cfg.MachineGens = append(cfg.MachineGens, cluster.MachineGenSpec{
			Name: g.name, Count: g.count,
			Threads: g.threads, Contexts: g.contexts,
			Table: pt,
		})
	}
	return cfg, nil
}

// predTable builds one generation's prediction surface through the full
// serving seam: analytic surrogate curves as the first tier, the seeded
// measured table as the fallback. An empty gen name is the homogeneous
// world.
func (o *simOptions) predTable(gen string, maxInst, parallelism int) (*cluster.PredTable, error) {
	set, tbl, err := cluster.SyntheticGenWorld(gen, simLats, simBatches, maxInst, o.seed)
	if gen == "" {
		set, tbl, err = cluster.SyntheticWorld(simLats, simBatches, maxInst, o.seed)
	}
	if err != nil {
		return nil, err
	}
	pred := cluster.NewTieredPredictor(
		&cluster.SurrogatePredictor{Set: set, Capacity: maxInst},
		&cluster.TablePredictor{Table: tbl},
	)
	return cluster.BuildPredTable(context.Background(), tbl, nil, cluster.QoSAvg, pred, parallelism)
}

// driftSpec lifts the -drift-* flags into the simulator's injected shift
// of the measured surface; nil (no -drift-factor) keeps the world
// stationary.
func (o *simOptions) driftSpec() *cluster.DriftSpec {
	if o.driftFactor == 0 {
		return nil
	}
	return &cluster.DriftSpec{At: o.driftAt, Factor: o.driftFactor}
}
