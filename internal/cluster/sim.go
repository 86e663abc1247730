package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	clworkload "repro/internal/cluster/workload"
	"repro/internal/sched"
)

// This file is the warehouse-scale discrete-event core: tens of
// thousands of machines, millions of placement/churn events, seconds of
// wall-clock. It replaces full-fleet scans with incremental
// contention-aware placement: machines live in per-shard occupancy
// buckets keyed by (latency app, resident batch app, instance count), and
// because predicted QoS depends only on that state triple, best-fit
// admission is a scan over O(apps × instances) buckets instead of O(fleet)
// machines, independent of fleet size.
//
// Determinism. The fleet is statically sharded into scheduling cells
// (machine → shard, jobs dealt to shards by the workload generator), and
// each shard is a self-contained sequential simulation: one indexed
// min-heap of pending departures merged two-way with the shard's
// time-sorted exogenous stream, ties broken departures-first, then by
// shard-local sequence numbers. Shards never communicate, so fanning them
// across sched.Map workers is bit-identical at any worker count; the
// per-shard placement logs are merged by (At, Shard, Seq) on read, when
// SimResult.Log is called.
// internal/simtest pins replay determinism as a 20-seed law.

// DefaultShards is the shard count used when SimConfig.Shards is zero:
// enough cells to keep a machine's worth of workers busy without
// fragmenting small fleets.
const DefaultShards = 16

// SimConfig parameterises one discrete-event cluster run. The workload
// config carries the fleet size, horizon, seed and application-population
// dimensions; the prediction table carries the QoS surface placements are
// decided (and scored) on.
type SimConfig struct {
	// Workload shapes the exogenous event streams (arrival curves, mix
	// drift, churn) and fixes Machines/Horizon/Seed/Lats/Batches.
	Workload clworkload.Config `json:"workload"`
	// Shards is the number of scheduling cells the fleet is split into
	// (0 = DefaultShards). More shards means more available parallelism
	// and smaller cells; results depend on the shard count but not on the
	// worker count.
	Shards int `json:"shards"`
	// Policy decides admissions: SMiTe places on predicted QoS, Oracle on
	// measured QoS, Random ignores interference and packs by capacity.
	Policy PolicyKind `json:"policy"`
	// Target is the QoS floor in (0, 1] placements must respect.
	Target float64 `json:"target"`
	// ThreadsPerServer and ContextsPerServer set the machine geometry;
	// ContextsPerServer − ThreadsPerServer idle contexts take batch
	// instances, at most Table.MaxInstances of them.
	ThreadsPerServer  int `json:"threads_per_server"`
	ContextsPerServer int `json:"contexts_per_server"`
	// Table is the precomputed QoS surface (BuildPredTable).
	Table *PredTable `json:"table"`
	// SLO carries the per-class tail-latency budgets and queue rates.
	// Required (with a table holding the degradation surface) when
	// Policy is PolicySLO or PolicyClosedLoop; optional otherwise, in
	// which case it only switches violation accounting from the QoS floor
	// to the class budgets so QoS-floor policies can be compared against
	// the SLO gate on identical terms.
	SLO *SLOSimParams `json:"slo,omitempty"`
	// Drift, when set, shifts the measured degradation surface mid-run
	// (closedloop.go). Violation accounting follows the shifted surface
	// for every policy, so static-vs-closed-loop comparisons are
	// apples-to-apples. Schema addition: traces without it replay
	// unchanged (trace format version 1).
	Drift *DriftSpec `json:"drift,omitempty"`
	// MachineGens, when set, makes the fleet heterogeneous: each machine
	// generation brings its own prediction table and geometry, with Table
	// left nil (isolation.go). Schema addition: homogeneous traces replay
	// unchanged.
	MachineGens []MachineGenSpec `json:"machine_gens,omitempty"`
	// Isol carries the isolation ladder PolicyIsolation escalates through;
	// nil picks isol.DefaultSettings. Only meaningful (and only accepted)
	// with PolicyIsolation.
	Isol *IsolSimParams `json:"isolation,omitempty"`
	// Alloc names the thread-to-core allocation policy scoring the
	// admission scan (AllocPolicies); empty is the bestfit default, which
	// reproduces the historical greedy behaviour bit-for-bit.
	Alloc string `json:"alloc,omitempty"`
}

// genTables returns the per-generation prediction tables (len ≥ 1; the
// homogeneous fleet is a single unnamed generation backed by Table).
func (c *SimConfig) genTables() []*PredTable {
	if len(c.MachineGens) > 0 {
		ts := make([]*PredTable, len(c.MachineGens))
		for i, g := range c.MachineGens {
			ts[i] = g.Table
		}
		return ts
	}
	return []*PredTable{c.Table}
}

// withDefaults normalises zero-valued knobs.
func (c SimConfig) withDefaults() SimConfig {
	if c.Shards == 0 {
		c.Shards = DefaultShards
	}
	if spec, _ := policyOf(c.Policy); spec.ladder {
		c.Isol = c.Isol.withDefaults()
	}
	return c
}

// ConfigError is the typed error every SimConfig validator returns. Its
// Field is the SimConfig JSON path ("workload.horizon", "drift.at",
// "slo.classes[0].mu", "machine_gens[2].count"), so a front end can map
// a rejection back onto whatever set the field.
type ConfigError = clworkload.ConfigError

func fieldError(field, format string, a ...any) error {
	return &ConfigError{Field: field, Reason: fmt.Sprintf(format, a...)}
}

// nested files a sub-validator's rejection (nil stays nil) under field:
// a ConfigError's path gains the prefix, any other error becomes the Err
// of a ConfigError on field itself.
func nested(field string, err error) error {
	if err == nil {
		return nil
	}
	if ce, ok := err.(*ConfigError); ok {
		return &ConfigError{Field: field + "." + ce.Field, Reason: ce.Reason, Err: ce.Err}
	}
	return &ConfigError{Field: field, Reason: err.Error(), Err: err}
}

// Validate rejects configurations RunSim cannot execute. It is the one
// rulebook for a cluster run: every range and compatibility rule lives
// here or in the validators it calls, and every rejection is a
// *ConfigError naming the field.
func (c SimConfig) Validate() error {
	c = c.withDefaults()
	// The workload caps the application counts at math.MaxInt16; the
	// generation, instance and level caps below complete the int16 indices
	// of simMachine and Placement.
	if err := nested("workload", c.Workload.Validate()); err != nil {
		return err
	}
	if c.Shards < 0 {
		return fieldError("shards", "must be non-negative, got %d", c.Shards)
	}
	spec, ok := policyOf(c.Policy)
	if !ok {
		return fieldError("policy", "unknown policy %d", int(c.Policy))
	}
	if spec.needsSLO && c.SLO == nil {
		return fieldError("slo", "policy %s needs SLO parameters", c.Policy)
	}
	if spec.ladder {
		if err := nested("isolation", c.Isol.Validate()); err != nil {
			return err
		}
		if c.Drift != nil {
			return fieldError("drift", "policy %s does not compose with drift injection", c.Policy)
		}
	} else if c.Isol != nil {
		return fieldError("isolation", "isolation parameters need policy %s, got %s", PolicyIsolation, c.Policy)
	}
	if c.Alloc != "" {
		if _, err := AllocPolicyByName(c.Alloc); err != nil {
			return nested("alloc", err)
		}
		if !spec.scans {
			return fieldError("alloc", "alloc policy %q has no effect under policy %s", c.Alloc, c.Policy)
		}
	}
	if err := nested("drift", c.Drift.Validate(c.Workload.Batches)); err != nil {
		return err
	}
	if c.SLO != nil {
		if err := nested("slo", c.SLO.Validate()); err != nil {
			return err
		}
	}
	if !(c.Target > 0 && c.Target <= 1) {
		return fieldError("target", "QoS target %g outside (0,1]", c.Target)
	}
	if c.ThreadsPerServer <= 0 || c.ContextsPerServer <= 0 {
		return fieldError("threads_per_server", "server geometry must be positive")
	}
	if c.ThreadsPerServer >= c.ContextsPerServer {
		return fieldError("contexts_per_server", "%d threads leave no idle context of %d", c.ThreadsPerServer, c.ContextsPerServer)
	}
	return c.validateFleet(spec)
}

// validateFleet checks the prediction table(s) and per-generation geometry
// against the workload and policy — the homogeneous single-table fleet and
// the heterogeneous MachineGens fleet share every per-table rule.
func (c *SimConfig) validateFleet(spec policySpec) error {
	checkTable := func(field string, t *PredTable, threads, contexts int) error {
		if err := nested(field, t.Validate()); err != nil {
			return err
		}
		if c.SLO != nil && !t.HasDegradations() {
			return fieldError(field, "SLO-gated run needs a table with the degradation surface (rebuild with BuildPredTable)")
		}
		if len(t.LatencyApps) != c.Workload.Lats || len(t.BatchApps) != c.Workload.Batches {
			return fieldError(field, "table is %d×%d apps but workload generates %d×%d",
				len(t.LatencyApps), len(t.BatchApps), c.Workload.Lats, c.Workload.Batches)
		}
		if t.MaxInstances > min(contexts-threads, math.MaxInt16) {
			return fieldError(field+".max_instances", "%d instances exceed %d idle contexts or %d",
				t.MaxInstances, contexts-threads, math.MaxInt16)
		}
		return nil
	}
	if len(c.MachineGens) == 0 {
		return checkTable("table", c.Table, c.ThreadsPerServer, c.ContextsPerServer)
	}
	if c.Table != nil {
		return fieldError("table", "machine generations carry their own tables; leave Table nil")
	}
	if !spec.mixedFleet {
		return fieldError("machine_gens", "policy %s does not support heterogeneous machine generations yet", c.Policy)
	}
	if c.Drift != nil {
		return fieldError("machine_gens", "drift injection does not support heterogeneous machine generations yet")
	}
	if len(c.MachineGens) > math.MaxInt16 {
		return fieldError("machine_gens", "%d machine generations exceed %d", len(c.MachineGens), math.MaxInt16)
	}
	ref := c.MachineGens[0].Table
	seen := make(map[string]bool, len(c.MachineGens))
	// shardSim.genOf deals machine ids round-robin over ΣCount slots, so
	// the sum must stay far from wrapping.
	total := 0
	for i, g := range c.MachineGens {
		field := fmt.Sprintf("machine_gens[%d]", i)
		if g.Name == "" {
			return fieldError(field+".name", "machine generation %d has no name", i)
		}
		if seen[g.Name] {
			return fieldError(field+".name", "duplicate machine generation %q", g.Name)
		}
		seen[g.Name] = true
		if g.Count <= 0 || g.Count > math.MaxInt32-total {
			return fieldError(field+".count", "machine generation %q count %d must be positive and keep the counts' sum within %d",
				g.Name, g.Count, math.MaxInt32)
		}
		total += g.Count
		threads, contexts := g.geometry(c)
		if threads <= 0 || contexts <= 0 || threads >= contexts {
			return fieldError(field, "machine generation %q geometry %d/%d leaves no idle context", g.Name, threads, contexts)
		}
		if err := checkTable(field+".table", g.Table, threads, contexts); err != nil {
			return err
		}
		if t := g.Table; len(t.LatencyApps) != len(ref.LatencyApps) ||
			len(t.BatchApps) != len(ref.BatchApps) ||
			t.MaxInstances != ref.MaxInstances ||
			t.QoS != ref.QoS {
			return fieldError(field+".table", "machine generation %q table shape differs from %q (generations must share populations, MaxInstances, and QoS kind)",
				g.Name, c.MachineGens[0].Name)
		}
	}
	return nil
}

// GenerateEvents produces the per-shard exogenous event streams for the
// configured workload — the recordable half of a run. Each shard's stream
// depends only on the workload and the shard index, so the shards are
// generated in parallel across GOMAXPROCS workers, each into its own slot.
func GenerateEvents(cfg SimConfig) ([][]clworkload.Event, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	shards := make([][]clworkload.Event, cfg.Shards)
	err := sched.Map(context.Background(), cfg.Shards, 0, func(_ context.Context, s int) error {
		ev, err := clworkload.Generate(cfg.Workload, s, cfg.Shards)
		shards[s] = ev
		return err
	})
	if err != nil {
		return nil, err
	}
	return shards, nil
}

// Placement is one scheduler decision in the merged log. Rejections are
// logged too (Machine = −1), so the log is a complete decision record and
// bit-for-bit comparable across replays. An entry is 40 bytes and holds
// no pointers; a run keeps its decisions as 16-byte logEntry records and
// rebuilds Placements only when Log is called.
type Placement struct {
	At      float64 `json:"t"`
	Shard   int32   `json:"s"`
	Seq     uint32  `json:"q"` // shard-local decision sequence
	Machine int64   `json:"m"` // global machine id; −1 = rejected
	Lat     int16   `json:"l"` // latency app of the machine; −1 = rejected
	Batch   int16   `json:"b"`
	N       int16   `json:"n"` // resident instances after placement; 0 = rejected
	// Kind types non-admission decisions (PlacementMigrate); zero for
	// ordinary placements and rejections, so pre-closed-loop logs decode
	// and hash identically.
	Kind PlacementKind `json:"k,omitempty"`
	// From is the machine a migrated instance left (Kind=PlacementMigrate).
	From int64 `json:"f,omitempty"`
}

// PlacementKind types a log entry. The zero kind is an ordinary placement
// or rejection; on the wire a kind is its name, and the zero kind is
// omitted.
type PlacementKind uint8

// PlacementMigrate marks a closed-loop migration decision in the log:
// Machine/Lat/N describe the receiving machine, From the drifted one.
const PlacementMigrate PlacementKind = 1

var placementKindNames = [...]string{"", "migrate"}

// MarshalJSON writes the kind's name ("migrate").
func (k PlacementKind) MarshalJSON() ([]byte, error) {
	if int(k) >= len(placementKindNames) {
		return nil, fmt.Errorf("cluster: unknown placement kind %d", uint8(k))
	}
	return json.Marshal(placementKindNames[k])
}

// UnmarshalJSON reads a kind's name; an unknown name is an error.
func (k *PlacementKind) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	for i, n := range placementKindNames {
		if n == name {
			*k = PlacementKind(i)
			return nil
		}
	}
	return fmt.Errorf("cluster: unknown placement kind %q", name)
}

// SimResult aggregates one discrete-event run.
type SimResult struct {
	Policy PolicyKind
	QoS    QoSKind
	Target float64

	// Events counts every processed event: exogenous arrivals/churn plus
	// endogenous job departures.
	Events int
	// Arrived/Placed/Rejected count batch jobs; Departed jobs that ran to
	// completion; Evicted jobs killed by a machine decommission.
	Arrived, Placed, Rejected, Departed, Evicted int
	// MachinesStart/End/Ups/Downs describe fleet churn.
	MachinesStart, MachinesEnd, MachineUps, MachineDowns int

	// BaselineUtilization is the no-co-location context utilisation;
	// MeanUtilization the machine-time-weighted mean with co-location;
	// PeakUtilization the largest instantaneous shard utilisation.
	BaselineUtilization float64
	MeanUtilization     float64
	PeakUtilization     float64

	// Violations counts placements that actually missed their objective
	// at the resulting occupancy — the measured QoS under the target for
	// QoS-floor runs, the measured Eq. 6 tail over the class budget when
	// SLO parameters are set (the post-drift surface once SimConfig.Drift
	// lands); ViolationFrac normalises by Placed.
	Violations    int
	ViolationFrac float64

	// Closed-loop activity (PolicyClosedLoop only): confirmed drift
	// detections, (lat, batch)-pair re-characterizations, and attempted
	// instance migrations. PolicyIsolation reuses the migration counters
	// for its last-resort moves.
	Detections       int
	Recharacterized  int
	Migrations       int
	MigrationsFailed int

	// Isolation activity (PolicyIsolation only): ladder escalations,
	// violations an engaged operating point absorbed without any
	// migration, the ladder depth, and the machine-time-weighted mean
	// throughput tax the engaged levels cost the fleet.
	Isolations        int
	IsolationResolved int
	IsolationLevels   int
	IsolationTax      float64

	// SLOParams echoes the run's SLO parameters, nil for QoS-floor runs;
	// Summary reads its saturation thresholds.
	SLOParams *SLOSimParams

	// logs holds each shard's decision log in shard order; Log merges
	// them.
	logs []shardLog
}

// Log returns the merged placement log, ordered by (At, Shard, Seq). The
// shard logs are merged on every call, so a run whose log is never read
// never pays for the merge, and each call returns a fresh slice.
func (r SimResult) Log() []Placement {
	n := 0
	for i := range r.logs {
		n += r.logs[i].len()
	}
	return mergeLogs(r.logs, n)
}

// logEntry is one decision in a shard's log: 16 bytes and no pointers.
// The shard, the sequence number (the entry's position), the global
// machine id and the machine's latency app are implied by the log holding
// it; shardLog.next rebuilds the Placement.
type logEntry struct {
	At      float64
	Machine int32 // local machine id; −1 = rejected
	Batch   int16
	N       int16 // resident instances after placement; 0 = rejected
}

// logMigration is a migrate decision, kept apart from the arrivals so the
// arrival log never regrows: Pos is its position in the shard's decision
// sequence, From the local machine the instance left.
type logMigration struct {
	logEntry
	Pos  uint32
	From int32
}

// shardLog is one shard's decision record.
type shardLog struct {
	entries []logEntry     // one per job arrival, in order
	migs    []logMigration // migrate decisions, Pos-ordered
	lats    []int16        // latency app of each local machine
}

func (l *shardLog) len() int { return len(l.entries) + len(l.migs) }

// logCursor walks a shardLog in decision order: e arrivals and m
// migrations are behind it, so the next decision's position is e+m.
type logCursor struct{ e, m int }

// nextIsMigration reports whether the decision at c is a migration.
func (l *shardLog) nextIsMigration(c logCursor) bool {
	return c.m < len(l.migs) && int(l.migs[c.m].Pos) == c.e+c.m
}

// headAt is the time of the decision at c, +Inf past the end.
func (l *shardLog) headAt(c logCursor) float64 {
	switch {
	case l.nextIsMigration(c):
		return l.migs[c.m].At
	case c.e < len(l.entries):
		return l.entries[c.e].At
	}
	return math.Inf(1)
}

// next rebuilds the decision at c as shard's Placement in a fleet of
// shards cells and advances c past it.
func (l *shardLog) next(c *logCursor, shard, shards int) Placement {
	p := Placement{Shard: int32(shard), Seq: uint32(c.e + c.m), Machine: -1, Lat: -1}
	var e logEntry
	if l.nextIsMigration(*c) {
		mg := l.migs[c.m]
		c.m++
		e = mg.logEntry
		p.Kind, p.From = PlacementMigrate, globalMachine(shard, shards, mg.From)
	} else {
		e = l.entries[c.e]
		c.e++
	}
	p.At, p.Batch, p.N = e.At, e.Batch, e.N
	if e.Machine >= 0 {
		p.Machine, p.Lat = globalMachine(shard, shards, e.Machine), l.lats[e.Machine]
	}
	return p
}

// RunSim executes the discrete-event simulation over the given per-shard
// exogenous streams (GenerateEvents for a fresh run, ReadTrace for a
// replay), fanning shards across at most workers sched workers. The
// result — including the placement log Log merges — is bit-identical for
// every workers value.
func RunSim(ctx context.Context, cfg SimConfig, shards [][]clworkload.Event, workers int) (SimResult, error) {
	cfg = cfg.withDefaults()
	results, err := runShards(ctx, &cfg, shards, workers)
	if err != nil {
		return SimResult{}, err
	}
	return mergeShards(cfg, results), nil
}

// runShards validates cfg (already defaulted) and runs every shard,
// returning the per-shard results in shard order.
func runShards(ctx context.Context, cfg *SimConfig, shards [][]clworkload.Event, workers int) ([]shardResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(shards) != cfg.Shards {
		return nil, fmt.Errorf("cluster: %d event shards for %d sim shards", len(shards), cfg.Shards)
	}
	// The admission/violation surfaces — one per (generation, isolation
	// level) pair — and the post-drift measured surface are pure functions
	// of the tables and parameters; precompute them once and share them
	// read-only across shards.
	world, err := buildSimWorld(cfg)
	if err != nil {
		return nil, err
	}
	results := make([]shardResult, cfg.Shards)
	err = sched.Map(ctx, cfg.Shards, workers, func(ctx context.Context, i int) error {
		r, err := runShard(ctx, cfg, world, i, shards[i])
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// shardResult is one cell's contribution before the deterministic merge.
type shardResult struct {
	events                        int
	arrived, placed, rejected     int
	departed, evicted             int
	machinesStart, machinesEnd    int
	ups, downs                    int
	violations                    int
	detections, recharacterized   int
	migrations, migrationsFailed  int
	isolations, isolationResolved int
	busyInt, ctxInt, baseInt      float64 // utilisation integrals
	taxInt                        float64 // throughput-tax integral (PolicyIsolation)
	peak                          float64
	log                           shardLog
}

func mergeShards(cfg SimConfig, rs []shardResult) SimResult {
	out := SimResult{Policy: cfg.Policy, QoS: cfg.genTables()[0].QoS, Target: cfg.Target, SLOParams: cfg.SLO}
	if cfg.Isol != nil {
		out.IsolationLevels = len(cfg.Isol.Levels)
	}
	out.logs = make([]shardLog, len(rs))
	var busy, ctx, base, tax float64
	for i, r := range rs {
		out.Events += r.events
		out.Arrived += r.arrived
		out.Placed += r.placed
		out.Rejected += r.rejected
		out.Departed += r.departed
		out.Evicted += r.evicted
		out.MachinesStart += r.machinesStart
		out.MachinesEnd += r.machinesEnd
		out.MachineUps += r.ups
		out.MachineDowns += r.downs
		out.Violations += r.violations
		out.Detections += r.detections
		out.Recharacterized += r.recharacterized
		out.Migrations += r.migrations
		out.MigrationsFailed += r.migrationsFailed
		out.Isolations += r.isolations
		out.IsolationResolved += r.isolationResolved
		if r.peak > out.PeakUtilization {
			out.PeakUtilization = r.peak
		}
		out.logs[i] = r.log
		busy += r.busyInt
		ctx += r.ctxInt
		base += r.baseInt
		tax += r.taxInt
	}
	if ctx > 0 {
		out.MeanUtilization = busy / ctx
		out.BaselineUtilization = base / ctx
		out.IsolationTax = tax / ctx
	}
	if out.Placed > 0 {
		out.ViolationFrac = float64(out.Violations) / float64(out.Placed)
	}
	return out
}

// mergeLogs merges the n decisions of the shard logs into the global (At,
// Shard, Seq) order, rebuilding each as a Placement. Each shard log is
// already (At, Seq)-ordered and logs[i] is shard i's, so a k-way merge of
// the shard runs that breaks At ties by shard index yields that order by
// construction. The merge is a tournament (loser) tree over the shard
// cursors: each entry costs ⌈log₂ k⌉ comparisons, and beyond the n-entry
// output it allocates O(k).
func mergeLogs(logs []shardLog, n int) []Placement {
	out := make([]Placement, n)
	k := 1
	for k < len(logs) {
		k <<= 1
	}
	// head[i] is the At of leaf i's next entry, +Inf once the leaf is
	// exhausted (or padding past len(rs)); At is always finite, so an
	// exhausted leaf never wins while entries remain.
	head := make([]float64, k)
	cur := make([]logCursor, k)
	for i := range head {
		head[i] = math.Inf(1)
		if i < len(logs) {
			head[i] = logs[i].headAt(cur[i])
		}
	}
	before := func(a, b int) bool { return head[a] < head[b] || (head[a] == head[b] && a < b) }
	// loser[i], 1 ≤ i < k, is the leaf that lost the match at internal
	// node i; the winner of the whole tree rides in w. Build bottom-up
	// from the per-node winners.
	loser := make([]int, k)
	win := make([]int, 2*k)
	for i := 0; i < k; i++ {
		win[k+i] = i
	}
	for i := k - 1; i >= 1; i-- {
		a, b := win[2*i], win[2*i+1]
		if before(b, a) {
			a, b = b, a
		}
		win[i], loser[i] = a, b
	}
	w := win[1]
	for o := range out {
		out[o] = logs[w].next(&cur[w], w, len(logs))
		head[w] = logs[w].headAt(cur[w])
		// Replay the winner's path to the root against the stored losers.
		for i := (w + k) >> 1; i >= 1; i >>= 1 {
			if before(loser[i], w) {
				loser[i], w = w, loser[i]
			}
		}
	}
	return out
}

// simMachine is one server's live state inside a shard.
type simMachine struct {
	lat   int16
	batch int16 // −1 when no batch app is resident
	n     int16
	gen   int16   // machine generation index (0 for homogeneous fleets)
	level int16   // engaged isolation level (0 = off; resets when n hits 0)
	jobs  []int64 // live departure-event handles
}

// shardSim is the per-cell simulation state.
type shardSim struct {
	cfg   *SimConfig
	w     *simWorld  // shared read-only surfaces (tables, gates, drift)
	t     *PredTable // w.tables[0]: bucket geometry (shapes are shared)
	adm   admission  // the policy's shard-local implementation
	shard int

	machines []simMachine
	upIDs    []int32 // sorted local ids of up machines
	buckets  []iheap // occupancy buckets; they share one machine-id index
	events   *iheap  // pending departures, keyed (time, handle)
	// owner maps a departure handle — its index, handles count up from 0 —
	// to the local machine running the job; released handles hold −1.
	owner []int32

	nLat, nBatch, maxInst int
	nGens, nLevels        int

	// Utilisation integrals. taxNow is exactly 0.0 whenever the isolation
	// ladder is off, so the integral never perturbs pre-isolation results.
	busyNow, ctxNow, baseNow int
	taxNow                   float64
	lastT                    float64
	res                      shardResult
}

// bucketIdx flattens machine state (generation, isolation level, lat,
// resident batch or −1, n) to its occupancy bucket. batchState 0 is
// "empty"; 1+b is "running batch b". Homogeneous, non-isolated fleets
// collapse to (gen, level) = (0, 0), reproducing the historical index.
func (s *shardSim) bucketIdx(gen, level, lat, batchState, n int) int {
	return (((gen*s.nLevels+level)*s.nLat+lat)*(s.nBatch+1)+batchState)*(s.maxInst+1) + n
}

func (s *shardSim) stateOf(m *simMachine) int {
	if m.batch < 0 {
		return s.bucketIdx(int(m.gen), int(m.level), int(m.lat), 0, 0)
	}
	return s.bucketIdx(int(m.gen), int(m.level), int(m.lat), 1+int(m.batch), int(m.n))
}

// genOf maps a global machine id to its generation: the id's slot in the
// repeating ΣCounts-long generation pattern, so membership is stable
// across churn and identical in every shard layout.
func (s *shardSim) genOf(global int64) int {
	cum := s.w.genCum
	if len(cum) == 0 {
		return 0
	}
	idx := int(global % int64(cum[len(cum)-1]))
	for g, c := range cum {
		if idx < c {
			return g
		}
	}
	return len(cum) - 1
}

// globalMachine is the fleet-wide id of shard's local machine: machines
// are dealt to the shards cells round-robin.
func globalMachine(shard, shards int, local int32) int64 {
	return int64(shard) + int64(local)*int64(shards)
}

// account integrates utilisation up to now.
func (s *shardSim) account(now float64) {
	dt := now - s.lastT
	if dt > 0 && s.ctxNow > 0 {
		s.res.busyInt += float64(s.busyNow) * dt
		s.res.ctxInt += float64(s.ctxNow) * dt
		s.res.baseInt += float64(s.baseNow) * dt
		s.res.taxInt += s.taxNow * dt
		if u := float64(s.busyNow) / float64(s.ctxNow); u > s.res.peak {
			s.res.peak = u
		}
	}
	s.lastT = now
}

// addMachine brings a machine up running latency app lat.
func (s *shardSim) addMachine(lat int) int32 {
	local := int32(len(s.machines))
	gen := s.genOf(globalMachine(s.shard, s.cfg.Shards, local))
	s.machines = append(s.machines, simMachine{lat: int16(lat), batch: -1, gen: int16(gen)})
	m := &s.machines[local]
	s.upIDs = append(s.upIDs, local) // ids are monotone, so append keeps order
	s.buckets[s.stateOf(m)].Push(0, 0, int64(local))
	s.busyNow += s.w.geoms[gen].threads
	s.baseNow += s.w.geoms[gen].threads
	s.ctxNow += s.w.geoms[gen].contexts
	return local
}

// dropMachine decommissions the up machine with the given rank, cancelling
// its pending departures via the indexed heap.
func (s *shardSim) dropMachine(rank float64) {
	if len(s.upIDs) == 0 {
		return
	}
	i := int(rank * float64(len(s.upIDs)))
	if i >= len(s.upIDs) {
		i = len(s.upIDs) - 1
	}
	local := s.upIDs[i]
	s.upIDs = append(s.upIDs[:i], s.upIDs[i+1:]...)
	m := &s.machines[local]
	s.buckets[s.stateOf(m)].Remove(int64(local))
	for _, h := range m.jobs {
		s.events.Remove(h)
		s.owner[h] = -1
		s.res.evicted++
	}
	geom := s.w.geoms[m.gen]
	s.busyNow -= geom.threads + int(m.n)
	s.baseNow -= geom.threads
	s.ctxNow -= geom.contexts
	s.taxNow -= s.taxOf(m)
	m.jobs = m.jobs[:0]
	m.batch, m.n, m.level = -1, 0, 0
	s.res.downs++
}

// place puts one instance of batch b on local machine id, scheduling its
// departure, then hands the landed instance to the policy's placed hook.
// The hook also owns the placement's throughput-tax delta: the isolation
// ladder may re-level the machine under it, and only the ladder has a tax.
func (s *shardSim) place(local int32, b int, at, duration float64) {
	m := &s.machines[local]
	s.buckets[s.stateOf(m)].Remove(int64(local))
	m.batch = int16(b)
	m.n++
	h := int64(len(s.owner))
	s.owner = append(s.owner, local)
	s.events.Push(at+duration, uint64(h), h)
	m.jobs = append(m.jobs, h)
	s.busyNow++
	s.res.placed++
	s.buckets[s.stateOf(m)].Push(0, 0, int64(local))
	s.res.log.entries = append(s.res.log.entries, logEntry{At: at, Machine: local, Batch: int16(b), N: m.n})
	s.adm.placed(local, b, s.w.tables[m.gen].Cell(int(m.lat), b, int(m.n)), at)
}

// depart completes the job behind a popped departure event.
func (s *shardSim) depart(h int64) {
	local := s.owner[h]
	if local < 0 {
		panic("cluster: departure of a released job handle")
	}
	s.owner[h] = -1
	m := &s.machines[local]
	for i, jh := range m.jobs {
		if jh == h {
			m.jobs = append(m.jobs[:i], m.jobs[i+1:]...)
			break
		}
	}
	s.buckets[s.stateOf(m)].Remove(int64(local))
	oldTax := s.taxOf(m)
	m.n--
	if m.n == 0 {
		// Draining the last instance also disengages isolation: an empty
		// machine returns to the unpartitioned, unthrottled pool.
		m.batch = -1
		m.level = 0
	}
	s.buckets[s.stateOf(m)].Push(0, 0, int64(local))
	s.taxNow += s.taxOf(m) - oldTax
	s.busyNow--
	s.res.departed++
}

// ctxCheckInterval bounds how stale a cancellation can go unnoticed in
// the per-shard event loop.
const ctxCheckInterval = 1 << 16

func runShard(ctx context.Context, cfg *SimConfig, w *simWorld, shard int, exo []clworkload.Event) (shardResult, error) {
	nLat, nBatch := cfg.Workload.Lats, cfg.Workload.Batches
	s := &shardSim{
		cfg: cfg, w: w, t: w.tables[0], shard: shard,
		nLat: nLat, nBatch: nBatch, maxInst: w.tables[0].MaxInstances,
		nGens: len(w.tables), nLevels: max(1, len(w.levels)),
		events: newIheap(),
	}
	spec, _ := policyOf(cfg.Policy)
	s.adm = spec.newShard(s)
	s.buckets = sharedIheaps(s.nGens * s.nLevels * nLat * (nBatch + 1) * (s.maxInst + 1))
	// Every arrival logs exactly one entry and takes at most one departure
	// handle, so sizing both from the arrivals keeps the event loop from
	// regrowing them; migrations log into their own list and reuse the
	// migrated job's handle.
	arrivals := 0
	for i := range exo {
		if exo[i].Kind == clworkload.KindJobArrive {
			arrivals++
		}
	}
	s.res.log.entries = make([]logEntry, 0, arrivals)
	s.owner = make([]int32, 0, arrivals)

	// Initial fleet: machines are dealt to shards round-robin, and their
	// latency apps round-robin over the population, so shard membership is
	// a pure function of the global machine id.
	for g := shard; g < cfg.Workload.Machines; g += cfg.Shards {
		s.addMachine(g % nLat)
	}
	s.res.machinesStart = len(s.upIDs)

	horizon := cfg.Workload.Horizon
	for ci := 0; ; {
		// Two-way deterministic merge: pending departures fire before
		// exogenous events at the same instant (capacity frees first).
		var at float64
		useDeparture := false
		switch {
		case s.events.Len() > 0 && ci < len(exo):
			at = exo[ci].At
			if d := s.events.Min().at; d <= at {
				at, useDeparture = d, true
			}
		case s.events.Len() > 0:
			at, useDeparture = s.events.Min().at, true
		case ci < len(exo):
			at = exo[ci].At
		default:
			at = horizon
		}
		if at >= horizon {
			break
		}
		if s.res.events%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return shardResult{}, err
			}
		}
		s.account(at)
		s.res.events++
		if useDeparture {
			s.depart(s.events.Pop().handle)
			continue
		}
		ev := exo[ci]
		ci++
		switch ev.Kind {
		case clworkload.KindMachineUp:
			s.addMachine(ev.Lat())
			s.res.ups++
		case clworkload.KindMachineDown:
			s.dropMachine(ev.Rank())
		case clworkload.KindJobArrive:
			s.res.arrived++
			b := ev.Batch()
			if local := s.adm.pick(b); local >= 0 {
				s.place(local, b, ev.At, ev.Duration())
			} else {
				s.res.rejected++
				s.res.log.entries = append(s.res.log.entries, logEntry{At: ev.At, Machine: -1, Batch: int16(b)})
			}
		default:
			return shardResult{}, fmt.Errorf("unknown event kind %d at seq %d", ev.Kind, ev.Seq)
		}
	}
	s.account(horizon)
	s.res.machinesEnd = len(s.upIDs)
	s.res.log.lats = make([]int16, len(s.machines))
	for i := range s.machines {
		s.res.log.lats[i] = s.machines[i].lat
	}
	return s.res, nil
}
