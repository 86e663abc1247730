// Package cluster implements the paper's scale-out studies (Sections IV-C
// and IV-D): a warehouse-scale cluster whose servers each run a half-loaded
// latency-sensitive application (one thread per core, the sibling SMT
// contexts idle in the baseline), and a cluster scheduler that decides how
// many batch-application instances may be co-located on each server's idle
// contexts without violating the latency application's QoS target.
//
// Three policies are compared, as in the paper: SMiTe (predicted
// degradations steer admission), Oracle (measured degradations steer
// admission) and Random (interference-oblivious placement matched to
// SMiTe's utilisation gain, to expose the QoS violations prediction
// avoids).
package cluster

import (
	"fmt"

	"repro/internal/xrand"
)

// Entry records the measured and predicted degradation of a latency
// application co-located with a number of batch-application instances.
type Entry struct {
	Actual    float64
	Predicted float64
}

// Table is the co-location degradation table driving a study: one Entry
// per (latency app, batch app, instance count 1..MaxInstances).
type Table struct {
	LatencyApps  []string
	BatchApps    []string
	MaxInstances int
	entries      map[string]Entry
}

func tkey(lat, batch string, n int) string { return fmt.Sprintf("%s|%s|%d", lat, batch, n) }

// NewTable builds an empty table.
func NewTable(latencyApps, batchApps []string, maxInstances int) *Table {
	return &Table{
		LatencyApps:  append([]string(nil), latencyApps...),
		BatchApps:    append([]string(nil), batchApps...),
		MaxInstances: maxInstances,
		entries:      make(map[string]Entry),
	}
}

// Set stores the entry for (lat, batch, n).
func (t *Table) Set(lat, batch string, n int, e Entry) {
	t.entries[tkey(lat, batch, n)] = e
}

// Get fetches the entry for (lat, batch, n).
func (t *Table) Get(lat, batch string, n int) (Entry, error) {
	e, ok := t.entries[tkey(lat, batch, n)]
	if !ok {
		return Entry{}, fmt.Errorf("cluster: no table entry for %s|%s|%d", lat, batch, n)
	}
	return e, nil
}

// Complete verifies every (lat, batch, 1..MaxInstances) entry is present.
func (t *Table) Complete() error {
	for _, l := range t.LatencyApps {
		for _, b := range t.BatchApps {
			for n := 1; n <= t.MaxInstances; n++ {
				if _, err := t.Get(l, b, n); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// The Predictor seam (predictor.go) supplies predicted degradations from
// outside the table — for example the qosd serving daemon, whose answers
// BuildPredTable bakes into the PredTable a study places on instead of
// the table's own predictions.

// QoSKind selects how QoS is defined.
type QoSKind int

const (
	// QoSAvg defines QoS as retained average performance (1 − degradation).
	QoSAvg QoSKind = iota
	// QoSTail defines QoS as the solo-to-degraded ratio of the service's
	// percentile latency, which shrinks super-linearly with degradation
	// because of queueing.
	QoSTail
)

// String names the QoS kind.
func (k QoSKind) String() string {
	if k == QoSAvg {
		return "average-performance"
	}
	return "tail-latency"
}

// PolicyKind selects the admission policy.
type PolicyKind int

const (
	// PolicySMiTe admits on predicted degradations.
	PolicySMiTe PolicyKind = iota
	// PolicyOracle admits on measured degradations.
	PolicyOracle
	// PolicyRandom places the same total number of instances as SMiTe
	// would, but on randomly chosen servers without consulting
	// predictions.
	PolicyRandom
	// PolicySLO admits on the error-bound-inflated Eq. 6 tail-latency
	// estimate against per-class budgets (SimConfig.SLO), mirroring
	// qosd's POST /v1/admit gate inside the discrete-event simulator.
	PolicySLO
	// PolicyClosedLoop starts from the PolicySLO gate and closes the loop
	// (DESIGN.md §14): each shard runs a drift detector over its observed
	// degradations, re-characterizes confirmed (lat, batch) pairs against
	// the measured surface, re-scores its admission gate, and migrates the
	// worst-offending machine's newest instance off the drifted cell.
	PolicyClosedLoop
	// PolicyIsolation starts from the PolicySLO gate but actuates hardware
	// QoS enforcement before migrating (DESIGN.md §15): a violating
	// co-location escalates its machine through the discrete isolation
	// ladder (SimConfig.Isol — way partitions and bandwidth throttles
	// abstracted to their modeled shielding), and only when no operating
	// point clears the class budget does the instance migrate away.
	PolicyIsolation
)

// String names the policy.
func (k PolicyKind) String() string {
	switch k {
	case PolicySMiTe:
		return "SMiTe"
	case PolicyOracle:
		return "Oracle"
	case PolicyRandom:
		return "Random"
	case PolicySLO:
		return "SLO"
	case PolicyClosedLoop:
		return "ClosedLoop"
	case PolicyIsolation:
		return "Isolation"
	}
	return fmt.Sprintf("PolicyKind(%d)", int(k))
}

// Study describes one scale-out experiment.
type Study struct {
	// Table holds the predicted and measured QoS of every co-location
	// cell (BuildPredTable), under the QoS definition the study runs in.
	Table *PredTable
	// ServersPerApp is the number of servers dedicated to each latency
	// application (1,000 in the paper, 4,000 servers total).
	ServersPerApp int
	// ThreadsPerServer is the latency application's thread count per
	// server (6: one per core, half-loading the 12-context servers).
	ThreadsPerServer int
	// ContextsPerServer is the total hardware contexts per server (12).
	ContextsPerServer int
	// Seed drives batch-application arrival randomness.
	Seed uint64
}

// Result summarises one policy × QoS-target run.
type Result struct {
	Policy PolicyKind
	QoS    QoSKind
	Target float64

	// UtilizationGain is the relative increase in busy hardware contexts
	// over the no-co-location baseline (e.g. 0.42 = +42%).
	UtilizationGain float64
	// BaselineUtilization and Utilization are absolute context
	// utilisations before and after co-location.
	BaselineUtilization float64
	Utilization         float64
	// MeanInstances is the average number of batch instances per server.
	MeanInstances float64

	// ColocatedServers counts servers that received at least one batch
	// instance; ViolationFrac is the violating share of those (the paper's
	// server_violated/server_co-located); ViolationMean/Max the normalised
	// violation magnitudes ((target − actual)/target).
	ColocatedServers int
	ViolationFrac    float64
	ViolationMean    float64
	ViolationMax     float64

	// PerApp breaks utilisation gain down by latency application.
	PerApp map[string]float64
}

func (s *Study) validate() error {
	if s.Table == nil {
		return fmt.Errorf("cluster: study needs a table")
	}
	if err := s.Table.Validate(); err != nil {
		return err
	}
	if s.ServersPerApp <= 0 || s.ThreadsPerServer <= 0 || s.ContextsPerServer <= 0 {
		return fmt.Errorf("cluster: server geometry must be positive")
	}
	if s.ThreadsPerServer > s.ContextsPerServer {
		return fmt.Errorf("cluster: %d threads exceed %d contexts", s.ThreadsPerServer, s.ContextsPerServer)
	}
	if s.Table.MaxInstances > s.ContextsPerServer-s.ThreadsPerServer {
		return fmt.Errorf("cluster: %d instances exceed %d idle contexts", s.Table.MaxInstances, s.ContextsPerServer-s.ThreadsPerServer)
	}
	return nil
}

// Run executes the study for one policy at one QoS target, under the
// table's QoS definition. Each server draws a batch application; SMiTe
// admits the largest instance count whose predicted QoS meets the target,
// Oracle the largest whose measured QoS does, and every server is scored
// on the measured QoS at its admitted count.
func (s *Study) Run(policy PolicyKind, target float64) (Result, error) {
	if err := s.validate(); err != nil {
		return Result{}, err
	}
	if target <= 0 || target > 1 {
		return Result{}, fmt.Errorf("cluster: QoS target %.3f outside (0,1]", target)
	}
	pt := s.Table
	var admitOn []float64
	switch policy {
	case PolicySMiTe, PolicyRandom:
		admitOn = pt.PredQoS
	case PolicyOracle:
		admitOn = pt.ActualQoS
	default:
		return Result{}, fmt.Errorf("cluster: unknown policy %d", policy)
	}

	// Deterministic batch-application arrival per server; base[i] is the
	// server's Cell at n = 1. Admission picks the largest instance count
	// whose QoS stays within target.
	rng := xrand.New(s.Seed ^ 0xC1A5)
	nLat := len(pt.LatencyApps)
	base := make([]int, nLat*s.ServersPerApp)
	counts := make([]int, len(base))
	for i := range base {
		base[i] = pt.Cell(i/s.ServersPerApp, rng.Intn(len(pt.BatchApps)), 1)
		for n := 1; n <= pt.MaxInstances; n++ {
			if admitOn[base[i]+n-1] >= target {
				counts[i] = n
			}
		}
	}
	if policy == PolicyRandom {
		// Match SMiTe's utilisation: deal the same multiset of instance
		// counts to random servers.
		perm := rng.Perm(len(counts))
		dealt := make([]int, len(counts))
		for i := range dealt {
			dealt[i] = counts[perm[i]]
		}
		counts = dealt
	}

	// Scoring: every co-located server against its measured QoS.
	res := Result{
		Policy: policy, QoS: pt.QoS, Target: target,
		PerApp: make(map[string]float64, nLat),
	}
	total, violations := 0, 0
	var violSum, violMax float64
	perApp := make([]int, nLat)
	for i, n := range counts {
		total += n
		perApp[i/s.ServersPerApp] += n
		if n == 0 {
			continue
		}
		res.ColocatedServers++
		if q := pt.ActualQoS[base[i]+n-1]; q < target {
			violations++
			m := (target - q) / target
			violSum += m
			violMax = max(violMax, m)
		}
	}
	nServers := len(counts)
	busyBase := float64(s.ThreadsPerServer * nServers)
	res.BaselineUtilization = busyBase / float64(s.ContextsPerServer*nServers)
	res.Utilization = (busyBase + float64(total)) / float64(s.ContextsPerServer*nServers)
	res.UtilizationGain = float64(total) / busyBase
	res.MeanInstances = float64(total) / float64(nServers)
	for l, n := range perApp {
		res.PerApp[pt.LatencyApps[l]] = float64(n) / float64(s.ThreadsPerServer*s.ServersPerApp)
	}
	if res.ColocatedServers > 0 {
		res.ViolationFrac = float64(violations) / float64(res.ColocatedServers)
		if violations > 0 {
			res.ViolationMean = violSum / float64(violations)
		}
	}
	res.ViolationMax = violMax
	return res, nil
}
