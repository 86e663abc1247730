package cluster

import "repro/internal/slo"

// Summary is the stable machine-readable aggregate of a discrete-event
// run, emitted by `clustersim -summary-json`. Its schema is versioned and
// pinned by a test so future benchci entries can gate fleet-level metrics
// (utilisation, SLO violations) on it without chasing field renames:
// additions bump nothing, renames/removals bump SummarySchemaVersion.
type Summary struct {
	SchemaVersion int     `json:"schema_version"`
	Policy        string  `json:"policy"`
	QoS           string  `json:"qos"`
	Target        float64 `json:"target"`

	Machines struct {
		Start int `json:"start"`
		End   int `json:"end"`
		Ups   int `json:"ups"`
		Downs int `json:"downs"`
	} `json:"machines"`

	Events struct {
		Total    int `json:"total"`
		Arrived  int `json:"arrived"`
		Placed   int `json:"placed"`
		Rejected int `json:"rejected"`
		Departed int `json:"departed"`
		Evicted  int `json:"evicted"`
	} `json:"events"`

	Utilization struct {
		Baseline float64 `json:"baseline"`
		Mean     float64 `json:"mean"`
		Peak     float64 `json:"peak"`
	} `json:"utilization"`

	SLO struct {
		Violations    int     `json:"violations"`
		ViolationFrac float64 `json:"violation_frac"`
	} `json:"slo"`

	// Saturation is the capacity-vs-demand signal over the whole run:
	// the fraction of arrivals the policy rejected, mapped onto a
	// scale-up/steady/scale-down signal under the same thresholds qosd's
	// live saturation analyzer uses (schema addition, version unchanged).
	Saturation SaturationSummary `json:"saturation"`

	// Baseline, when present, is the comparison run clustersim attaches:
	// the same event streams re-simulated under PolicySMiTe for
	// `-policy=slo`, or under the static PolicySLO gate for
	// `-policy=closedloop`, so violation rate and utilization can be
	// compared side by side (schema addition, version unchanged).
	Baseline *BaselineSummary `json:"baseline,omitempty"`

	// ClosedLoop, present for PolicyClosedLoop runs, counts the loop's
	// activity: confirmed drift detections, pair re-characterizations and
	// instance migrations (schema addition, version unchanged).
	ClosedLoop *ClosedLoopSummary `json:"closed_loop,omitempty"`

	// Isolation summarises the hardware QoS-enforcement activity. Always
	// present (schema addition, version unchanged): Enabled is false and
	// every counter zero under the other policies, so consumers can key on
	// the block unconditionally.
	Isolation IsolationSummary `json:"isolation"`
}

// IsolationSummary is PolicyIsolation's enforcement-ladder aggregate.
type IsolationSummary struct {
	Enabled bool `json:"enabled"`
	// Levels is the ladder depth (including the identity level 0).
	Levels int `json:"levels"`
	// Escalations counts level changes; Resolved the violations an engaged
	// operating point absorbed without migrating anything; Migrations the
	// last-resort moves after the ladder was exhausted.
	Escalations int `json:"escalations"`
	Resolved    int `json:"resolved"`
	Migrations  int `json:"migrations"`
	// ThroughputTax is the machine-time-weighted mean fraction of batch
	// throughput forfeited to engaged isolation levels.
	ThroughputTax float64 `json:"throughput_tax"`
}

// ClosedLoopSummary is the closed-loop controller's activity aggregate.
type ClosedLoopSummary struct {
	Detections       int `json:"detections"`
	Recharacterized  int `json:"recharacterized"`
	Migrations       int `json:"migrations"`
	MigrationsFailed int `json:"migrations_failed"`
}

// SaturationSummary mirrors qosd's SaturationReport for a whole simulated
// run.
type SaturationSummary struct {
	// RejectionFrac is rejected arrivals over all arrivals.
	RejectionFrac float64 `json:"rejection_frac"`
	// Signal is scale_up, steady, or scale_down.
	Signal             string  `json:"signal"`
	ScaleUpThreshold   float64 `json:"scale_up_threshold"`
	ScaleDownThreshold float64 `json:"scale_down_threshold"`
}

// BaselineSummary is the comparison policy's headline numbers.
type BaselineSummary struct {
	Policy          string  `json:"policy"`
	Placed          int     `json:"placed"`
	Rejected        int     `json:"rejected"`
	Violations      int     `json:"violations"`
	ViolationFrac   float64 `json:"violation_frac"`
	MeanUtilization float64 `json:"mean_utilization"`
	PeakUtilization float64 `json:"peak_utilization"`
}

// SummarySchemaVersion identifies the Summary JSON schema.
const SummarySchemaVersion = 1

// Summary reduces the result to its stable serialisable aggregate.
func (r SimResult) Summary() Summary {
	var s Summary
	s.SchemaVersion = SummarySchemaVersion
	s.Policy = r.Policy.String()
	s.QoS = r.QoS.String()
	s.Target = r.Target
	s.Machines.Start = r.MachinesStart
	s.Machines.End = r.MachinesEnd
	s.Machines.Ups = r.MachineUps
	s.Machines.Downs = r.MachineDowns
	s.Events.Total = r.Events
	s.Events.Arrived = r.Arrived
	s.Events.Placed = r.Placed
	s.Events.Rejected = r.Rejected
	s.Events.Departed = r.Departed
	s.Events.Evicted = r.Evicted
	s.Utilization.Baseline = r.BaselineUtilization
	s.Utilization.Mean = r.MeanUtilization
	s.Utilization.Peak = r.PeakUtilization
	s.SLO.Violations = r.Violations
	s.SLO.ViolationFrac = r.ViolationFrac
	if r.Arrived > 0 {
		s.Saturation.RejectionFrac = float64(r.Rejected) / float64(r.Arrived)
	}
	s.Saturation.Signal = slo.SaturationSignal(s.Saturation.RejectionFrac)
	s.Saturation.ScaleUpThreshold = slo.DefaultScaleUpThreshold
	s.Saturation.ScaleDownThreshold = slo.DefaultScaleDownThreshold
	if r.Policy == PolicyClosedLoop {
		s.ClosedLoop = &ClosedLoopSummary{
			Detections:       r.Detections,
			Recharacterized:  r.Recharacterized,
			Migrations:       r.Migrations,
			MigrationsFailed: r.MigrationsFailed,
		}
	}
	if r.Policy == PolicyIsolation {
		s.Isolation.Enabled = true
		s.Isolation.Levels = r.IsolationLevels
		s.Isolation.Escalations = r.Isolations
		s.Isolation.Resolved = r.IsolationResolved
		s.Isolation.Migrations = r.Migrations
		s.Isolation.ThroughputTax = r.IsolationTax
	}
	return s
}

// BaselineSummary reduces a comparison run to the fields Summary.Baseline
// carries.
func (r SimResult) BaselineSummary() *BaselineSummary {
	return &BaselineSummary{
		Policy:          r.Policy.String(),
		Placed:          r.Placed,
		Rejected:        r.Rejected,
		Violations:      r.Violations,
		ViolationFrac:   r.ViolationFrac,
		MeanUtilization: r.MeanUtilization,
		PeakUtilization: r.PeakUtilization,
	}
}
