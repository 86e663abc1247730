package cluster

import (
	"fmt"
	"math"

	"repro/internal/qosd"
	"repro/internal/queueing"
)

// This file wires qosd's predictive SLO admission gate (DESIGN.md §13)
// into the discrete-event simulator as PolicySLO: instead of a QoS-floor
// best-fit, placements are admitted against per-class tail-latency
// budgets using the error-bound-inflated Eq. 6 estimate — exactly the
// check POST /v1/admit runs, evaluated once per (lat, batch, n) cell so
// the event loop stays pure array lookups.

// SLOSimClass maps one latency application population onto an SLO class:
// the qosd budget/percentile pair plus the service's M/M/1 rates, which
// the serving daemon receives per-request but the simulator must fix up
// front.
type SLOSimClass struct {
	Name       string  `json:"name"`
	Budget     float64 `json:"budget"` // seconds
	Percentile float64 `json:"percentile"`
	// Mu and Lambda are the class's solo per-thread service and arrival
	// rates (requests/second).
	Mu     float64 `json:"mu"`
	Lambda float64 `json:"lambda"`
}

// SLOSimParams parameterises SLO-gated simulation. Latency app i is
// assigned Classes[i % len(Classes)], so the canonical three-class set
// spreads round-robin over any population size.
type SLOSimParams struct {
	Classes []SLOSimClass `json:"classes"`
	// Headroom shrinks every budget to Budget·(1−Headroom) for admission
	// (violation accounting uses the full budget).
	Headroom float64 `json:"headroom"`
	// ScaleUpThreshold / ScaleDownThreshold parameterise the Summary's
	// saturation signal; zero picks qosd's defaults.
	ScaleUpThreshold   float64 `json:"scale_up_threshold,omitempty"`
	ScaleDownThreshold float64 `json:"scale_down_threshold,omitempty"`
}

func (p *SLOSimParams) withDefaults() *SLOSimParams {
	if p == nil {
		return nil
	}
	q := *p
	if q.ScaleUpThreshold == 0 {
		q.ScaleUpThreshold = qosd.DefaultScaleUpThreshold
	}
	if q.ScaleDownThreshold == 0 {
		q.ScaleDownThreshold = qosd.DefaultScaleDownThreshold
	}
	return &q
}

// Validate rejects parameter sets the gate cannot evaluate.
func (p *SLOSimParams) Validate() error {
	if p == nil {
		return fmt.Errorf("cluster: SLO policy needs SLO parameters")
	}
	if len(p.Classes) == 0 {
		return fmt.Errorf("cluster: SLO parameters need at least one class")
	}
	seen := make(map[string]bool, len(p.Classes))
	for _, cl := range p.Classes {
		if cl.Name == "" {
			return fmt.Errorf("cluster: SLO class with empty name")
		}
		if seen[cl.Name] {
			return fmt.Errorf("cluster: duplicate SLO class %q", cl.Name)
		}
		seen[cl.Name] = true
		if !(cl.Budget > 0) || math.IsInf(cl.Budget, 0) {
			return fmt.Errorf("cluster: SLO class %q budget %g must be positive and finite", cl.Name, cl.Budget)
		}
		if cl.Percentile <= 0 || cl.Percentile >= 1 {
			return fmt.Errorf("cluster: SLO class %q percentile %g outside (0,1)", cl.Name, cl.Percentile)
		}
		if cl.Mu <= 0 || cl.Lambda <= 0 {
			return fmt.Errorf("cluster: SLO class %q queue rates must be positive (mu=%g, lambda=%g)",
				cl.Name, cl.Mu, cl.Lambda)
		}
	}
	if p.Headroom < 0 || p.Headroom >= 1 || math.IsNaN(p.Headroom) {
		return fmt.Errorf("cluster: SLO headroom %g outside [0,1)", p.Headroom)
	}
	up, down := p.ScaleUpThreshold, p.ScaleDownThreshold
	if up == 0 {
		up = qosd.DefaultScaleUpThreshold
	}
	if down == 0 {
		down = qosd.DefaultScaleDownThreshold
	}
	if up <= down {
		return fmt.Errorf("cluster: scale-up threshold %g must exceed scale-down threshold %g", up, down)
	}
	return nil
}

// classFor returns the class assigned to latency application index lat.
func (p *SLOSimParams) classFor(lat int) SLOSimClass {
	return p.Classes[lat%len(p.Classes)]
}

// sloGate is the precomputed per-cell admission surface: for every
// (lat, batch, n) cell of the PredTable, whether the inflated predicted
// tail fits the effective budget, the admission slack used for best-fit
// scoring, and whether the *measured* degradation actually violates the
// class budget (the violation the Summary counts, for every policy run
// under SLO parameters — so greedy-vs-SLO comparisons count violations
// identically).
type sloGate struct {
	surface // slack is effectiveBudget − predictedTail; valid where admit
	violate []bool
}

// buildSLOGate evaluates the admission check once per cell, with an
// isolation level's DegScale folded in: the predicted degradation, its
// bound and the measured degradation all shrink by the level's shielding
// factor (1 without isolation), so each (generation, level) pair gets its
// own admission/violation surface and the event loop stays array lookups.
func buildSLOGate(t *PredTable, p *SLOSimParams, scale float64) (*sloGate, error) {
	if !t.HasDegradations() {
		return nil, fmt.Errorf("cluster: prediction table has no degradation surface (rebuild it with this version's BuildPredTable)")
	}
	cells := len(t.PredDeg)
	g := &sloGate{
		surface: surface{admit: make([]bool, cells), slack: make([]float64, cells)},
		violate: make([]bool, cells),
	}
	for l := 0; l < len(t.LatencyApps); l++ {
		cl := p.classFor(l)
		class := qosd.SLOClass{Name: cl.Name, Budget: cl.Budget, Percentile: cl.Percentile}
		for b := 0; b < len(t.BatchApps); b++ {
			for n := 1; n <= t.MaxInstances; n++ {
				i := t.Cell(l, b, n)
				dec := qosd.EvaluateAdmission(t.PredDeg[i]*scale, t.PredBound[i]*scale, cl.Mu, cl.Lambda, class, p.Headroom)
				g.admit[i] = dec.Admitted
				g.slack[i] = dec.EffectiveBudget - dec.Tail
				// Violations are measured against the full budget at the
				// true degradation, with no bound inflation and no
				// headroom: did the co-location actually blow the SLO?
				actualTail := queueing.DegradedPercentile(cl.Percentile, cl.Mu, cl.Lambda, t.ActualDeg[i]*scale)
				g.violate[i] = !(actualTail <= cl.Budget)
			}
		}
	}
	return g, nil
}
