package cluster

import (
	"fmt"
	"math"

	"repro/internal/queueing"
	"repro/internal/slo"
)

// This file wires the predictive SLO admission gate (DESIGN.md §13)
// into the discrete-event simulator as PolicySLO: instead of a QoS-floor
// best-fit, placements are admitted against per-class tail-latency
// budgets using the error-bound-inflated Eq. 6 estimate — exactly the
// check POST /v1/admit runs, evaluated once per (lat, batch, n) cell by
// buildGate (policy.go) so the event loop stays pure array lookups.

// SLOSimClass maps one latency application population onto an SLO class:
// the slo budget/percentile pair plus the service's M/M/1 rates, which
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
}

// Validate rejects parameter sets the gate cannot evaluate.
func (p *SLOSimParams) Validate() error {
	if p == nil {
		return fieldError("slo", "SLO policy needs SLO parameters")
	}
	if err := slo.CheckHeadroom(p.Headroom); err != nil {
		return nested("headroom", err)
	}
	classes := make([]slo.SLOClass, len(p.Classes))
	for i, cl := range p.Classes {
		if !(cl.Mu > 0) || math.IsInf(cl.Mu, 0) {
			return fieldError(fmt.Sprintf("classes[%d].mu", i), "SLO class %q service rate %g must be positive and finite", cl.Name, cl.Mu)
		}
		if !(cl.Lambda > 0) || math.IsInf(cl.Lambda, 0) {
			return fieldError(fmt.Sprintf("classes[%d].lambda", i), "SLO class %q arrival rate %g must be positive and finite", cl.Name, cl.Lambda)
		}
		classes[i] = cl.Class()
	}
	// The headroom passed CheckHeadroom above, so slo.Validate judges the
	// class set alone.
	return nested("classes", slo.Validate(classes, p.Headroom))
}

// Class is the admission class the gate checks c against.
func (c SLOSimClass) Class() slo.SLOClass {
	return slo.SLOClass{Name: c.Name, Budget: c.Budget, Percentile: c.Percentile}
}

// violated reports whether a measured degradation blows the class SLO:
// the Eq. 6 tail at the true degradation, with no bound inflation and no
// headroom, against the full budget.
func (c SLOSimClass) violated(actualDeg float64) bool {
	return !(queueing.DegradedPercentile(c.Percentile, c.Mu, c.Lambda, actualDeg) <= c.Budget)
}

// classFor returns the class assigned to latency application index lat.
func (p *SLOSimParams) classFor(lat int) SLOSimClass {
	return p.Classes[lat%len(p.Classes)]
}
