// Package slo is the predictive SLO admission vocabulary (DESIGN.md §13):
// SLO classes with per-class tail-latency budgets and their flag grammar,
// the pure Eq. 6 budget check EvaluateAdmission, and the saturation signal
// that turns a rejection rate into a capacity-vs-demand verdict. The qosd
// daemon (POST /v1/admit) and the cluster simulator's SLO-gated policies
// both decide through this package, so it sits below either of them and
// imports nothing but internal/queueing.
package slo

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/queueing"
)

// SLOClass is one quality-of-service class an admission request names:
// a tail-latency budget at a percentile. The canonical trio is
// critical / standard / sheddable (DefaultSLOClasses), but any set of
// uniquely-named classes works.
type SLOClass struct {
	// Name identifies the class in requests and metrics.
	Name string `json:"name"`
	// Budget is the tail-latency budget in seconds: the largest Eq. 6
	// percentile latency the class tolerates.
	Budget float64 `json:"budget"`
	// Percentile is the SLO percentile in (0,1) the budget applies to
	// (0.95 means "95th-percentile latency within Budget").
	Percentile float64 `json:"percentile"`
}

// Saturation-signal thresholds: a rejection rate at or above
// DefaultScaleUpThreshold means demand exceeds capacity, at or below
// DefaultScaleDownThreshold means capacity is slack (SaturationSignal).
const (
	DefaultScaleUpThreshold   = 0.2
	DefaultScaleDownThreshold = 0.05
)

// DefaultSLOClasses returns the canonical three-class set: critical
// (20 ms p95), standard (60 ms p95), sheddable (150 ms p90).
func DefaultSLOClasses() []SLOClass {
	return []SLOClass{
		{Name: "critical", Budget: 0.020, Percentile: 0.95},
		{Name: "standard", Budget: 0.060, Percentile: 0.95},
		{Name: "sheddable", Budget: 0.150, Percentile: 0.90},
	}
}

// CheckHeadroom rejects an admission headroom outside [0,1), NaN included.
func CheckHeadroom(h float64) error {
	if !(h >= 0 && h < 1) {
		return fmt.Errorf("slo: headroom %g outside [0,1)", h)
	}
	return nil
}

// Validate rejects an admission configuration the gate cannot evaluate: a
// class set that is empty, unnamed, duplicated, or carries a budget that
// is not positive and finite or a percentile outside (0,1); or a headroom
// outside [0,1).
func Validate(classes []SLOClass, headroom float64) error {
	if len(classes) == 0 {
		return fmt.Errorf("slo: need at least one class")
	}
	seen := make(map[string]bool, len(classes))
	for _, cl := range classes {
		if cl.Name == "" {
			return fmt.Errorf("slo: class with empty name")
		}
		if seen[cl.Name] {
			return fmt.Errorf("slo: duplicate class %q", cl.Name)
		}
		seen[cl.Name] = true
		if !(cl.Budget > 0) || math.IsInf(cl.Budget, 0) {
			return fmt.Errorf("slo: class %q budget %g must be positive and finite", cl.Name, cl.Budget)
		}
		if !(cl.Percentile > 0 && cl.Percentile < 1) {
			return fmt.Errorf("slo: class %q percentile %g outside (0,1)", cl.Name, cl.Percentile)
		}
	}
	return CheckHeadroom(headroom)
}

// ParseSLOClasses parses a comma-separated class spec of the form
// "name:budget[:percentile]" — budget as a Go duration ("20ms"),
// percentile defaulting to 0.95 — e.g.
// "critical:20ms:0.95,standard:60ms:0.95,sheddable:150ms:0.90".
// Both cmd/smited (-slo-config) and cmd/clustersim (-slo-classes) parse
// their flags through this one function so the two CLIs reject exactly
// the same malformed specs. Every class set it returns passes Validate.
func ParseSLOClasses(spec string) ([]SLOClass, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("empty SLO class spec")
	}
	var classes []SLOClass
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("empty class entry in %q", spec)
		}
		fields := strings.Split(part, ":")
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("class %q is not name:budget[:percentile]", part)
		}
		name := strings.TrimSpace(fields[0])
		budget, err := time.ParseDuration(strings.TrimSpace(fields[1]))
		if err != nil {
			return nil, fmt.Errorf("class %q: budget: %v", name, err)
		}
		p := 0.95
		if len(fields) == 3 {
			p, err = strconv.ParseFloat(strings.TrimSpace(fields[2]), 64)
			if err != nil {
				return nil, fmt.Errorf("class %q: percentile: %v", name, err)
			}
		}
		classes = append(classes, SLOClass{Name: name, Budget: budget.Seconds(), Percentile: p})
	}
	if err := Validate(classes, 0); err != nil {
		return nil, err
	}
	return classes, nil
}

// Admission reasons, reported in AdmitDecision.Reason (and on the wire in
// qosd's AdmitResponse.Reason).
const (
	// AdmitReasonOK: the inflated tail estimate fits the effective budget.
	AdmitReasonOK = "ok"
	// AdmitReasonBudgetExceeded: the queue stays stable but the inflated
	// Eq. 6 tail estimate exceeds Budget·(1−Headroom).
	AdmitReasonBudgetExceeded = "budget_exceeded"
	// AdmitReasonSaturated: the inflated degradation pushes the queue at
	// or past saturation (μ' ≤ λ) — tail latency is unbounded, so the
	// co-location is rejected for every finite budget.
	AdmitReasonSaturated = "saturated"
)

// AdmitDecision is the outcome of one EvaluateAdmission call.
type AdmitDecision struct {
	// Admitted reports whether the co-location fits the class budget.
	Admitted bool
	// Reason is one of the AdmitReason* constants.
	Reason string
	// EffectiveDegradation is the budget-checked degradation: the
	// prediction inflated by its error bound (bound is 0 on engine-tier
	// answers, so inflation only applies to surrogate answers).
	EffectiveDegradation float64
	// Tail is the Eq. 6 percentile latency at the inflated degradation,
	// in seconds; +Inf when Saturated.
	Tail float64
	// EffectiveBudget is Budget·(1−Headroom), the value Tail was checked
	// against.
	EffectiveBudget float64
	// Saturated reports an unbounded tail (μ' ≤ λ at the inflated
	// degradation, or a non-finite degradation).
	Saturated bool
}

// EvaluateAdmission is the pure admission check behind POST /v1/admit
// and the simulator's SLO gate: inflate the predicted degradation by its
// error bound, run it through Equation 6 at the class percentile, and
// admit only if the resulting tail estimate fits the class budget minus
// the configured headroom. Saturated queues — including deg = 1 exactly
// and non-finite degradations from corrupt profiles — are always
// rejected.
//
// The check is deliberately conservative on both axes: the error bound
// is added (the surrogate may have under-predicted) and the budget is
// shrunk by the headroom (the model may be wrong in ways the bound does
// not capture). internal/simtest pins the resulting monotonicity laws:
// a tighter budget or a larger headroom never admits what the looser
// setting rejected.
func EvaluateAdmission(deg, bound, mu, lambda float64, class SLOClass, headroom float64) AdmitDecision {
	if headroom < 0 || math.IsNaN(headroom) {
		headroom = 0
	}
	d := AdmitDecision{
		EffectiveDegradation: deg + bound,
		EffectiveBudget:      class.Budget * (1 - headroom),
	}
	d.Tail = queueing.DegradedPercentile(class.Percentile, mu, lambda, d.EffectiveDegradation)
	switch {
	case math.IsInf(d.Tail, 1):
		d.Saturated = true
		d.Reason = AdmitReasonSaturated
	case d.Tail <= d.EffectiveBudget:
		d.Admitted = true
		d.Reason = AdmitReasonOK
	default:
		d.Reason = AdmitReasonBudgetExceeded
	}
	return d
}

// Saturation signals, reported by SaturationSignal.
const (
	// SignalScaleUp: rejection rate at or above the scale-up threshold —
	// demand exceeds the fleet's admissible capacity.
	SignalScaleUp = "scale_up"
	// SignalSteady: rejection rate between the thresholds.
	SignalSteady = "steady"
	// SignalScaleDown: rejection rate at or below the scale-down
	// threshold — capacity is slack.
	SignalScaleDown = "scale_down"
)

// SaturationSignal maps a rejection rate onto a scaling signal at the
// default thresholds. Shared by the daemon's live analyzer and the cluster
// simulator's Summary so both report the same semantics.
func SaturationSignal(rejectionRate float64) string {
	switch {
	case rejectionRate >= DefaultScaleUpThreshold:
		return SignalScaleUp
	case rejectionRate <= DefaultScaleDownThreshold:
		return SignalScaleDown
	default:
		return SignalSteady
	}
}
