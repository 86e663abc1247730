package qosd

import (
	"sync"

	"repro/internal/isol"
	"repro/internal/slo"
)

// This file is the daemon side of the predictive SLO admission gate
// (DESIGN.md §13): the gate's configuration, the isolation-remedy search
// behind a rejected POST /v1/admit, and the saturation analyzer that
// turns the recent admit/reject stream into a capacity-vs-demand scaling
// signal. The decision math itself lives in internal/slo.

// The qosd names of the slo admission vocabulary, kept for callers that
// predate internal/slo; new code uses package slo.
type (
	SLOClass      = slo.SLOClass
	AdmitDecision = slo.AdmitDecision
)

// EvaluateAdmission is slo.EvaluateAdmission.
func EvaluateAdmission(deg, bound, mu, lambda float64, class SLOClass, headroom float64) AdmitDecision {
	return slo.EvaluateAdmission(deg, bound, mu, lambda, class, headroom)
}

// DefaultSLOClasses is slo.DefaultSLOClasses.
func DefaultSLOClasses() []SLOClass { return slo.DefaultSLOClasses() }

// SLOConfig parameterises the admission gate.
type SLOConfig struct {
	// Classes are the admissible SLO classes; requests name one.
	Classes []slo.SLOClass `json:"classes"`
	// Headroom reserves a fraction of every class budget in [0, 1): the
	// gate admits against Budget·(1−Headroom), so predictions that land
	// within Headroom of the budget are rejected as too close to call.
	Headroom float64 `json:"headroom"`
}

// DefaultSaturationWindow is the number of recent decisions the
// analyzer's rejection rate is computed over; the rate maps onto a
// scaling signal at slo's default thresholds (slo.SaturationSignal).
const DefaultSaturationWindow = 256

func (c SLOConfig) withDefaults() SLOConfig {
	if len(c.Classes) == 0 {
		c.Classes = slo.DefaultSLOClasses()
	}
	return c
}

// Validate rejects configurations the gate cannot serve. NewServer
// trusts its config, so a caller assembling one validates it first.
func (c SLOConfig) Validate() error {
	c = c.withDefaults()
	return slo.Validate(c.Classes, c.Headroom)
}

// Class resolves a class by name.
func (c SLOConfig) Class(name string) (slo.SLOClass, bool) {
	for _, cl := range c.Classes {
		if cl.Name == name {
			return cl, true
		}
	}
	return slo.SLOClass{}, false
}

// SuggestIsolation is the remedy search behind a rejected admission:
// walk the enforcement ladder from its weakest engaged level and return
// the first one whose DegScale — applied to both the prediction and its
// error bound, exactly as the cluster simulator scales a machine's
// degradation surface — turns the decision into an admit. Returns nil
// when no level clears the budget (the ladder cannot save this pair) or
// when the ladder has no engaged levels. A nil levels slice means the
// stock isol.DefaultSettings ladder.
//
// Because ValidateSettings pins DegScale as non-increasing across the
// ladder, the first admitting level is also the cheapest in throughput
// tax — the suggestion is always the minimal actuation.
func SuggestIsolation(deg, bound, mu, lambda float64, class slo.SLOClass, headroom float64, levels []isol.Setting) *IsolationRemedy {
	if levels == nil {
		levels = isol.DefaultSettings()
	}
	for l := 1; l < len(levels); l++ {
		scale := levels[l].DegScale
		d := slo.EvaluateAdmission(deg*scale, bound*scale, mu, lambda, class, headroom)
		if d.Admitted {
			return &IsolationRemedy{
				Level:                l,
				Setting:              levels[l],
				EffectiveDegradation: d.EffectiveDegradation,
				TailLatency:          d.Tail,
			}
		}
	}
	return nil
}

// sloClassCounters accumulates one class's lifetime decisions.
type sloClassCounters struct {
	admitted, rejected uint64
}

// sloAnalyzer is the daemon's saturation analyzer: lifetime per-class
// counters plus a fixed-size ring of the most recent decisions, whose
// rejection rate drives the capacity-vs-demand signal.
type sloAnalyzer struct {
	cfg SLOConfig

	mu      sync.Mutex
	classes map[string]*sloClassCounters
	ring    [DefaultSaturationWindow]bool // true = rejected
	next    int
	filled  int
}

func newSLOAnalyzer(cfg SLOConfig) *sloAnalyzer {
	return &sloAnalyzer{
		cfg:     cfg,
		classes: make(map[string]*sloClassCounters, len(cfg.Classes)),
	}
}

func (a *sloAnalyzer) record(class string, admitted bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.classes[class]
	if c == nil {
		c = &sloClassCounters{}
		a.classes[class] = c
	}
	if admitted {
		c.admitted++
	} else {
		c.rejected++
	}
	a.ring[a.next] = !admitted
	a.next = (a.next + 1) % len(a.ring)
	if a.filled < len(a.ring) {
		a.filled++
	}
}

// rejectionRate returns the windowed rejection rate and the number of
// decisions in the window.
func (a *sloAnalyzer) rejectionRate() (float64, int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rejectionRateLocked()
}

func (a *sloAnalyzer) rejectionRateLocked() (float64, int) {
	if a.filled == 0 {
		return 0, 0
	}
	rejected := 0
	for i := 0; i < a.filled; i++ {
		if a.ring[i] {
			rejected++
		}
	}
	return float64(rejected) / float64(a.filled), a.filled
}

// report snapshots the analyzer for the JSON /metrics payload.
func (a *sloAnalyzer) report() *SLOMetricsReport {
	a.mu.Lock()
	defer a.mu.Unlock()
	rate, window := a.rejectionRateLocked()
	out := &SLOMetricsReport{
		Headroom: a.cfg.Headroom,
		Classes:  make(map[string]SLOClassMetrics, len(a.classes)),
		Saturation: SaturationReport{
			Window:             window,
			RejectionRate:      rate,
			Signal:             slo.SaturationSignal(rate),
			ScaleUpThreshold:   slo.DefaultScaleUpThreshold,
			ScaleDownThreshold: slo.DefaultScaleDownThreshold,
		},
	}
	for name, c := range a.classes {
		out.Classes[name] = SLOClassMetrics{Admitted: c.admitted, Rejected: c.rejected}
	}
	return out
}
