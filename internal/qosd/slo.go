package qosd

import (
	"sync"

	"repro/internal/isol"
	"repro/internal/obs/metrics"
	"repro/internal/slo"
)

// This file is the daemon side of the predictive SLO admission gate
// (DESIGN.md §13): the gate's configuration, the isolation-remedy search
// behind a rejected POST /v1/admit, and the saturation analyzer that
// turns the recent admit/reject stream into a capacity-vs-demand scaling
// signal. The decision math itself lives in internal/slo.

// EvaluateAdmission is slo.EvaluateAdmission. perfbench/serve.go calls it
// through this package.
func EvaluateAdmission(deg, bound, mu, lambda float64, class slo.SLOClass, headroom float64) slo.AdmitDecision {
	return slo.EvaluateAdmission(deg, bound, mu, lambda, class, headroom)
}

// DefaultSLOClasses is slo.DefaultSLOClasses. perfbench/serve.go calls it
// through this package.
func DefaultSLOClasses() []slo.SLOClass { return slo.DefaultSLOClasses() }

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

// sloAnalyzer is the daemon's saturation analyzer: lifetime per-class
// decision counters, kept in the registry's qosd_admit_decisions family
// so the JSON and OpenMetrics views read one store, plus a fixed-size
// ring of the most recent decisions, whose rejection rate drives the
// capacity-vs-demand signal.
type sloAnalyzer struct {
	cfg    SLOConfig
	admits *metrics.CounterVec // by (class, outcome)

	mu     sync.Mutex
	ring   [DefaultSaturationWindow]bool // true = rejected
	next   int
	filled int
}

func newSLOAnalyzer(cfg SLOConfig, reg *metrics.Registry) *sloAnalyzer {
	return &sloAnalyzer{
		cfg: cfg,
		admits: reg.CounterVec("qosd_admit_decisions",
			"SLO admission decisions, by class and outcome.", "class", "outcome"),
	}
}

func (a *sloAnalyzer) record(class string, admitted bool) {
	outcome := "admitted"
	if !admitted {
		outcome = "rejected"
	}
	a.admits.With(class, outcome).Inc()
	a.mu.Lock()
	defer a.mu.Unlock()
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
	rate, window := a.rejectionRate()
	out := &SLOMetricsReport{
		Headroom: a.cfg.Headroom,
		Classes:  make(map[string]SLOClassMetrics),
		Saturation: SaturationReport{
			Window:             window,
			RejectionRate:      rate,
			Signal:             slo.SaturationSignal(rate),
			ScaleUpThreshold:   slo.DefaultScaleUpThreshold,
			ScaleDownThreshold: slo.DefaultScaleDownThreshold,
		},
	}
	for _, lc := range a.admits.Snapshot() {
		class, outcome := lc.Labels[0], lc.Labels[1]
		c := out.Classes[class]
		if outcome == "admitted" {
			c.Admitted = lc.Count
		} else {
			c.Rejected = lc.Count
		}
		out.Classes[class] = c
	}
	return out
}
