package cluster

import (
	"fmt"

	"repro/internal/surrogate"
)

// Prediction tiers, reported in Prediction.Tier. The qosd daemon reports
// the same strings on its wire responses, so a scheduler can audit which
// tier answered regardless of whether it consulted the seam in-process or
// over HTTP.
const (
	// TierTable: answered from an engine-measured degradation table — the
	// authoritative surface, carrying no error bound.
	TierTable = "table"
	// TierSurrogate: answered in microseconds from fitted surrogate
	// curves; the prediction carries the propagated error bound.
	TierSurrogate = "surrogate"
)

// Prediction is the unified answer of the Predictor seam: the predicted
// degradation plus everything the old Predictor/BoundedPredictor split
// forced callers to type-assert for — the error bound (zero on measured
// answers) and the serving tier.
type Prediction struct {
	// Deg is the predicted degradation (0.07 = 7% slower).
	Deg float64
	// Bound is an upper bound on the answer's deviation from the
	// engine-measured truth; zero when the answer is the measured surface
	// itself. The SLO admission policy inflates predictions by this bound
	// before checking them against tail-latency budgets.
	Bound float64
	// Tier reports which tier produced the answer (Tier* constants).
	Tier string
}

// Predictor supplies predicted degradations from outside a degradation
// table — the surrogate tier, the qosd serving daemon, or any other
// prediction source a study or simulator consults. Implementations must
// be deterministic for a given (lat, batch, n) and safe for concurrent
// use (BuildPredTable fans cells across workers).
type Predictor interface {
	// Predict returns the latency application's predicted degradation —
	// with its bound and tier — when co-located with n
	// instances of the batch application.
	Predict(lat, batch string, n int) (Prediction, error)
}

// TablePredictor serves the Predictor seam from a degradation Table's
// baked-in Predicted entries — the engine-measured prediction surface the
// scale-out studies use. It is the ground-truth fallback of the tiered
// predictor below.
type TablePredictor struct {
	Table *Table
}

// Predict implements Predictor; table answers are the measured surface,
// so the bound is zero.
func (p *TablePredictor) Predict(lat, batch string, n int) (Prediction, error) {
	e, err := p.Table.Get(lat, batch, n)
	if err != nil {
		return Prediction{}, err
	}
	return Prediction{Deg: e.Predicted, Tier: TierTable}, nil
}

// SurrogatePredictor adapts a fitted surrogate.Set with an embedded
// Equation 3 model to the Predictor seam, answering in microseconds
// without touching the engine. Instance-count dependence is modelled
// analytically on the surrogate curves: n stacked instances of the batch
// application exert its contentiousness curves evaluated at intensity
// n/Capacity (more siblings, more pressure, saturating at full
// occupancy), and — mirroring model.Smite.PredictPartial — the intercept,
// which must vanish at n = 0, is scaled by the occupied fraction. The
// victim's sensitivities are its full-intensity values, as in the
// pairwise surrogate path.
type SurrogatePredictor struct {
	Set *surrogate.Set
	// Capacity is the number of idle sibling contexts instances stack on
	// (the study's ContextsPerServer − ThreadsPerServer).
	Capacity int
}

// Predict implements Predictor with the propagated surrogate certificate:
// surrogate.Set.PredictWith with the aggressor curves evaluated at the
// occupancy intensity n/Capacity.
func (p *SurrogatePredictor) Predict(lat, batch string, n int) (Prediction, error) {
	if p.Set == nil || p.Set.Eq3 == nil {
		return Prediction{}, fmt.Errorf("cluster: surrogate predictor needs a set with an embedded Eq3 model")
	}
	if p.Capacity <= 0 {
		return Prediction{}, fmt.Errorf("cluster: surrogate predictor capacity must be positive, got %d", p.Capacity)
	}
	pred, err := p.Set.PredictWith(*p.Set.Eq3, lat, batch, float64(n)/float64(p.Capacity))
	if err != nil {
		return Prediction{}, err
	}
	return Prediction{Deg: pred.Degradation, Bound: pred.Bound, Tier: TierSurrogate}, nil
}

// TieredPredictor is the qosd serving policy at the Predictor seam:
// answer from the surrogate tier when its certificate is within
// surrogate.DefaultThreshold, fall back to the (engine-measured)
// predictor otherwise. The cluster simulator consults the seam only once
// per distinct (lat, batch, n) cell — BuildPredTable memoizes the surface
// — so even the fallback path costs a handful of calls per run.
type TieredPredictor struct {
	sur *SurrogatePredictor
	// Fallback answers when the surrogate bound is too loose or the
	// surrogate has no model for an application.
	Fallback Predictor
}

// NewTieredPredictor builds the two-tier predictor: sur answers when its
// bound is within surrogate.DefaultThreshold, fallback otherwise. A nil
// sur disables the surrogate tier.
func NewTieredPredictor(sur *SurrogatePredictor, fallback Predictor) *TieredPredictor {
	return &TieredPredictor{sur: sur, Fallback: fallback}
}

// Predict implements Predictor: surrogate answers carry their certificate
// and tier, fallback answers keep the fallback's own bound and tier (zero
// bound for the measured table).
func (t *TieredPredictor) Predict(lat, batch string, n int) (Prediction, error) {
	if t.sur != nil {
		if pred, err := t.sur.Predict(lat, batch, n); err == nil && pred.Bound <= surrogate.DefaultThreshold {
			return pred, nil
		}
	}
	if t.Fallback == nil {
		return Prediction{}, fmt.Errorf("cluster: tiered predictor has no fallback for %s|%s|%d", lat, batch, n)
	}
	return t.Fallback.Predict(lat, batch, n)
}
