package cluster

import "math"

// Drift detector tuning for PolicyClosedLoop. The synthetic world's
// measurement noise (|actual − predicted| a few thousandths) sits well
// under the allowance, while a drifted cell's excess is tens of points
// per placement, so confirmation lands at the driftMinSamples floor.
const (
	// driftMinSamples is the observations a cell needs before drift can
	// be confirmed, however large its excess: one noisy sample never
	// triggers re-characterization.
	driftMinSamples = 4
	// driftAllowance is the per-sample leak of the CUSUM score: error
	// beyond the certified bound is tolerated up to this much per sample.
	driftAllowance = 0.02
	// driftThreshold is the accumulated excess that confirms drift.
	driftThreshold = 0.12
)

// driftCell is one cell's windowed CUSUM accumulator.
type driftCell struct {
	samples   int
	score     float64
	confirmed bool
}

// driftDetector is a per-cell windowed CUSUM test over the closed loop's
// misprediction signal. Each observation compares the observed
// degradation against the prediction ± its error bound; only the error
// *beyond* the bound (less the per-sample allowance) accumulates:
//
//	score = max(0, score + |observed − predicted| − |bound| − allowance)
//
// A cell confirms drift when its score reaches driftThreshold AND it has
// seen at least driftMinSamples observations, so sustained in-bound
// prediction decays the score back to zero. Non-finite observations are
// dropped. Not safe for concurrent use: each scheduling shard owns one.
type driftDetector struct {
	cells map[int]*driftCell
}

func newDriftDetector() *driftDetector {
	return &driftDetector{cells: make(map[int]*driftCell)}
}

// observe feeds one sample for a cell and reports whether this sample
// confirmed drift (the cell's transition into the confirmed state; later
// samples on an already-confirmed cell return false until reset).
func (d *driftDetector) observe(cell int, observed, predicted, bound float64) bool {
	if !finite(observed) || !finite(predicted) || !finite(bound) {
		return false
	}
	st := d.cells[cell]
	if st == nil {
		st = &driftCell{}
		d.cells[cell] = st
	}
	st.samples++
	st.score += math.Abs(observed-predicted) - math.Abs(bound) - driftAllowance
	if st.score < 0 {
		st.score = 0
	}
	if st.confirmed {
		return false
	}
	if st.samples >= driftMinSamples && st.score >= driftThreshold {
		st.confirmed = true
		return true
	}
	return false
}

// reset clears one cell's accumulator — called after the cell's pair has
// been re-characterized, so detection restarts from a clean slate against
// the refreshed prediction.
func (d *driftDetector) reset(cell int) {
	delete(d.cells, cell)
}

func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
