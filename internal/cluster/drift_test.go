package cluster

import (
	"math"
	"testing"
)

// score returns a cell's accumulated excess (0 for unseen cells).
func (d *driftDetector) score(cell int) float64 {
	if st := d.cells[cell]; st != nil {
		return st.score
	}
	return 0
}

// TestDriftDetectorConfirmsSustainedDrift drives the canonical path: a
// cell whose observed degradation sits far outside the certified bound
// confirms at the driftMinSamples floor, not before, and only once.
func TestDriftDetectorConfirmsSustainedDrift(t *testing.T) {
	d := newDriftDetector()
	for i := 1; i < driftMinSamples; i++ {
		if d.observe(7, 0.40, 0.10, 0.02) {
			t.Fatalf("sample %d confirmed before the sample floor", i)
		}
	}
	if !d.observe(7, 0.40, 0.10, 0.02) {
		t.Fatalf("sample %d (far out of bound) should confirm drift", driftMinSamples)
	}
	if !d.cells[7].confirmed {
		t.Fatal("cell should be in confirmed state")
	}
	for i := 0; i < 10; i++ {
		if d.observe(7, 0.40, 0.10, 0.02) {
			t.Fatal("already-confirmed cell re-fired")
		}
	}
}

// TestDriftDetectorOneNoisySampleNeverTriggers is the structural guarantee:
// a single sample, however wrong, cannot confirm drift on its own.
func TestDriftDetectorOneNoisySampleNeverTriggers(t *testing.T) {
	d := newDriftDetector()
	if d.observe(0, 1.0, 0.0, 0.0) {
		t.Fatal("a single sample confirmed drift")
	}
	if d.cells[0].confirmed {
		t.Fatal("cell confirmed after one sample")
	}
}

// TestDriftDetectorConstantZeroDegradation: a cell that always observes
// exactly what was predicted (both zero) accumulates nothing and never
// triggers, no matter how many samples stream in.
func TestDriftDetectorConstantZeroDegradation(t *testing.T) {
	d := newDriftDetector()
	for i := 0; i < 1000; i++ {
		if d.observe(3, 0, 0, 0) {
			t.Fatalf("constant-zero observation confirmed drift at sample %d", i+1)
		}
	}
	if got := d.score(3); got != 0 {
		t.Fatalf("score = %g, want 0", got)
	}
}

// TestDriftDetectorBoundExactlyCoversError: when the bound equals the
// observed error, certified error is not drift — the detector stays
// quiet forever.
func TestDriftDetectorBoundExactlyCoversError(t *testing.T) {
	d := newDriftDetector()
	for i := 0; i < 1000; i++ {
		if d.observe(5, 0.30, 0.25, 0.05) {
			t.Fatalf("bound-covered error confirmed drift at sample %d", i+1)
		}
	}
	if got := d.score(5); got != 0 {
		t.Fatalf("score = %g, want 0 when |obs-pred| == bound", got)
	}
}

// TestDriftDetectorNaNInfIgnored: non-finite samples must neither trigger
// nor panic nor perturb the cell's accumulated state.
func TestDriftDetectorNaNInfIgnored(t *testing.T) {
	d := newDriftDetector()
	d.observe(9, 0.4, 0.1, 0)
	before := *d.cells[9]
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if d.observe(9, v, 0.1, 0) {
			t.Fatalf("observed=%v confirmed drift", v)
		}
		if d.observe(9, 0.4, v, 0) {
			t.Fatalf("predicted=%v confirmed drift", v)
		}
		if d.observe(9, 0.4, 0.1, v) {
			t.Fatalf("bound=%v confirmed drift", v)
		}
	}
	if *d.cells[9] != before {
		t.Fatalf("non-finite samples changed the cell: %+v -> %+v", before, *d.cells[9])
	}
	if d.observe(10, math.NaN(), 0.1, 0); d.cells[10] != nil {
		t.Fatal("a non-finite sample created state for a fresh cell")
	}
}

// TestDriftDetectorResetAfterRecharacterization: reset returns the cell
// to a clean slate — not confirmed, zero score, and the sample floor
// applies afresh.
func TestDriftDetectorResetAfterRecharacterization(t *testing.T) {
	d := newDriftDetector()
	confirm := func() bool {
		fired := false
		for i := 0; i < driftMinSamples; i++ {
			fired = d.observe(4, 0.5, 0.1, 0)
		}
		return fired
	}
	if !confirm() {
		t.Fatal("setup: drift should confirm at the sample floor")
	}
	d.reset(4)
	if d.cells[4] != nil {
		t.Fatal("cell state survived reset")
	}
	if d.observe(4, 0.1, 0.1, 0) {
		t.Fatal("in-bound sample after reset confirmed drift")
	}
	d.reset(4)
	if !confirm() {
		t.Fatal("drift not re-detectable after reset")
	}
}

// TestDriftDetectorScoreDecays: sustained in-bound prediction leaks the
// score back to zero, so an old burst of noise does not linger forever.
func TestDriftDetectorScoreDecays(t *testing.T) {
	d := newDriftDetector()
	d.observe(1, 0.2, 0.1, 0) // excess 0.1 − allowance, under the threshold
	if d.score(1) <= 0 {
		t.Fatal("out-of-bound sample should raise the score")
	}
	for i := 0; i < 20; i++ {
		if d.observe(1, 0.1, 0.1, 0) {
			t.Fatal("in-bound sample confirmed drift")
		}
	}
	if got := d.score(1); got != 0 {
		t.Fatalf("score = %g after sustained in-bound samples, want 0", got)
	}
}
