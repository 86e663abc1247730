package simtest

import (
	"math"
	"testing"

	"repro/internal/slo"
	"repro/internal/xrand"
)

// randomAdmissionCase draws one admission problem: a predicted degradation
// with an error bound, an M/M/1 queue that is solo-stable, and a class
// percentile. Budgets and headrooms are swept by the law itself.
type admissionCase struct {
	deg, bound, mu, lambda, percentile float64
}

func randomAdmissionCase(r *xrand.Rand) admissionCase {
	mu := 100 + r.Float64()*2000
	return admissionCase{
		deg:        r.Float64() * 1.1, // past 1.0 to sweep the saturated region
		bound:      r.Float64() * 0.2,
		mu:         mu,
		lambda:     mu * (0.1 + r.Float64()*0.85),
		percentile: 0.5 + r.Float64()*0.49,
	}
}

// TestAdmissionBudgetMonotonicity is the admission-monotonicity law: for
// any co-location candidate, tightening the budget never admits what the
// looser budget rejected — the admitted sets are nested as the budget
// grows. Swept over numSeeds random candidates and a budget ladder.
func TestAdmissionBudgetMonotonicity(t *testing.T) {
	budgets := []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1}
	for seed := uint64(0); seed < numSeeds; seed++ {
		r := xrand.New(seed + 0xAD)
		c := randomAdmissionCase(r)
		headroom := r.Float64() * 0.5
		prevAdmitted := false
		for _, budget := range budgets {
			class := slo.SLOClass{Name: "law", Budget: budget, Percentile: c.percentile}
			d := slo.EvaluateAdmission(c.deg, c.bound, c.mu, c.lambda, class, headroom)
			if prevAdmitted && !d.Admitted {
				t.Errorf("seed %d: budget %g admitted but looser budget %g rejected (case %+v)",
					seed, budget/3, budget, c)
			}
			prevAdmitted = d.Admitted
		}
	}
}

// TestAdmissionHeadroomMonotonicity: raising the headroom (shrinking the
// effective budget) never admits what the smaller headroom rejected.
func TestAdmissionHeadroomMonotonicity(t *testing.T) {
	headrooms := []float64{0, 0.05, 0.1, 0.2, 0.4, 0.8}
	for seed := uint64(0); seed < numSeeds; seed++ {
		r := xrand.New(seed + 0x4EAD)
		c := randomAdmissionCase(r)
		budget := 0.001 + r.Float64()*0.2
		class := slo.SLOClass{Name: "law", Budget: budget, Percentile: c.percentile}
		prevAdmitted := true
		for _, h := range headrooms {
			d := slo.EvaluateAdmission(c.deg, c.bound, c.mu, c.lambda, class, h)
			if d.Admitted && !prevAdmitted {
				t.Errorf("seed %d: headroom %g admitted after a smaller headroom rejected (case %+v)",
					seed, h, c)
			}
			prevAdmitted = d.Admitted
		}
	}
}

// TestAdmissionSaturationAbsorbing: once the inflated degradation
// saturates the queue, no budget and no headroom ever admits — the
// saturated region is absorbing, and the tail is always +Inf.
func TestAdmissionSaturationAbsorbing(t *testing.T) {
	for seed := uint64(0); seed < numSeeds; seed++ {
		r := xrand.New(seed + 0x5A7)
		c := randomAdmissionCase(r)
		// Force saturation: degradation at or past the stability boundary.
		boundary := 1 - c.lambda/c.mu
		c.deg = boundary + r.Float64()
		c.bound = 0
		for _, budget := range []float64{0.01, 1, 1e6} {
			class := slo.SLOClass{Name: "law", Budget: budget, Percentile: c.percentile}
			d := slo.EvaluateAdmission(c.deg, c.bound, c.mu, c.lambda, class, 0)
			if d.Admitted || !d.Saturated {
				t.Errorf("seed %d: saturated candidate admitted at budget %g: %+v (case %+v)",
					seed, budget, d, c)
			}
			if !math.IsInf(d.Tail, 1) {
				t.Errorf("seed %d: saturated tail %v, want +Inf", seed, d.Tail)
			}
		}
	}
}

// TestAdmissionBoundMonotonicity: a larger error bound (a less certain
// prediction) never admits what the more certain prediction rejected.
func TestAdmissionBoundMonotonicity(t *testing.T) {
	bounds := []float64{0, 0.01, 0.05, 0.1, 0.25, 0.5}
	for seed := uint64(0); seed < numSeeds; seed++ {
		r := xrand.New(seed + 0xB0)
		c := randomAdmissionCase(r)
		budget := 0.001 + r.Float64()*0.2
		class := slo.SLOClass{Name: "law", Budget: budget, Percentile: c.percentile}
		prevAdmitted := true
		for _, b := range bounds {
			d := slo.EvaluateAdmission(c.deg, b, c.mu, c.lambda, class, 0.1)
			if d.Admitted && !prevAdmitted {
				t.Errorf("seed %d: bound %g admitted after a smaller bound rejected (case %+v)",
					seed, b, c)
			}
			prevAdmitted = d.Admitted
		}
	}
}
