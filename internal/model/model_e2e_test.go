package model

import (
	"context"
	"sort"
	"testing"

	"repro/internal/profile"
	"repro/internal/sim/isa"
	"repro/internal/workload"
)

// TestEndToEndSpecPrediction runs a reduced-scale version of the paper's
// Figure 10 experiment: characterize SPEC with Rulers, train the SMiTe and
// PMU models on even-numbered-benchmark pairs and evaluate on odd ones.
// SMiTe must beat the PMU baseline and land in single-digit error.
func TestEndToEndSpecPrediction(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end prediction in short mode")
	}
	cfg := isa.IvyBridge()
	cfg.Cores = 2
	p := profile.NewProfiler(cfg, profile.FastOptions())

	train := workload.EvenSPEC()
	test := workload.OddSPEC()

	all := append(append([]*workload.Spec{}, train...), test...)
	chars, err := p.CharacterizeAllContext(context.Background(), all, profile.SMT)
	if err != nil {
		t.Fatal(err)
	}

	trainPairs, err := p.MeasurePairsContext(context.Background(), train, train, profile.SMT)
	if err != nil {
		t.Fatal(err)
	}
	testPairs, err := p.MeasurePairsContext(context.Background(), test, test, profile.SMT)
	if err != nil {
		t.Fatal(err)
	}

	trainObs, err := BuildObservations(chars, trainPairs)
	if err != nil {
		t.Fatal(err)
	}
	testObs, err := BuildObservations(chars, testPairs)
	if err != nil {
		t.Fatal(err)
	}

	smite, err := TrainSmiteNNLS(trainObs)
	if err != nil {
		t.Fatal(err)
	}
	pmuM, err := TrainPMULinear(trainObs)
	if err != nil {
		t.Fatal(err)
	}

	evS := Evaluate(smite, testObs)
	evP := Evaluate(pmuM, testObs)
	t.Logf("SMiTe coef=%v c0=%.4f", smite.Coef, smite.Intercept)
	t.Logf("test: SMiTe err=%.4f PMU err=%.4f (train: SMiTe %.4f, PMU %.4f)",
		evS.MeanAbsError, evP.MeanAbsError,
		Evaluate(smite, trainObs).MeanAbsError, Evaluate(pmuM, trainObs).MeanAbsError)

	type oe struct {
		o PairObs
		e float64
	}
	var worst []oe
	for i, o := range testObs {
		worst = append(worst, oe{o, evS.Errors[i]})
	}
	sort.Slice(worst, func(a, b int) bool { return worst[a].e > worst[b].e })
	for i := 0; i < 14 && i < len(worst); i++ {
		w := worst[i]
		t.Logf("worst %2d: %-14s | %-14s deg=%.3f pred=%.3f", i, w.o.A, w.o.B, w.o.Deg, smite.Predict(w.o))
	}

	measured := 0.0
	for _, o := range testObs {
		measured += o.Deg
	}
	t.Logf("mean measured degradation (test set): %.4f over %d obs", measured/float64(len(testObs)), len(testObs))

	if evS.MeanAbsError > 0.08 {
		t.Errorf("SMiTe test error %.4f exceeds 8%% at reduced scale", evS.MeanAbsError)
	}
	if evS.MeanAbsError >= evP.MeanAbsError {
		t.Errorf("SMiTe (%.4f) should beat the PMU baseline (%.4f)", evS.MeanAbsError, evP.MeanAbsError)
	}
}
