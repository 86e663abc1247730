package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/model"
	"repro/internal/profile"
)

// AblationResult compares every prediction model on the Figure 10 protocol
// (even-train / odd-test SPEC SMT co-locations). It reproduces the paper's
// baseline search (Section IV-B1 mentions trying linear regression,
// decision trees and higher-order polynomials before settling on the
// Equation 9 PMU baseline) and adds two ablations of SMiTe itself:
// unconstrained least squares versus the non-negative fit, and a
// Bubble-Up-style single-metric model that demonstrates why SMT
// interference needs multidimensional decoupling.
type AblationResult struct {
	Rows []AblationRow
	// MeasuredMean is the testing set's mean measured degradation, the
	// scale against which errors should be read.
	MeasuredMean float64
}

// AblationRow is one model's test error.
type AblationRow struct {
	Model    string
	TestErr  float64
	TrainErr float64
}

// ModelAblationContext runs the comparison.
func (l *Lab) ModelAblationContext(ctx context.Context) (AblationResult, error) {
	trainObs, testObs, err := l.specSplit(ctx, IvyBridge, profile.SMT)
	if err != nil {
		return AblationResult{}, err
	}

	var out AblationResult
	for _, o := range testObs {
		out.MeasuredMean += o.Deg
	}
	if len(testObs) > 0 {
		out.MeasuredMean /= float64(len(testObs))
	}

	trainers := []struct {
		name  string
		train func([]model.PairObs) (model.Predictor, error)
	}{
		{"SMiTe (Eq.3, NNLS)", func(o []model.PairObs) (model.Predictor, error) { return model.TrainSmiteNNLS(o) }},
		{"SMiTe (Eq.3, OLS)", func(o []model.PairObs) (model.Predictor, error) { return model.TrainSmite(o) }},
		{"Bubble-Up-style (1 dim)", func(o []model.PairObs) (model.Predictor, error) { return model.TrainBubbleUp(o) }},
		{"PMU linear (Eq.9)", func(o []model.PairObs) (model.Predictor, error) { return model.TrainPMULinear(o) }},
		{"PMU polynomial", func(o []model.PairObs) (model.Predictor, error) { return model.TrainPMUPoly(o) }},
		{"PMU decision tree", func(o []model.PairObs) (model.Predictor, error) { return model.TrainCART(o, 0, 0) }},
	}
	for _, tr := range trainers {
		m, err := tr.train(trainObs)
		if err != nil {
			return AblationResult{}, fmt.Errorf("experiments: training %s: %w", tr.name, err)
		}
		out.Rows = append(out.Rows, AblationRow{
			Model:    tr.name,
			TestErr:  model.Evaluate(m, testObs).MeanAbsError,
			TrainErr: model.Evaluate(m, trainObs).MeanAbsError,
		})
	}
	return out, nil
}

// String renders the comparison.
func (r AblationResult) String() string {
	var b strings.Builder
	b.WriteString("Model ablation (Figure 10 protocol: SPEC SMT, even-train/odd-test)\n")
	t := newTable("model", "test error", "train error")
	for _, row := range r.Rows {
		t.row(row.Model, pct(row.TestErr), pct(row.TrainErr))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "mean measured degradation of the testing set: %s\n", pct(r.MeasuredMean))
	return b.String()
}
