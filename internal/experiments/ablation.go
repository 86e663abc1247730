package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/model"
	"repro/internal/profile"
	"repro/internal/workload"
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
	train := l.specSet(workload.EvenSPEC())
	test := l.specSet(workload.OddSPEC())
	all := append(append([]*workload.Spec{}, train...), test...)
	chars, err := l.CharacterizationsContext(ctx, IvyBridge, profile.SMT, all)
	if err != nil {
		return AblationResult{}, err
	}
	p := l.Profiler(IvyBridge)
	trainPairs, err := p.MeasurePairsContext(ctx, train, train, profile.SMT)
	if err != nil {
		return AblationResult{}, err
	}
	testPairs, err := p.MeasurePairsContext(ctx, test, test, profile.SMT)
	if err != nil {
		return AblationResult{}, err
	}
	trainObs, err := model.BuildObservations(chars, trainPairs)
	if err != nil {
		return AblationResult{}, err
	}
	testObs, err := model.BuildObservations(chars, testPairs)
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

	type trained struct {
		name string
		m    model.Predictor
		err  error
	}
	var models []trained
	if m, err := model.TrainSmiteNNLS(trainObs); err == nil {
		models = append(models, trained{"SMiTe (Eq.3, NNLS)", m, nil})
	} else {
		models = append(models, trained{"SMiTe (Eq.3, NNLS)", nil, err})
	}
	if m, err := model.TrainSmite(trainObs); err == nil {
		models = append(models, trained{"SMiTe (Eq.3, OLS)", m, nil})
	} else {
		models = append(models, trained{"SMiTe (Eq.3, OLS)", nil, err})
	}
	if m, err := model.TrainBubbleUp(trainObs); err == nil {
		models = append(models, trained{"Bubble-Up-style (1 dim)", m, nil})
	} else {
		models = append(models, trained{"Bubble-Up-style (1 dim)", nil, err})
	}
	if m, err := model.TrainPMULinear(trainObs); err == nil {
		models = append(models, trained{"PMU linear (Eq.9)", m, nil})
	} else {
		models = append(models, trained{"PMU linear (Eq.9)", nil, err})
	}
	if m, err := model.TrainPMUPoly(trainObs); err == nil {
		models = append(models, trained{"PMU polynomial", m, nil})
	} else {
		models = append(models, trained{"PMU polynomial", nil, err})
	}
	if m, err := model.TrainCART(trainObs, 0, 0); err == nil {
		models = append(models, trained{"PMU decision tree", m, nil})
	} else {
		models = append(models, trained{"PMU decision tree", nil, err})
	}

	for _, tr := range models {
		if tr.err != nil {
			return AblationResult{}, fmt.Errorf("experiments: training %s: %w", tr.name, tr.err)
		}
		out.Rows = append(out.Rows, AblationRow{
			Model:    tr.name,
			TestErr:  model.Evaluate(tr.m, testObs).MeanAbsError,
			TrainErr: model.Evaluate(tr.m, trainObs).MeanAbsError,
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
