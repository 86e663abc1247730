package cluster

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/surrogate"
)

// TestTieredPredictorTiers pins the tier selection: the surrogate answers
// with its bound while the certificate is within
// surrogate.DefaultThreshold, the fallback answers otherwise.
func TestTieredPredictorTiers(t *testing.T) {
	// One active dimension with sen = 1 and an exact sensitivity curve
	// (Es = 0) makes the bound exactly the aggressor's con residual Ec.
	set := func(ec float64) *surrogate.Set {
		var eq3 model.Smite
		eq3.Coef[0] = 1
		lat, batch := &surrogate.Model{App: "lat"}, &surrogate.Model{App: "batch"}
		lat.Sen[0] = surrogate.Curve{Coef: [3]float64{1}}
		batch.Con[0] = surrogate.Curve{Coef: [3]float64{0.3}, MaxAbsErr: ec}
		return &surrogate.Set{Eq3: &eq3, Models: map[string]*surrogate.Model{"lat": lat, "batch": batch}}
	}
	tbl := NewTable([]string{"lat"}, []string{"batch", "other"}, 2)
	for _, b := range tbl.BatchApps {
		tbl.Set("lat", b, 2, Entry{Actual: 0.4, Predicted: 0.35})
	}
	table := &TablePredictor{Table: tbl}
	over := math.Nextafter(surrogate.DefaultThreshold, 1)

	for _, tc := range []struct {
		name     string
		ec       float64
		batch    string
		fallback Predictor
		want     Prediction
		wantErr  bool
	}{
		{"bound at threshold", surrogate.DefaultThreshold, "batch", table,
			Prediction{Deg: 0.3, Bound: surrogate.DefaultThreshold, Tier: TierSurrogate}, false},
		{"bound just over threshold", over, "batch", table,
			Prediction{Deg: 0.35, Tier: TierTable}, false},
		{"app missing from the set", 0, "other", table,
			Prediction{Deg: 0.35, Tier: TierTable}, false},
		{"nil fallback", over, "batch", nil, Prediction{}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewTieredPredictor(&SurrogatePredictor{Set: set(tc.ec), Capacity: 2}, tc.fallback)
			got, err := p.Predict("lat", tc.batch, 2)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tc.wantErr)
			}
			if got != tc.want {
				t.Fatalf("Predict = %+v, want %+v", got, tc.want)
			}
		})
	}
}
