package cluster

import "testing"

// HasDegradations needs all three degradation surfaces complete: a table
// missing any one of them cannot back the SLO gate.
func TestHasDegradations(t *testing.T) {
	full := func() []float64 { return make([]float64, 2*3*4) }
	for _, tc := range []struct {
		name                          string
		predDeg, actualDeg, predBound []float64
		want                          bool
	}{
		{"all three", full(), full(), full(), true},
		{"no PredDeg", nil, full(), full(), false},
		{"no ActualDeg", full(), nil, full(), false},
		{"no PredBound", full(), full(), nil, false},
		{"short PredBound", full(), full(), make([]float64, 5), false},
		{"none", nil, nil, nil, false},
	} {
		pt := &PredTable{
			LatencyApps: []string{"l0", "l1"}, BatchApps: []string{"b0", "b1", "b2"}, MaxInstances: 4,
			PredDeg: tc.predDeg, ActualDeg: tc.actualDeg, PredBound: tc.predBound,
		}
		if got := pt.HasDegradations(); got != tc.want {
			t.Errorf("%s: HasDegradations = %v, want %v", tc.name, got, tc.want)
		}
	}
}
