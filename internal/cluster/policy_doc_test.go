package cluster

import (
	"context"
	"strings"
	"testing"
)

// TestViolationAccounting checks the violation magnitude formula
// ((target − actual)/target) against a hand-computed case.
func TestViolationAccounting(t *testing.T) {
	tbl := NewTable([]string{"svc"}, []string{"b"}, 1)
	// Predicted degradation 2% admits 1 instance at a 95% target, but the
	// actual degradation is 10% → QoS 0.90 < 0.95.
	tbl.Set("svc", "b", 1, Entry{Actual: 0.10, Predicted: 0.02})
	pt, err := BuildPredTable(context.Background(), tbl, nil, QoSAvg, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := &Study{
		Table:             pt,
		ServersPerApp:     10,
		ThreadsPerServer:  6,
		ContextsPerServer: 12,
		Seed:              1,
	}
	r, err := s.Run(PolicySMiTe, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if r.ViolationFrac != 1 {
		t.Errorf("every co-location should violate, got %.3f", r.ViolationFrac)
	}
	want := (0.95 - 0.90) / 0.95
	if d := r.ViolationMax - want; d > 1e-9 || d < -1e-9 {
		t.Errorf("violation magnitude %.5f, want %.5f", r.ViolationMax, want)
	}
	if !strings.Contains(QoSAvg.String(), "average") {
		t.Error("QoS kind name")
	}
}
