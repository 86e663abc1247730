package cluster

import (
	"context"
	"fmt"

	"repro/internal/sched"
	"repro/internal/service"
)

// qosValue maps a degradation to QoS under a QoS definition; the services
// map is only consulted for tail QoS.
func qosValue(kind QoSKind, services map[string]service.Service, lat string, deg float64) (float64, error) {
	switch kind {
	case QoSAvg:
		return service.AvgQoS(deg), nil
	case QoSTail:
		svc, ok := services[lat]
		if !ok {
			return 0, fmt.Errorf("cluster: no service parameters for %s", lat)
		}
		return svc.TailQoS(deg), nil
	}
	return 0, fmt.Errorf("cluster: unknown QoS kind %d", kind)
}

// PredTable is the dense QoS surface both the static Study and the
// discrete-event simulator place against: for every (latency app, batch
// app, instance count) cell it holds the QoS implied by the predicted and
// by the measured degradation, precomputed so admission and scoring are
// pure array lookups. It is built once
// through the Predictor seam (BuildPredTable) and embedded verbatim in
// recorded traces, which is what makes a replayed run self-contained.
type PredTable struct {
	LatencyApps  []string `json:"latency_apps"`
	BatchApps    []string `json:"batch_apps"`
	MaxInstances int      `json:"max_instances"`
	QoS          QoSKind  `json:"qos"`
	// PredQoS and ActualQoS are indexed by Cell(lat, batch, n).
	PredQoS   []float64 `json:"pred_qos"`
	ActualQoS []float64 `json:"actual_qos"`
	// PredDeg, ActualDeg and PredBound carry the raw degradation surface
	// beneath the QoS values, plus the predictor's error bound (non-zero
	// only on surrogate-tier answers). The SLO admission policy needs the
	// degradations themselves — Eq. 6 consumes a degradation, not a QoS —
	// so these are populated by BuildPredTable; they may be absent
	// (legacy traces), in which case SLO-gated runs are rejected by
	// SimConfig.Validate.
	PredDeg   []float64 `json:"pred_deg,omitempty"`
	ActualDeg []float64 `json:"actual_deg,omitempty"`
	PredBound []float64 `json:"pred_bound,omitempty"`
}

// Cell flattens (lat index, batch index, instances 1..MaxInstances) into
// the table's storage index.
func (t *PredTable) Cell(lat, batch, n int) int {
	return (lat*len(t.BatchApps)+batch)*t.MaxInstances + n - 1
}

// Validate rejects structurally broken tables (wrong slice lengths, empty
// application sets).
func (t *PredTable) Validate() error {
	if t == nil {
		return fmt.Errorf("cluster: nil prediction table")
	}
	if len(t.LatencyApps) == 0 || len(t.BatchApps) == 0 || t.MaxInstances <= 0 {
		return fmt.Errorf("cluster: prediction table needs apps and a positive MaxInstances")
	}
	want := len(t.LatencyApps) * len(t.BatchApps) * t.MaxInstances
	if len(t.PredQoS) != want || len(t.ActualQoS) != want {
		return fmt.Errorf("cluster: prediction table has %d/%d cells, want %d",
			len(t.PredQoS), len(t.ActualQoS), want)
	}
	// The degradation surface is optional (legacy traces omit it) but
	// must be complete when present.
	for _, s := range [][]float64{t.PredDeg, t.ActualDeg, t.PredBound} {
		if len(s) != 0 && len(s) != want {
			return fmt.Errorf("cluster: prediction table degradation surface has %d cells, want %d", len(s), want)
		}
	}
	return nil
}

// HasDegradations reports whether the raw degradation surface (needed by
// the SLO admission policy) is present.
func (t *PredTable) HasDegradations() bool {
	want := len(t.LatencyApps) * len(t.BatchApps) * t.MaxInstances
	return len(t.PredDeg) == want && len(t.ActualDeg) == want && len(t.PredBound) == want
}

// BuildPredTable precomputes the QoS surface for every
// (latency, batch, 1..MaxInstances) cell of tbl under the given QoS
// definition. Predicted degradations come from pred when non-nil — the
// Predictor seam, typically the microsecond surrogate tier with the
// engine-measured table as fallback — and from the table's own Predicted
// entries otherwise; measured degradations always come from the table.
// Cells fan out across workers via sched.Map, so the build is
// bit-identical at any worker count.
func BuildPredTable(ctx context.Context, tbl *Table, services map[string]service.Service, qos QoSKind, pred Predictor, workers int) (*PredTable, error) {
	if tbl == nil {
		return nil, fmt.Errorf("cluster: BuildPredTable needs a table")
	}
	if err := tbl.Complete(); err != nil {
		return nil, err
	}
	out := &PredTable{
		LatencyApps:  append([]string(nil), tbl.LatencyApps...),
		BatchApps:    append([]string(nil), tbl.BatchApps...),
		MaxInstances: tbl.MaxInstances,
		QoS:          qos,
	}
	cells := len(out.LatencyApps) * len(out.BatchApps) * out.MaxInstances
	out.PredQoS = make([]float64, cells)
	out.ActualQoS = make([]float64, cells)
	out.PredDeg = make([]float64, cells)
	out.ActualDeg = make([]float64, cells)
	out.PredBound = make([]float64, cells)
	err := sched.Map(ctx, cells, workers, func(ctx context.Context, i int) error {
		n := i%out.MaxInstances + 1
		b := (i / out.MaxInstances) % len(out.BatchApps)
		l := i / (out.MaxInstances * len(out.BatchApps))
		lat, batch := out.LatencyApps[l], out.BatchApps[b]
		e, err := tbl.Get(lat, batch, n)
		if err != nil {
			return err
		}
		dp, bound := e.Predicted, 0.0
		if pred != nil {
			p, err := pred.Predict(lat, batch, n)
			if err != nil {
				return err
			}
			dp, bound = p.Deg, p.Bound
		}
		out.PredDeg[i], out.ActualDeg[i], out.PredBound[i] = dp, e.Actual, bound
		if out.PredQoS[i], err = qosValue(qos, services, lat, dp); err != nil {
			return err
		}
		out.ActualQoS[i], err = qosValue(qos, services, lat, e.Actual)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
