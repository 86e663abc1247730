package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/profile"
	"repro/internal/tco"
)

// ScaleOutResult holds one scale-out study (a QoS definition × targets ×
// policies grid): Figures 14/15 for average-performance QoS, Figures 16/17
// for tail-latency QoS.
type ScaleOutResult struct {
	QoS     cluster.QoSKind
	Targets []float64
	// Cells[target][policy] holds the run results.
	Cells map[float64]map[cluster.PolicyKind]cluster.Result
}

// scaleOutTargets are the paper's QoS targets.
var scaleOutTargets = []float64{0.95, 0.90, 0.85}

// Fig14And15AvgQoSContext runs the average-performance-QoS scale-out study
// (utilization: Figure 14; violations: Figure 15).
func (l *Lab) Fig14And15AvgQoSContext(ctx context.Context) (ScaleOutResult, error) {
	return l.ScaleOutStudyContext(ctx, cluster.QoSAvg)
}

// Fig16And17TailQoSContext runs the tail-latency-QoS study over the two
// services that report percentile latency (utilization: Figure 16;
// violations: Figure 17).
func (l *Lab) Fig16And17TailQoSContext(ctx context.Context) (ScaleOutResult, error) {
	return l.ScaleOutStudyContext(ctx, cluster.QoSTail)
}

// ScaleOutStudyContext runs a scale-out study under either QoS definition:
// the SMT cloud study's degradations become one PredTable (BuildPredTable)
// that every target × policy cell places on, with the predicted and
// measured degradations both taken from the table. The underlying
// cloud-study measurements abort mid-simulation when ctx is cancelled.
func (l *Lab) ScaleOutStudyContext(ctx context.Context, qos cluster.QoSKind) (ScaleOutResult, error) {
	cs, err := l.buildCloudStudy(ctx, profile.SMT)
	if err != nil {
		return ScaleOutResult{}, err
	}
	// Tail QoS keeps only the percentile-reporting services (Web-Search,
	// Data-Caching).
	keep := func(lat string) bool { return qos != cluster.QoSTail || cs.services[lat].ReportsPercentile }
	var lats []string
	for _, lat := range cs.latApps {
		if keep(lat) {
			lats = append(lats, lat)
		}
	}
	if len(lats) == 0 {
		return ScaleOutResult{}, fmt.Errorf("experiments: no percentile-reporting services in the study")
	}
	tbl := cluster.NewTable(lats, cs.batchApps, cs.maxInstances[profile.SMT])
	for _, e := range cs.placementTables[profile.SMT] {
		if keep(e.lat) {
			tbl.Set(e.lat, e.batch, e.n, cluster.Entry{Actual: e.actual, Predicted: e.predicted})
		}
	}
	pt, err := cluster.BuildPredTable(ctx, tbl, cs.services, qos, nil, l.workers())
	if err != nil {
		return ScaleOutResult{}, err
	}
	study := &cluster.Study{
		Table:             pt,
		ServersPerApp:     l.Scale.ServersPerApp,
		ThreadsPerServer:  l.cloudThreads(),
		ContextsPerServer: l.SNB.Contexts(),
		Seed:              7,
	}
	out := ScaleOutResult{
		QoS:     qos,
		Targets: scaleOutTargets,
		Cells:   make(map[float64]map[cluster.PolicyKind]cluster.Result),
	}
	for _, target := range out.Targets {
		out.Cells[target] = make(map[cluster.PolicyKind]cluster.Result)
		for _, pol := range []cluster.PolicyKind{cluster.PolicySMiTe, cluster.PolicyOracle, cluster.PolicyRandom} {
			r, err := study.Run(pol, target)
			if err != nil {
				return ScaleOutResult{}, err
			}
			out.Cells[target][pol] = r
		}
	}
	return out, nil
}

// String renders utilisation and violation tables.
func (r ScaleOutResult) String() string {
	var b strings.Builder
	if r.QoS == cluster.QoSAvg {
		b.WriteString("Figures 14 & 15: scale-out under average-performance QoS\n")
	} else {
		b.WriteString("Figures 16 & 17: scale-out under 90th-percentile-latency QoS\n")
	}
	t := newTable("QoS target", "SMiTe util gain", "Oracle util gain", "SMiTe violations", "SMiTe worst viol.", "Random violations", "Random worst viol.")
	for _, target := range r.Targets {
		cells := r.Cells[target]
		sm, or, rd := cells[cluster.PolicySMiTe], cells[cluster.PolicyOracle], cells[cluster.PolicyRandom]
		t.row(
			pct(target),
			pct(sm.UtilizationGain),
			pct(or.UtilizationGain),
			pct(sm.ViolationFrac),
			pct(sm.ViolationMax),
			pct(rd.ViolationFrac),
			pct(rd.ViolationMax),
		)
	}
	b.WriteString(t.String())
	if r.QoS == cluster.QoSAvg {
		b.WriteString("paper: SMiTe gains 9.24/25.90/42.97% at 95/90/85% (Oracle 9.82/26.78/43.75%); Random violates up to 26%, SMiTe at most 1.67%\n")
	} else {
		b.WriteString("paper: SMiTe gains 0/10.72/22.03% at 95/90/85% (Oracle 0.59/12.50/24.99%); Random violates up to 110%... SMiTe at most 0.96%\n")
	}
	return b.String()
}

// Fig18Result is the TCO analysis.
type Fig18Result struct {
	Params tco.Params
	// Rows are indexed by QoS kind then target.
	Rows []Fig18Row
}

// Fig18Row is one QoS-definition × target cell.
type Fig18Row struct {
	QoS    cluster.QoSKind
	Target float64
	// BaselineServers and CoLocatedServers are fleet sizes for the same
	// work; Improvement is the fractional 3-year TCO saving.
	BaselineServers  float64
	CoLocatedServers float64
	Improvement      float64
}

// Fig18TCOContext evaluates the total-cost-of-ownership impact of
// SMiTe-steered co-location under both QoS definitions (paper Figure 18).
// The baseline fleet is half latency servers, half batch servers;
// co-location absorbs batch work onto the latency servers' idle contexts.
func (l *Lab) Fig18TCOContext(ctx context.Context) (Fig18Result, error) {
	params := tco.Google2014()
	avg, err := l.Fig14And15AvgQoSContext(ctx)
	if err != nil {
		return Fig18Result{}, err
	}
	tail, err := l.Fig16And17TailQoSContext(ctx)
	if err != nil {
		return Fig18Result{}, err
	}
	out := Fig18Result{Params: params}
	add := func(res ScaleOutResult) {
		nLatApps := 0
		for range res.Cells[res.Targets[0]][cluster.PolicySMiTe].PerApp {
			nLatApps++
		}
		latServers := float64(nLatApps * l.Scale.ServersPerApp)
		for _, target := range res.Targets {
			sm := res.Cells[target][cluster.PolicySMiTe]
			// Dedicated batch servers run one instance per core; the
			// co-located instances replace that many of them.
			absorbed := sm.MeanInstances * latServers / float64(l.cloudThreads())
			baseline := 2 * latServers // half latency, half batch
			colocated := baseline - absorbed
			out.Rows = append(out.Rows, Fig18Row{
				QoS: res.QoS, Target: target,
				BaselineServers:  baseline,
				CoLocatedServers: colocated,
				Improvement:      params.Improvement(baseline, colocated),
			})
		}
	}
	add(avg)
	add(tail)
	return out, nil
}

// String renders the figure.
func (r Fig18Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 18: 3-year TCO improvement from SMiTe co-location\n")
	t := newTable("QoS definition", "target", "baseline servers", "co-located servers", "TCO saving")
	for _, row := range r.Rows {
		t.row(row.QoS.String(), pct(row.Target), fmt.Sprintf("%.0f", row.BaselineServers), fmt.Sprintf("%.0f", row.CoLocatedServers), pct(row.Improvement))
	}
	b.WriteString(t.String())
	b.WriteString("paper: up to 21.05% under average-performance QoS, up to 10.70% under p90 QoS\n")
	return b.String()
}
