package main

import "sort"

// metricDef describes one metric: its unit, which direction is better, and
// whether it is an end-to-end metric (untraced run) or a per-layer one
// (traced run). Every workload reports every end-to-end metric, each
// measured on its own pipeline, and every traced run reports every
// per-layer metric. README.md and BENCHMARK.json list the same metrics;
// TestCatalogueMatchesDocs keeps them in step.
type metricDef struct {
	unit     string
	better   string // "lower" or "higher"
	perLayer bool
}

func e2e(unit, better string) metricDef { return metricDef{unit: unit, better: better} }
func layer(unit, better string) metricDef {
	return metricDef{unit: unit, better: better, perLayer: true}
}

var catalogue = map[string]metricDef{
	// End-to-end metrics.
	"setup_s": e2e("s", "lower"),
	"wall_s":  e2e("s", "lower"),
	"cpu_s":   e2e("s", "lower"),
	"heap_mb": e2e("MiB", "lower"),

	// sim/engine, with isol way masks.
	"engine.mcycles_per_s.mem-smt":     layer("Mcycles/s", "higher"),
	"engine.mcycles_per_s.compute-smt": layer("Mcycles/s", "higher"),
	"engine.mcycles_per_s.isolated":    layer("Mcycles/s", "higher"),
	"engine.idle_skip_share":           layer("ratio", "higher"),
	// profile, sched and simcache.
	"profile.characterize_s":     layer("s", "lower"),
	"profile.measure_pairs_s":    layer("s", "lower"),
	"profile.sim_runs":           layer("count", "lower"),
	"profile.ms_per_sim_run":     layer("ms", "lower"),
	"simcache.hit_ratio.profile": layer("ratio", "higher"),
	"simcache.keyof_ns":          layer("ns", "lower"),
	"sched.speedup":              layer("x", "higher"),
	// model and surrogate.
	"model.train_ms":           layer("ms", "lower"),
	"model.predict_partial_ns": layer("ns", "lower"),
	"model.pred_mae_pct":       layer("%", "lower"),
	"surrogate.fit_s":          layer("s", "lower"),
	"surrogate.predict_ns":     layer("ns", "lower"),
	// qosd, with queueing.
	"qosd.handler_us.predict":    layer("us", "lower"),
	"qosd.handler_us.admit":      layer("us", "lower"),
	"qosd.handler_us.colocate":   layer("us", "lower"),
	"qosd.handler_us.batch":      layer("us", "lower"),
	"qosd.handler_us.profiles":   layer("us", "lower"),
	"qosd.transport_us":          layer("us", "lower"),
	"qosd.allocs_per_req":        layer("count", "lower"),
	"qosd.bytes_per_req":         layer("B", "lower"),
	"qosd.memo_hit_ratio":        layer("ratio", "higher"),
	"qosd.memo_entries":          layer("count", "lower"),
	"qosd.tier_surrogate_share":  layer("ratio", "higher"),
	"qosd.admit_reject_share":    layer("ratio", "lower"),
	"qosd.evaluate_admission_ns": layer("ns", "lower"),
	// cluster/workload and cluster.
	"cluster.generate_s":                  layer("s", "lower"),
	"cluster.events":                      layer("count", "higher"),
	"cluster.predtable_ms":                layer("ms", "lower"),
	"cluster.runsim_s.smite":              layer("s", "lower"),
	"cluster.runsim_s.slo":                layer("s", "lower"),
	"cluster.runsim_s.closedloop":         layer("s", "lower"),
	"cluster.runsim_s.isolation":          layer("s", "lower"),
	"cluster.allocs_per_event.smite":      layer("count", "lower"),
	"cluster.allocs_per_event.slo":        layer("count", "lower"),
	"cluster.allocs_per_event.closedloop": layer("count", "lower"),
	"cluster.allocs_per_event.isolation":  layer("count", "lower"),
	"cluster.parallel_speedup":            layer("x", "higher"),
	"cluster.isolation_escalations":       layer("count", "lower"),
	"cluster.isolation_resolved":          layer("count", "higher"),
	"cluster.util_gain_pct":               layer("%", "higher"),
	"cluster.violation_pct":               layer("%", "lower"),
	// Traced-run accounting, per pipeline.
	"trace.overhead_s.characterize":      layer("s", "lower"),
	"trace.overhead_s.serve":             layer("s", "lower"),
	"trace.overhead_s.fleet":             layer("s", "lower"),
	"trace.stage_sum_share.characterize": layer("ratio", "higher"),
	"trace.stage_sum_share.fleet":        layer("ratio", "higher"),
	"trace.stage_sum_ok.characterize":    layer("bool", "higher"),
	"trace.stage_sum_ok.fleet":           layer("bool", "higher"),
	"trace.decomp_share.serve":           layer("ratio", "higher"),
	"trace.decomp_ok.serve":              layer("bool", "higher"),
}

// metricsFor lists, sorted, the metrics a run reports in one mode.
func metricsFor(perLayer bool) []string {
	var out []string
	for name, d := range catalogue {
		if d.perLayer == perLayer {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
