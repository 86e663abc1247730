package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/obs/trace"
)

// stageTolerance is how far the per-stage spans may sum from the traced
// wall (or the handler-plus-transport decomposition from the client p50)
// before the accounting verdict fails.
const stageTolerance = 0.15

// tracedCtx attaches the run's tracer to ctx.
func (r *runner) tracedCtx(ctx context.Context) context.Context {
	return trace.NewContext(ctx, r.tracer)
}

// stageShare reports how much of the duration of the (single) span named
// root its direct children named stage.* cover, and whether that share is
// within stageTolerance of 1.
func stageShare(spans []trace.SpanRecord, root string) (share float64, ok bool) {
	var rootID uint64
	var rootDur, sum time.Duration
	for _, s := range spans {
		if s.Name == root {
			rootID, rootDur = s.ID, s.End-s.Start
		}
	}
	for _, s := range spans {
		if s.Parent == rootID && strings.HasPrefix(s.Name, "stage.") {
			sum += s.End - s.Start
		}
	}
	if rootDur <= 0 {
		return 0, false
	}
	share = sum.Seconds() / rootDur.Seconds()
	return share, math.Abs(share-1) <= stageTolerance
}

// spanStat aggregates the finished spans of one name.
type spanStat struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	// SelfS is the total minus the part of each span's interval that its
	// children cover (children on parallel tracks may overlap; their
	// union is subtracted once).
	SelfS float64 `json:"self_s"`
}

func spanStats(spans []trace.SpanRecord) map[string]spanStat {
	children := map[uint64][][2]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := map[string]spanStat{}
	for _, s := range spans {
		st := out[s.Name]
		st.Count++
		d := s.End - s.Start
		st.TotalS += d.Seconds()
		st.SelfS += (d - covered(children[s.ID], s.Start, s.End)).Seconds()
		out[s.Name] = st
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeTraceFiles writes the traced run's Chrome trace and its per-layer
// JSON under the output directory.
func (r *runner) writeTraceFiles(stdout io.Writer) error {
	if err := os.MkdirAll(r.opts.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(r.opts.out, fmt.Sprintf("%s-seed%d", r.opts.workload, r.opts.seed))
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	if err := r.tracer.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing chrome trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	type layerMetric struct {
		Value  float64 `json:"value"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
	}
	doc := struct {
		Workload string                 `json:"workload"`
		Seed     uint64                 `json:"seed"`
		Env      envInfo                `json:"env"`
		Notes    map[string]any         `json:"notes,omitempty"`
		Metrics  map[string]layerMetric `json:"metrics"`
		Spans    map[string]spanStat    `json:"spans"`
	}{
		Workload: r.opts.workload,
		Seed:     r.opts.seed,
		Env:      r.env,
		Notes:    r.notes,
		Metrics:  map[string]layerMetric{},
		Spans:    spanStats(r.tracer.Spans()),
	}
	for name, v := range r.metrics {
		d := catalogue[name]
		doc.Metrics[name] = layerMetric{Value: v, Unit: d.unit, Better: d.better}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".layers.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trace %s.trace.json\nlayers %s.layers.json\n", base, base)
	return nil
}

// boolMetric maps a verdict onto the 0/1 value of a bool metric.
func boolMetric(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}
