package cluster

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/slo"
)

// This file closes the loop inside the discrete-event simulator
// (DESIGN.md §14): DriftSpec injects a mid-run shift of the *measured*
// degradation surface — the ground truth moves, the prediction table does
// not — and PolicyClosedLoop reacts: each shard runs a windowed CUSUM
// detector (drift.go) over its observed-vs-predicted degradations,
// re-characterizes confirmed (lat, batch) pairs against the measured
// surface, re-scores its admission gate through the same
// slo.EvaluateAdmission check the static gate was built with, and
// migrates the worst-offending machine's newest instance off the drifted
// cell. Everything is shard-local and event-ordered, so runs stay
// bit-identical at any worker count.

// DriftSpec injects one step change of the measured degradation surface
// at time At: affected cells' actual degradation becomes
// clamp01(ActualDeg·Factor) (and their actual QoS loses proportionally).
// Predictions — the table, the SLO gate — are built pre-drift and go
// stale, which is exactly what the closed loop must detect. A nil spec
// means a stationary world.
type DriftSpec struct {
	// At is the simulated time the shift lands.
	At float64 `json:"at"`
	// Factor scales the affected cells' measured degradation (>1 makes
	// co-locations worse, <1 better; 1 is a no-op).
	Factor float64 `json:"factor"`
	// Batches lists the batch-application indices whose cells shift; nil
	// means every batch application.
	Batches []int `json:"batches,omitempty"`
}

// Validate rejects specs RunSim cannot execute.
func (d *DriftSpec) Validate(nBatch int) error {
	if d == nil {
		return nil
	}
	if !(d.At >= 0) || math.IsInf(d.At, 0) {
		return fieldError("at", "drift time %g must be non-negative and finite", d.At)
	}
	if !(d.Factor > 0) || math.IsInf(d.Factor, 0) {
		return fieldError("factor", "drift factor %g must be positive and finite", d.Factor)
	}
	for i, b := range d.Batches {
		if b < 0 || b >= nBatch {
			return fieldError(fmt.Sprintf("batches[%d]", i), "drift batch %d outside [0,%d)", b, nBatch)
		}
	}
	return nil
}

// affects reports whether batch application b shifts.
func (d *DriftSpec) affects(b int) bool {
	return len(d.Batches) == 0 || slices.Contains(d.Batches, b)
}

// driftWorld is the precomputed post-drift measured surface, shared
// read-only across shards: the drifted ActualDeg per cell (nil on legacy
// tables), and whether each cell's true post-drift outcome misses its
// objective, as buildGate decides it.
type driftWorld struct {
	at        float64
	actualDeg []float64
	violate   []bool
}

// buildDriftWorld shifts a copy of the table's measured surface and
// evaluates the violations on it once per cell.
func buildDriftWorld(cfg *SimConfig) (*driftWorld, error) {
	spec, t := cfg.Drift, *cfg.Table
	t.ActualQoS, t.ActualDeg = slices.Clone(t.ActualQoS), slices.Clone(t.ActualDeg)
	for i := range t.ActualQoS {
		if !spec.affects(i / t.MaxInstances % len(t.BatchApps)) {
			continue
		}
		if t.ActualDeg != nil {
			t.ActualDeg[i] = clamp01(t.ActualDeg[i] * spec.Factor)
		}
		// QoS is 1 − loss; the loss scales with the degradation.
		t.ActualQoS[i] = clamp01(1 - (1-t.ActualQoS[i])*spec.Factor)
	}
	g, err := buildGate(&t, cfg, nil, 1)
	if err != nil {
		return nil, err
	}
	return &driftWorld{at: spec.At, actualDeg: t.ActualDeg, violate: g.violate}, nil
}

// closedLoop is PolicyClosedLoop: one shard's mutable copy of the SLO
// admission surface plus its detector. Cells re-characterize at
// (lat, batch)-pair granularity: one confirmed detection refreshes the
// pair's whole instance-count column.
type closedLoop struct {
	s   *shardSim
	det *driftDetector

	// Shard-local working surfaces, seeded from the static table/gate and
	// rewritten in place on re-characterization.
	predDeg   []float64
	predBound []float64
	cur       gate
	scanned   [][]gate // cur, in the [gen][level] shape the scan reads
}

// newClosedLoop seeds the working state from the static surfaces.
func newClosedLoop(s *shardSim) admission {
	t, g := s.t, s.w.gates[0][0]
	cur := gate{admit: slices.Clone(g.admit), slack: slices.Clone(g.slack)}
	return &closedLoop{
		s:         s,
		det:       newDriftDetector(),
		predDeg:   slices.Clone(t.PredDeg),
		predBound: slices.Clone(t.PredBound),
		cur:       cur,
		scanned:   [][]gate{{cur}},
	}
}

func (cl *closedLoop) pick(b int) int32 { return cl.s.scan(b, cl.scanned) }

// pairID keys the detector: one accumulator per (lat, batch) pair.
func (s *shardSim) pairID(lat, b int) int { return lat*s.nBatch + b }

// actualDegAt reads the measured degradation surface in effect at time at.
func (s *shardSim) actualDegAt(at float64, cell int) float64 {
	if dw := s.w.dw; dw != nil && at >= dw.at && dw.actualDeg != nil {
		return dw.actualDeg[cell]
	}
	return s.t.ActualDeg[cell]
}

// placed counts the placement's violation, then feeds its observed
// degradation to the shard's detector and, on confirmation,
// re-characterizes the pair and migrates its worst offender.
func (cl *closedLoop) placed(local int32, b, cell int, at float64) {
	s := cl.s
	s.countViolation(local, cell, at)
	lat := int(s.machines[local].lat)
	if !cl.det.observe(s.pairID(lat, b), s.actualDegAt(at, cell), cl.predDeg[cell], cl.predBound[cell]) {
		return
	}
	s.res.detections++
	cl.recharacterize(lat, b, at)
	cl.migrateWorst(lat, b, at)
}

// recharacterize refreshes a confirmed pair's whole instance-count column
// against the measured surface — the simulator's analogue of routing the
// flagged app back through the characterization sweep — and re-scores the
// admission gate with the same slo check the static gate used, now with
// a zero bound (the refreshed cells are measured, not predicted).
func (cl *closedLoop) recharacterize(lat, b int, at float64) {
	s := cl.s
	p := s.cfg.SLO
	cls := p.classFor(lat)
	class := cls.Class()
	for n := 1; n <= s.maxInst; n++ {
		i := s.t.Cell(lat, b, n)
		cl.predDeg[i] = s.actualDegAt(at, i)
		cl.predBound[i] = 0
		dec := slo.EvaluateAdmission(cl.predDeg[i], 0, cls.Mu, cls.Lambda, class, p.Headroom)
		cl.cur.admit[i] = dec.Admitted
		cl.cur.slack[i] = dec.EffectiveBudget - dec.Tail
	}
	cl.det.reset(s.pairID(lat, b))
	s.res.recharacterized++
}

// migrateWorst re-scores the pair's occupied cells through the refreshed
// gate, picks the worst still-occupied offender (most negative slack
// among now-inadmissible cells, lowest machine id within the bucket), and
// moves its newest instance to the machine the refreshed gate would pick
// — a logged, typed decision, so replays stay bit-identical.
func (cl *closedLoop) migrateWorst(lat, b int, at float64) {
	s := cl.s
	row := s.rowIdx(0, 0, lat, 1+b)
	mask := s.rows[row*s.rowWords : (row+1)*s.rowWords]
	worstState, worstSlack := -1, math.Inf(1)
	// Occupied instance counts, highest first; a stacked row has no n = 0.
	for wi := len(mask) - 1; wi >= 0; wi-- {
		for w := mask[wi]; w != 0; {
			hb := 63 - bits.LeadingZeros64(w)
			w &^= 1 << hb
			n := wi<<6 | hb
			cell := s.t.Cell(lat, b, n)
			if cl.cur.admit[cell] {
				continue
			}
			if sl := cl.cur.slack[cell]; sl < worstSlack {
				worstSlack = sl
				worstState = row*(s.maxInst+1) + n
			}
		}
	}
	if worstState >= 0 {
		s.migrate(s.buckets[worstState].min(), b, at)
	}
}
