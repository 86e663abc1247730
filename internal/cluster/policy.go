package cluster

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/slo"
	"repro/internal/xrand"
)

// This file is the admission seam of the discrete-event simulator
// (DESIGN.md §12): every PolicyKind is one admission implementation,
// resolved once per shard by policyOf. The shard loop only ever calls
// pick and placed, so a new policy is a new implementation plus one
// policyOf entry — place, runShard and mergeShards stay untouched. The
// idea is the AllocPolicy scoring seam (isolation.go) lifted from
// placement scoring up to admission.

// admission is one policy's behaviour inside a shard.
type admission interface {
	// pick chooses the local machine for one instance of batch b, or −1
	// to reject it.
	pick(b int) int32
	// placed runs after an instance of batch b landed on machine local at
	// table cell: violation accounting, the isolation ladder, or the
	// closed loop's observe/re-characterize/migrate step.
	placed(local int32, b, cell int, at float64)
}

// policySpec is what a PolicyKind asks of the configuration, plus the
// per-shard constructor of its implementation.
type policySpec struct {
	needsSLO   bool // SimConfig.SLO is required
	ladder     bool // actuates SimConfig.Isol; does not compose with drift
	scans      bool // scores bucket-scan candidates with SimConfig.Alloc
	mixedFleet bool // runs on heterogeneous MachineGens fleets
	// floor selects the QoS surface a QoS-floor policy admits on; nil
	// admits through the SLO gate (buildGate).
	floor func(t *PredTable) []float64
	// control and label name the comparison run clustersim sets beside
	// this policy (ControlConfig); an empty label means none.
	control  PolicyKind
	label    string
	newShard func(s *shardSim) admission
}

// policyOf resolves a PolicyKind to its implementation; ok is false for
// unknown kinds.
func policyOf(k PolicyKind) (spec policySpec, ok bool) {
	switch k {
	case PolicySMiTe:
		return policySpec{scans: true, mixedFleet: true, newShard: newGatePolicy,
			floor: func(t *PredTable) []float64 { return t.PredQoS }}, true
	case PolicyOracle:
		return policySpec{scans: true, mixedFleet: true, newShard: newGatePolicy,
			floor: func(t *PredTable) []float64 { return t.ActualQoS }}, true
	case PolicyRandom:
		return policySpec{mixedFleet: true, newShard: newRandomPolicy}, true
	case PolicySLO:
		return policySpec{needsSLO: true, scans: true, mixedFleet: true, newShard: newGatePolicy,
			control: PolicySMiTe, label: "greedy"}, true
	case PolicyClosedLoop:
		return policySpec{needsSLO: true, scans: true, newShard: newClosedLoop,
			control: PolicySLO, label: "static gate"}, true
	case PolicyIsolation:
		return policySpec{needsSLO: true, ladder: true, scans: true, mixedFleet: true, newShard: newIsolationPolicy,
			control: PolicySLO, label: "no-enforcement gate"}, true
	}
	return policySpec{}, false
}

// NeedsSLO reports whether policy k requires SimConfig.SLO.
func (k PolicyKind) NeedsSLO() bool {
	spec, _ := policyOf(k)
	return spec.needsSLO
}

// ControlConfig returns the control run clustersim compares cfg's policy
// against — the same config under the greedy QoS floor for PolicySLO, or
// under the static SLO gate for PolicyClosedLoop and PolicyIsolation, so
// violation accounting is held identical — with the control's label; ok
// is false when the policy has no control.
func ControlConfig(cfg SimConfig) (control SimConfig, label string, ok bool) {
	spec, _ := policyOf(cfg.Policy)
	if spec.label == "" {
		return SimConfig{}, "", false
	}
	cfg.Policy = spec.control
	cfg.Isol = nil
	return cfg, spec.label, true
}

// gate is one precomputed admission surface over a table's cells, for
// one (generation, isolation level) pair: whether a placement is
// admissible, its headroom for allocation scoring, and whether its
// measured outcome misses the objective.
type gate struct {
	admit   []bool
	slack   []float64
	violate []bool
}

// buildGate evaluates a gate once per cell of t. A QoS-floor policy passes
// its floor surface and admits on q ≥ target with headroom q − target;
// the others pass nil and admit through the SLO check POST /v1/admit runs,
// with slack the effective budget minus the inflated tail. violate is the
// class tail budget when SLO parameters are set — for every policy, so
// greedy-vs-SLO studies count violations alike — and the QoS floor
// otherwise. An isolation level's DegScale shrinks the predicted
// degradation, its bound and the measured degradation alike (1 without
// isolation), so each level gets its own gate.
func buildGate(t *PredTable, cfg *SimConfig, floor []float64, scale float64) (gate, error) {
	p := cfg.SLO
	if p != nil && !t.HasDegradations() {
		return gate{}, fmt.Errorf("cluster: prediction table has no degradation surface (rebuild it with this version's BuildPredTable)")
	}
	cells := len(t.ActualQoS)
	g := gate{admit: make([]bool, cells), slack: make([]float64, cells), violate: make([]bool, cells)}
	for l := range t.LatencyApps {
		var cl SLOSimClass
		if p != nil {
			cl = p.classFor(l)
		}
		for b := range t.BatchApps {
			for n := 1; n <= t.MaxInstances; n++ {
				i := t.Cell(l, b, n)
				if floor != nil {
					g.admit[i], g.slack[i] = floor[i] >= cfg.Target, floor[i]-cfg.Target
				} else if p != nil {
					dec := slo.EvaluateAdmission(t.PredDeg[i]*scale, t.PredBound[i]*scale, cl.Mu, cl.Lambda, cl.Class(), p.Headroom)
					g.admit[i], g.slack[i] = dec.Admitted, dec.EffectiveBudget-dec.Tail
				}
				g.violate[i] = t.ActualQoS[i] < cfg.Target
				if p != nil {
					g.violate[i] = cl.violated(t.ActualDeg[i] * scale)
				}
			}
		}
	}
	return g, nil
}

// scan is the bucket scan the five scanning policies share; each supplies
// only its gates, gates[gen][level]. It picks the machine for one
// instance of batch b, or −1 to reject: O(generations × levels × lats)
// row reads that visit only non-empty buckets, never a fleet scan,
// scoring admissible candidates with the configured allocation policy
// (bestfit by default: tightest headroom wins) under deterministic
// tie-breaks (first admissible state in bucket-scan order, then lowest
// machine id).
func (s *shardSim) scan(b int, gates [][]gate) int32 {
	alloc := s.w.alloc
	bestState := -1
	bestScore := math.Inf(1)
	stride := s.maxInst + 1
	for gen := 0; gen < s.nGens; gen++ {
		t := s.w.tables[gen]
		for level := 0; level < s.nLevels; level++ {
			admit, slack := gates[gen][level].admit, gates[gen][level].slack
			for lat := 0; lat < s.nLat; lat++ {
				// n counts a candidate's resident instances: n = 0 is the
				// empty machines, which take the first instance (always at
				// level 0 — isolation disengages when a machine drains);
				// occupied ones stack more of the same batch kind up to
				// MaxInstances. Cell indices are linear in n.
				row, cell1 := s.rowIdx(gen, level, lat, 1+b), t.Cell(lat, b, 1)
				empty := s.rowIdx(gen, 0, lat, 0)
				for wi, w := range s.rows[row*s.rowWords : (row+1)*s.rowWords] {
					if wi == 0 && level == 0 {
						// A stacked row's bit 0 is never set: lend it the
						// empty machines' bucket.
						w |= s.rows[empty*s.rowWords] & 1
					}
					for ; w != 0; w &= w - 1 {
						n := wi<<6 | bits.TrailingZeros64(w)
						if n >= s.maxInst {
							break // full machines take no more
						}
						cell := cell1 + n
						if !admit[cell] {
							continue
						}
						sc := slack[cell]
						if alloc != nil {
							sc = alloc(sc, n+1, predDegOf(t, cell))
						}
						if sc < bestScore {
							bestScore, bestState = sc, row*stride+n
							if n == 0 {
								bestState = empty * stride
							}
						}
					}
				}
			}
		}
	}
	if bestState < 0 {
		return -1
	}
	return s.buckets[bestState].min()
}

// countViolation is the violation accounting every policy but Isolation
// shares: it reads the unisolated gate of the machine's generation, or
// the post-drift one once the drift has landed.
func (s *shardSim) countViolation(local int32, cell int, at float64) {
	violate := s.w.gates[s.machines[local].gen][0].violate
	if dw := s.w.dw; dw != nil && at >= dw.at {
		violate = dw.violate
	}
	if violate[cell] {
		s.res.violations++
	}
}

// migrate moves machine from's newest instance of batch b to the machine
// the policy picks — the closed loop's drift response and the isolation
// ladder's last resort — as a typed migrate log entry. The source leaves
// the bucket scan meanwhile so the instance cannot land straight back;
// its departure event rides along.
func (s *shardSim) migrate(from int32, b int, at float64) {
	vm := &s.machines[from]
	s.vacate(from)
	target := s.adm.pick(b)
	if target < 0 {
		s.occupy(from)
		s.res.migrationsFailed++
		return
	}
	oldTax := s.taxOf(vm)
	h := vm.jobs[len(vm.jobs)-1]
	vm.jobs = vm.jobs[:len(vm.jobs)-1]
	vm.n--
	if vm.n == 0 {
		vm.batch = -1
		vm.level = 0
	}
	s.occupy(from)
	s.taxNow += s.taxOf(vm) - oldTax

	tm := &s.machines[target]
	s.vacate(target)
	oldTax = s.taxOf(tm)
	tm.batch = int16(b)
	tm.n++
	s.occupy(target)
	s.taxNow += s.taxOf(tm) - oldTax
	tm.jobs = append(tm.jobs, h)
	s.owner[h] = target

	s.res.migrations++
	s.res.log.migs = append(s.res.log.migs, logMigration{
		logEntry: logEntry{At: at, Machine: target, Batch: int16(b), N: tm.n},
		Pos:      uint32(s.res.log.len()), From: from,
	})
}

// gatePolicy is PolicySMiTe, PolicyOracle and PolicySLO: best fit over
// the precomputed gates — the QoS floor on the predicted or the measured
// surface, or the per-class tail-latency budgets (slo.go).
type gatePolicy struct{ s *shardSim }

func newGatePolicy(s *shardSim) admission { return gatePolicy{s} }

func (p gatePolicy) pick(b int) int32                     { return p.s.scan(b, p.s.w.gates) }
func (p gatePolicy) placed(l int32, _, c int, at float64) { p.s.countViolation(l, c, at) }

// randomPolicy is PolicyRandom: it probes the up-machine ring from a
// random start for spare capacity, ignoring QoS, on a per-shard stream.
type randomPolicy struct {
	s   *shardSim
	rng *xrand.Rand
}

func newRandomPolicy(s *shardSim) admission {
	return &randomPolicy{s, xrand.New(s.cfg.Workload.Seed ^ 0x51A1 ^ (uint64(s.shard)+1)*0xBF58476D1CE4E5B9)}
}

func (p *randomPolicy) pick(b int) int32 {
	s := p.s
	if len(s.upIDs) == 0 {
		return -1
	}
	start := p.rng.Intn(len(s.upIDs))
	for k := 0; k < len(s.upIDs); k++ {
		local := s.upIDs[(start+k)%len(s.upIDs)]
		m := &s.machines[local]
		if (m.batch < 0 || int(m.batch) == b) && int(m.n) < s.maxInst {
			return local
		}
	}
	return -1
}

func (p *randomPolicy) placed(l int32, _, c int, at float64) { p.s.countViolation(l, c, at) }
