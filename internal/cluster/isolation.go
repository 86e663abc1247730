package cluster

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/isol"
)

// This file is the cluster half of the hardware QoS-enforcement subsystem
// (DESIGN.md §15): heterogeneous machine generations with per-generation
// QoS surfaces, the discrete isolation ladder PolicyIsolation actuates
// before migrating a violating co-location, and the pluggable
// thread-to-core allocation policies the admission scan scores with.

// MachineGenSpec describes one machine generation of a heterogeneous
// fleet: a name, its share of the machine population, its geometry, and
// its own prediction table — degradation surfaces differ across
// generations, so a co-location that violates on one part may be fine on
// another. Every generation's table must cover the same application
// populations with the same MaxInstances (same workload, different
// hardware).
type MachineGenSpec struct {
	// Name labels the generation (conventionally an isa.MachineGens name:
	// snb, ivb, power7, smt4, biglittle).
	Name string `json:"name"`
	// Count is the generation's share of the fleet: machine with global id
	// g belongs to the generation owning slot g mod ΣCounts, so membership
	// is a pure function of the id and survives churn deterministically.
	Count int `json:"count"`
	// Threads and Contexts override the fleet-wide server geometry for
	// this generation; zero inherits SimConfig.ThreadsPerServer /
	// ContextsPerServer.
	Threads  int `json:"threads,omitempty"`
	Contexts int `json:"contexts,omitempty"`
	// Table is the generation's QoS surface (BuildPredTable against this
	// generation's machine model).
	Table *PredTable `json:"table"`
}

// geometry resolves the generation's server geometry against the
// fleet-wide defaults.
func (g MachineGenSpec) geometry(c *SimConfig) (threads, contexts int) {
	threads, contexts = c.ThreadsPerServer, c.ContextsPerServer
	if g.Threads != 0 {
		threads = g.Threads
	}
	if g.Contexts != 0 {
		contexts = g.Contexts
	}
	return threads, contexts
}

// IsolSimParams parameterises PolicyIsolation: the discrete ladder of
// isolation operating points a machine can be escalated through. Nil
// Levels picks isol.DefaultSettings.
type IsolSimParams struct {
	Levels []isol.Setting `json:"levels,omitempty"`
}

func (p *IsolSimParams) withDefaults() *IsolSimParams {
	q := IsolSimParams{}
	if p != nil {
		q = *p
	}
	if q.Levels == nil {
		q.Levels = isol.DefaultSettings()
	}
	return &q
}

// Validate rejects ladders the policy cannot actuate.
func (p *IsolSimParams) Validate() error {
	if p == nil {
		return fieldError("isolation", "isolation policy needs isolation parameters")
	}
	if len(p.Levels) > math.MaxInt16 {
		return fieldError("levels", "%d isolation levels exceed %d", len(p.Levels), math.MaxInt16)
	}
	return nested("levels", isol.ValidateSettings(p.Levels))
}

// AllocPolicy is one pluggable thread-to-core allocation policy: a scoring
// function over the candidate (machine-state, batch) cells the admission
// scan enumerates. Lower score wins; ties keep the earliest candidate in
// the deterministic bucket-scan order (generation, level, latency app,
// occupancy), then the lowest machine id — so every policy is exactly as
// reproducible as the default. The family mirrors the SMT-aware allocation
// policies studied for real schedulers (PAPERS.md): greedy tightest-fit
// co-location, naive first-fit, load spreading, and contention-aware
// minimum-degradation variants.
type AllocPolicy struct {
	Name        string
	Description string
	// Score ranks an admissible candidate. slack is the admission
	// headroom (QoS above target, or tail-latency slack under the
	// effective budget), n the instance count after placement, predDeg
	// the predicted victim degradation at that occupancy.
	Score func(slack float64, n int, predDeg float64) float64
}

// AllocPolicies lists the built-in allocation policies in a stable order.
// bestfit is the default and reproduces the historical greedy behaviour
// bit-for-bit.
func AllocPolicies() []AllocPolicy {
	return []AllocPolicy{
		{
			Name:        "bestfit",
			Description: "tightest admissible fit: pack the machine with the least headroom (greedy co-location, the default)",
			Score:       func(slack float64, n int, predDeg float64) float64 { return slack },
		},
		{
			Name:        "firstfit",
			Description: "first admissible machine in deterministic scan order",
			Score:       func(slack float64, n int, predDeg float64) float64 { return 0 },
		},
		{
			Name:        "spread",
			Description: "widest headroom first: spread instances across the fleet",
			Score:       func(slack float64, n int, predDeg float64) float64 { return -slack },
		},
		{
			Name:        "minload",
			Description: "fewest resident instances first: balance occupancy",
			Score:       func(slack float64, n int, predDeg float64) float64 { return float64(n) },
		},
		{
			Name:        "mindeg",
			Description: "smallest predicted victim degradation first: contention-aware",
			Score:       func(slack float64, n int, predDeg float64) float64 { return predDeg },
		},
	}
}

// AllocPolicyByName resolves an allocation policy; the empty name is the
// bestfit default.
func AllocPolicyByName(name string) (AllocPolicy, error) {
	if name == "" {
		name = "bestfit"
	}
	var names []string
	for _, p := range AllocPolicies() {
		if p.Name == name {
			return p, nil
		}
		names = append(names, p.Name)
	}
	return AllocPolicy{}, fmt.Errorf("cluster: unknown alloc policy %q (have %s)", name, strings.Join(names, ", "))
}

// taxOf is the machine's contribution to the fleet throughput-tax
// integral: every resident instance forfeits the engaged level's
// ThroughputTax fraction of its throughput. Exactly zero at level 0 —
// the only level without a ladder — so the accounting never perturbs
// pre-isolation integrals.
func (s *shardSim) taxOf(m *simMachine) float64 { return s.taxAt(m.n, m.level) }

func (s *shardSim) taxAt(n, level int16) float64 {
	if level == 0 {
		return 0
	}
	return float64(n) * s.w.levels[level].ThroughputTax
}

// isolationPolicy is PolicyIsolation: the SLO gate's scan over every
// (generation, ladder level) gate, with an escalate-then-migrate hook.
type isolationPolicy struct{ gatePolicy }

func newIsolationPolicy(s *shardSim) admission { return isolationPolicy{gatePolicy{s}} }

// placed runs the ladder for the instance that just landed on local: if
// the machine's operating point leaves the placement violating its class
// budget, escalate to the weakest level that clears it (an isolation
// actuation, not a violation); only when no level clears does the
// violation count, and the instance migrates away as the last resort.
func (p isolationPolicy) placed(local int32, b, cell int, at float64) {
	s := p.s
	m := &s.machines[local]
	oldTax := s.taxAt(m.n-1, m.level)
	gates := s.w.gates[m.gen]
	if gates[m.level].violate[cell] {
		for l := m.level + 1; int(l) < s.nLevels; l++ {
			if !gates[l].violate[cell] {
				s.vacate(local)
				m.level = l
				s.occupy(local)
				s.res.isolations++
				break
			}
		}
	}
	s.taxNow += s.taxOf(m) - oldTax
	switch {
	case gates[m.level].violate[cell]:
		s.res.violations++
		// An identity-only ladder has nothing to escalate to and, like the
		// plain SLO gate, keeps the instance where it landed.
		if s.nLevels > 1 {
			s.migrate(local, b, at)
		}
	case gates[0].violate[cell]:
		// The unisolated placement would have violated; the engaged level
		// absorbed it without moving anything.
		s.res.isolationResolved++
	}
}

// simWorld is the read-only per-run state RunSim precomputes once and
// shares across shards: per-generation tables and geometry, the
// per-(generation, level) gates, the isolation ladder, the drift surface
// and the allocation scorer.
type simWorld struct {
	tables []*PredTable
	gates  [][]gate  // [gen][level]; the identity level alone without a ladder
	geoms  []genGeom // per-generation server geometry, len ≥ 1
	genCum []int     // cumulative generation counts; nil when homogeneous
	levels []isol.Setting
	dw     *driftWorld
	alloc  func(slack float64, n int, predDeg float64) float64 // nil = bestfit fast path
}

// genGeom is one generation's server geometry.
type genGeom struct {
	threads, contexts int
}

// buildSimWorld assembles the shared read-only surfaces for a validated,
// normalised config.
func buildSimWorld(cfg *SimConfig) (*simWorld, error) {
	w := &simWorld{tables: cfg.genTables()}
	if len(cfg.MachineGens) > 0 {
		w.geoms = make([]genGeom, len(cfg.MachineGens))
		w.genCum = make([]int, len(cfg.MachineGens))
		total := 0
		for i, g := range cfg.MachineGens {
			thr, ctxs := g.geometry(cfg)
			w.geoms[i] = genGeom{threads: thr, contexts: ctxs}
			total += g.Count
			w.genCum[i] = total
		}
	} else {
		w.geoms = []genGeom{{threads: cfg.ThreadsPerServer, contexts: cfg.ContextsPerServer}}
	}
	ladder := []isol.Setting{{DegScale: 1}}
	if cfg.Isol != nil {
		w.levels, ladder = cfg.Isol.Levels, cfg.Isol.Levels
	}
	spec, _ := policyOf(cfg.Policy)
	w.gates = make([][]gate, len(w.tables))
	for gi, t := range w.tables {
		var floor []float64
		if spec.floor != nil {
			floor = spec.floor(t)
		}
		for _, lv := range ladder {
			g, err := buildGate(t, cfg, floor, lv.DegScale)
			if err != nil {
				return nil, err
			}
			w.gates[gi] = append(w.gates[gi], g)
		}
	}
	if cfg.Drift != nil {
		dw, err := buildDriftWorld(cfg)
		if err != nil {
			return nil, err
		}
		w.dw = dw
	}
	if cfg.Alloc != "" && cfg.Alloc != "bestfit" {
		p, err := AllocPolicyByName(cfg.Alloc)
		if err != nil {
			return nil, err
		}
		w.alloc = p.Score
	}
	return w, nil
}

// predDegOf reads the predicted victim degradation backing a cell for
// contention-aware allocation scoring, falling back to the QoS complement
// on legacy tables without a degradation surface.
func predDegOf(t *PredTable, cell int) float64 {
	if len(t.PredDeg) > 0 {
		return t.PredDeg[cell]
	}
	return 1 - t.PredQoS[cell]
}
