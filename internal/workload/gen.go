package workload

import (
	"repro/internal/sim/isa"
	"repro/internal/xrand"
)

// Gen generates the deterministic micro-op stream for one hardware context
// running the application described by a Spec. It implements engine.Stream.
type Gen struct {
	spec *Spec
	rng  *xrand.Rand

	// cumulative mix thresholds aligned with Mix.kinds order
	cum   [9]float64
	kinds [9]isa.UopKind

	footWords uint64 // main footprint in 8-byte words
	hotWords  uint64 // hot region in 8-byte words
	warmWords uint64 // warm region in 8-byte words
	stridePos uint64

	// branch bias bits derived from (tag, spec number): all threads of an
	// application share its static branch behaviour.
	biasSalt uint64

	// depGeo samples dependency distances; one sampler per Gen hoists the
	// log constant out of the per-uop path.
	depGeo xrand.GeometricSampler
}

// NewGen builds a generator for spec with the given seed. Distinct seeds
// yield decorrelated but statistically identical streams (threads of a
// multithreaded app, repeated runs).
func NewGen(spec *Spec, seed uint64) *Gen {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	g := &Gen{
		spec:     spec,
		rng:      xrand.New(seed ^ uint64(spec.Number+1)*0x9E3779B97F4A7C15),
		biasSalt: uint64(spec.Number+1) * 0xA24BAED4963EE407,
		depGeo:   xrand.NewGeometric(spec.MeanDepDist),
	}
	c := 0.0
	for i, kf := range spec.Mix.kinds() {
		c += kf.f
		g.cum[i] = c
		g.kinds[i] = kf.k
	}
	g.footWords = max64(spec.FootprintBytes/8, 1)
	g.hotWords = max64(spec.HotBytes/8, 1)
	g.warmWords = max64(spec.WarmBytes/8, 1)
	if spec.FootprintBytes > 0 {
		// Start stride walks at a seed-dependent offset so co-scheduled
		// instances do not march in lockstep.
		g.stridePos = (g.rng.Uint64n(g.footWords) * 8) &^ 63
	}
	return g
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Spec returns the generator's application model.
func (g *Gen) Spec() *Spec { return g.spec }

// PrewarmFootprint declares the regions a long-running execution keeps
// resident: the hot and warm reuse regions always, and the main footprint
// only when its access pattern actually re-touches it (random or
// mostly-random mixed). A stride walk has no reuse before wraparound, so
// installing it would fake residency it never earns.
func (g *Gen) PrewarmFootprint() []uint64 {
	var out []uint64
	if g.spec.HotFrac > 0 {
		out = append(out, g.spec.HotBytes)
	}
	if g.spec.WarmFrac > 0 {
		out = append(out, g.spec.WarmBytes)
	}
	if g.mainReuses() {
		out = append(out, g.spec.FootprintBytes)
	}
	return out
}

// mainReuses reports whether the main footprint is re-touched on the
// timescale of a measurement window: random patterns always are, strided
// patterns only when the walk wraps quickly enough to revisit lines.
func (g *Gen) mainReuses() bool {
	s := g.spec
	if s.Pattern == PatternRandom {
		return true
	}
	if s.Pattern == PatternMixed && s.RandomFrac >= 0.5 {
		return true
	}
	if s.StrideBytes == 0 {
		return false
	}
	return s.FootprintBytes/s.StrideBytes <= 256*1024 // accesses per wrap
}

// Next fills u with the next micro-op of the stream.
func (g *Gen) Next(u *isa.Uop) {
	s := g.spec
	kind := g.nextKind()
	u.Kind = kind

	switch kind {
	case isa.Nop:
		// No dependencies, no operands.
	case isa.Load:
		u.Addr = g.nextAddr()
		// Only pointer-chasing loads carry an address dependency; the
		// rest are address-independent and overlap (MLP).
		if g.rng.Bool(s.PointerChaseFrac) {
			u.Dep1 = g.depDist()
		}
	case isa.Store:
		// The stored value depends on recent computation.
		u.Dep1 = g.depDist()
		u.Addr = g.nextAddr()
	case isa.Branch:
		// The compare operand depends on recent computation.
		u.Dep1 = g.depDist()
		u.BrTag, u.Taken = g.nextBranch()
	default:
		// ALU ops: independent with probability IndepFrac, otherwise a
		// geometric backward dependency (and sometimes a second one).
		if !g.rng.Bool(s.IndepFrac) {
			u.Dep1 = g.depDist()
			if s.Dep2Prob > 0 && g.rng.Bool(s.Dep2Prob) {
				u.Dep2 = g.depDist()
			}
		}
	}

	// Front-end events from the code footprint.
	if s.ICacheMissRate > 0 && g.rng.Bool(s.ICacheMissRate) {
		u.ICacheMiss = true
	}
	if s.ITLBMissRate > 0 && g.rng.Bool(s.ITLBMissRate) {
		u.ITLBMiss = true
	}
}

// Warm advances the stream by one micro-op exactly as Next does, with the
// same random draws in the same order, but fills only what functional
// warm-up reads: Kind, Addr for loads and stores, and BrTag and Taken for
// branches. Every other field keeps whatever u held. Dependency distances
// are skipped, not sampled, which saves Next's logarithm per distance. It
// implements engine.Warmer.
func (g *Gen) Warm(u *isa.Uop) {
	s := g.spec
	kind := g.nextKind()
	u.Kind = kind

	switch kind {
	case isa.Nop:
	case isa.Load:
		u.Addr = g.nextAddr()
		if g.rng.Bool(s.PointerChaseFrac) {
			g.depGeo.Skip(g.rng)
		}
	case isa.Store:
		g.depGeo.Skip(g.rng)
		u.Addr = g.nextAddr()
	case isa.Branch:
		g.depGeo.Skip(g.rng)
		u.BrTag, u.Taken = g.nextBranch()
	default:
		if !g.rng.Bool(s.IndepFrac) {
			g.depGeo.Skip(g.rng)
			if s.Dep2Prob > 0 && g.rng.Bool(s.Dep2Prob) {
				g.depGeo.Skip(g.rng)
			}
		}
	}
	g.rng.Bool(s.ICacheMissRate)
	g.rng.Bool(s.ITLBMissRate)
}

// nextKind draws the next micro-op's kind from the instruction mix.
func (g *Gen) nextKind() isa.UopKind {
	r := g.rng.Float64()
	for i := range g.cum {
		if r < g.cum[i] {
			return g.kinds[i]
		}
	}
	return isa.Nop
}

// nextBranch draws a branch's static tag and outcome. Each static branch
// has a fixed bias direction; the outcome follows the bias with
// probability BranchBias.
func (g *Gen) nextBranch() (tag uint32, taken bool) {
	tag = uint32(g.rng.Intn(g.spec.BranchTags))
	bias := (uint64(tag)*0x9E3779B97F4A7C15^g.biasSalt)>>17&1 == 1
	if g.rng.Bool(g.spec.BranchBias) {
		return tag, bias
	}
	return tag, !bias
}

func (g *Gen) depDist() uint16 {
	d := g.depGeo.Sample(g.rng)
	if d > 64 {
		d = 64
	}
	return uint16(d)
}

// nextAddr produces the next data address (8-byte aligned) according to the
// spec's three-level locality model: HotFrac of accesses hit the hot
// region, WarmFrac the warm region, and the rest follow the main pattern
// over the full footprint. The regions nest at the bottom of the address
// space (hot ⊂ warm ⊂ main), as reuse regions do in real programs.
func (g *Gen) nextAddr() uint64 {
	s := g.spec
	if s.HotFrac > 0 || s.WarmFrac > 0 {
		r := g.rng.Float64()
		if r < s.HotFrac {
			return g.rng.Uint64n(g.hotWords) * 8
		}
		if r < s.HotFrac+s.WarmFrac {
			return g.rng.Uint64n(g.warmWords) * 8
		}
	}
	random := false
	switch s.Pattern {
	case PatternRandom:
		random = true
	case PatternStride:
		random = false
	case PatternMixed:
		random = g.rng.Bool(s.RandomFrac)
	}
	if random {
		return g.rng.Uint64n(g.footWords) * 8
	}
	g.stridePos += s.StrideBytes
	if g.stridePos >= s.FootprintBytes {
		g.stridePos %= s.FootprintBytes
	}
	return g.stridePos &^ 7
}
