// Package cache implements the set-associative cache model used at every
// level of the simulated memory hierarchy (private L1D and L2, shared L3).
//
// The model is a classic tag array with true-LRU or random replacement.
// Hardware contexts are given disjoint address spaces by the engine, so two
// co-located applications never share lines but do contend for set capacity
// — which is exactly the interference channel SMiTe's L1/L2/L3 Rulers probe.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/sim/isa"
	"repro/internal/xrand"
)

// Cache is one level of set-associative cache with LRU or random
// replacement. It is not safe for concurrent use.
type Cache struct {
	name      string
	ways      int
	sets      int
	lineShift uint
	setMask   uint64

	tags    []uint64 // sets*ways entries; invalidTag marks an empty way
	lines   int      // number of valid entries
	stamp   []uint64 // LRU only: last-touch clock per way, 0 exactly when invalid
	clock   uint64
	policy  isa.ReplacementPolicy
	rng     *xrand.Rand // victim selection for PolicyRandom
	rngSeed uint64      // construction seed, so Reset restores the victim stream

	accesses uint64
	hits     uint64
	misses   uint64
	evicts   uint64
}

// New builds a cache from the geometry in p. It panics on invalid geometry;
// configurations are validated by isa.Config.Validate before reaching here.
func New(name string, p isa.CacheParams) *Cache {
	sets := p.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: %s: set count %d must be a positive power of two", name, sets))
	}
	shift := uint(0)
	for l := p.LineBytes; l > 1; l >>= 1 {
		shift++
	}
	if 1<<shift != p.LineBytes {
		panic(fmt.Sprintf("cache: %s: line size %d must be a power of two", name, p.LineBytes))
	}
	n := sets * p.Ways
	seed := uint64(len(name))*0x9E3779B97F4A7C15 + uint64(n)
	c := &Cache{
		name:      name,
		ways:      p.Ways,
		sets:      sets,
		lineShift: shift,
		setMask:   uint64(sets - 1),
		tags:      make([]uint64, n),
		policy:    p.Policy,
		rng:       xrand.New(seed),
		rngSeed:   seed,
	}
	if p.Policy != isa.PolicyRandom {
		// Random replacement never reads recency, so it keeps none: no
		// stamp array and no stamp write per access.
		c.stamp = make([]uint64, n)
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

// invalidTag marks an empty way. A real tag is addr >> lineShift and would
// need an address above 2^63 to collide; the engine's per-context address
// spaces live many orders of magnitude below that.
const invalidTag = ^uint64(0)

// Name returns the label given at construction.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets; Ways the associativity.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Access looks up addr and, when allocate is true, fills the line on a miss
// (evicting the victim way). It returns true on a hit.
func (c *Cache) Access(addr uint64, allocate bool) bool {
	c.clock++
	c.accesses++
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	tag := line // full line id as tag: unambiguous and cheap
	base := set * c.ways

	// Hit scan over the tag subslice alone: the common case touches one
	// array and defers all victim bookkeeping to the miss path.
	tags := c.tags[base : base+c.ways]
	for i, t := range tags {
		if t == tag {
			c.hits++
			if c.stamp != nil {
				c.stamp[base+i] = c.clock
			}
			return true
		}
	}
	c.misses++
	// The victim is chosen (and a random draw made) even when the miss
	// does not allocate, so the replacement stream never depends on it.
	way, invalid := c.victim(base)
	if allocate {
		c.install(base+way, invalid, tag)
	}
	return false
}

// Fill installs addr's line on the caller's guarantee that it is absent:
// it is exactly Access(addr, true) on a miss — same counters, same victim,
// same random draw — without the hit scan. Filling a resident line would
// leave two ways holding one tag; Chip.Prewarm, the only caller, probes
// each line with Contains first when an invariant checker is attached.
func (c *Cache) Fill(addr uint64) {
	c.clock++
	c.accesses++
	c.misses++
	line := addr >> c.lineShift
	base := int(line&c.setMask) * c.ways
	way, invalid := c.victim(base)
	c.install(base+way, invalid, line)
}

// victim returns the way (relative to base) an allocating miss in the set
// at base fills, and whether that way is empty: the first invalid way when
// one exists, else the policy's choice.
//
// A way's stamp is 0 exactly when it is invalid: New and Flush zero every
// stamp with the clock, and every stamp write follows a clock++. Under LRU
// the first minimum stamp is therefore the first invalid way whenever one
// exists and the least recently used way otherwise, so one scan serves
// both. Random replacement keeps no stamps.
func (c *Cache) victim(base int) (way int, invalid bool) {
	if c.policy == isa.PolicyRandom {
		if c.lines < len(c.tags) { // a full cache has no invalid way
			for i, t := range c.tags[base : base+c.ways] {
				if t == invalidTag {
					return i, true
				}
			}
		}
		return c.rng.Intn(c.ways), false
	}
	oldest := ^uint64(0)
	for i, s := range c.stamp[base : base+c.ways] {
		if s < oldest {
			way, oldest = i, s
		}
	}
	return way, oldest == 0
}

// install writes tag into way i, counting a new line or an eviction.
func (c *Cache) install(i int, invalid bool, tag uint64) {
	if invalid {
		c.lines++
	} else {
		c.evicts++
	}
	c.tags[i] = tag
	if c.stamp != nil {
		c.stamp[i] = c.clock
	}
}

// AccessMasked is Access with Intel CAT semantics: the lookup hits in any
// way, but on an allocating miss the victim is chosen only among the ways
// set in mask (bit i = way i). With every way set the victim selection —
// including the random-replacement RNG draw — is bit-identical to Access,
// so unrestricted contexts on a partitioned cache behave exactly as on an
// unpartitioned one. A mask owning no real way (rejected upstream by
// isol.Policy.Validate) records the miss but allocates nothing.
func (c *Cache) AccessMasked(addr uint64, allocate bool, mask uint64) bool {
	c.clock++
	c.accesses++
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	tag := line
	base := set * c.ways

	tags := c.tags[base : base+c.ways]
	for i, t := range tags {
		if t == tag {
			c.hits++
			if c.stamp != nil {
				c.stamp[base+i] = c.clock
			}
			return true
		}
	}
	c.misses++

	way, invalid := c.victimMasked(base, mask&(uint64(1)<<uint(c.ways)-1))
	if allocate && way >= 0 {
		c.install(base+way, invalid, tag)
	}
	return false
}

// victimMasked is victim restricted to the ways set in own (already
// clipped to the associativity), visited in ascending order; it returns
// -1 when own is empty. A random draw picks uniformly among the owned
// ways, so a full mask draws exactly as victim does.
func (c *Cache) victimMasked(base int, own uint64) (way int, invalid bool) {
	if own == 0 {
		return -1, false
	}
	if c.policy == isa.PolicyRandom {
		for m := own; m != 0 && c.lines < len(c.tags); m &= m - 1 {
			if i := bits.TrailingZeros64(m); c.tags[base+i] == invalidTag {
				return i, true
			}
		}
		m := own
		for k := c.rng.Intn(bits.OnesCount64(own)); k > 0; k-- {
			m &= m - 1
		}
		return bits.TrailingZeros64(m), false
	}
	oldest := ^uint64(0)
	for m := own; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if s := c.stamp[base+i]; s < oldest {
			way, oldest = i, s
		}
	}
	return way, oldest == 0
}

// Contains reports whether addr is currently resident, without touching LRU
// state or counters. Intended for tests and invariant checks.
func (c *Cache) Contains(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	tag := line
	base := set * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == tag {
			return true
		}
	}
	return false
}

// Stats returns cumulative hit/miss/eviction counts.
func (c *Cache) Stats() (hits, misses, evicts uint64) {
	return c.hits, c.misses, c.evicts
}

// Accesses returns the cumulative lookup count. It is maintained
// independently of hits and misses so that the invariant checker can verify
// hits+misses == accesses (a tally any future fast-path refactor could
// silently break).
func (c *Cache) Accesses() uint64 { return c.accesses }

// LineCount returns the number of currently valid lines (≤ Sets()*Ways()).
// It is O(1): the count is maintained on fill and flush, so the invariant
// checker can poll it every interval without scanning the tag array.
func (c *Cache) LineCount() int { return c.lines }

// ResetStats zeroes the counters without disturbing cache contents, so
// measurement windows can exclude warm-up.
func (c *Cache) ResetStats() {
	c.accesses, c.hits, c.misses, c.evicts = 0, 0, 0, 0
}

// Flush invalidates every line and zeroes statistics.
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	clear(c.stamp)
	c.lines = 0
	c.clock = 0
	c.ResetStats()
}

// Reset restores the cache to its post-New state: every line invalid, all
// statistics zero, and the random-replacement victim stream rewound to its
// construction seed — so a reused cache behaves bit-identically to a fresh
// one (Flush alone leaves the victim RNG advanced).
func (c *Cache) Reset() {
	c.Flush()
	c.rng.Seed(c.rngSeed)
}

// Occupancy returns the fraction of valid lines, a cheap proxy for how much
// of the capacity a workload has claimed.
func (c *Cache) Occupancy() float64 {
	return float64(c.LineCount()) / float64(len(c.tags))
}
