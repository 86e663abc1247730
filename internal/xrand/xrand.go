// Package xrand provides small, fast, deterministic random number
// generators used throughout the simulator and the queueing models.
//
// The simulator must be exactly reproducible: the same seed always yields
// the same instruction stream, the same addresses and the same counters.
// math/rand's global state is unsuitable for that, and the simulator sits on
// hot paths where allocation-free generation matters, so we keep a tiny
// xorshift64* implementation here together with the distribution helpers
// (exponential, Poisson, geometric) the workload generators and the M/M/1
// simulator need.
package xrand

import "math"

// Rand is a xorshift64* pseudo-random generator. The zero value is invalid;
// construct with New. Rand is not safe for concurrent use; give each
// goroutine its own instance.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed. A zero seed is replaced with a
// fixed non-zero constant because xorshift has an all-zero fixed point.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state. Zero is mapped to a fixed constant.
func (r *Rand) Seed(seed uint64) {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	// Scramble the seed with splitmix64 so that nearby seeds produce
	// decorrelated streams.
	z := seed + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	r.state = z
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Uint32 returns the next 32 pseudo-random bits.
func (r *Rand) Uint32() uint32 {
	return uint32(r.Uint64() >> 32)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n) via Fisher-Yates.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Exp returns an exponentially distributed value with rate lambda
// (mean 1/lambda). It panics if lambda <= 0.
func (r *Rand) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("xrand: Exp with non-positive rate")
	}
	u := r.Float64()
	// Guard against log(0).
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -math.Log(1-u) / lambda
}

// Geometric returns a geometrically distributed integer >= 1 with the given
// mean. A mean <= 1 always returns 1.
func (r *Rand) Geometric(mean float64) int {
	return NewGeometric(mean).Sample(r)
}

// GeometricSampler draws geometric integers >= 1 with a fixed mean. It
// hoists the log(1-p) constant that Rand.Geometric recomputes per call;
// callers sampling the same mean millions of times (the workload
// generators' dependency distances) construct one sampler up front.
// Sample is bit-identical to Rand.Geometric for the same Rand state.
type GeometricSampler struct {
	mean  float64
	denom float64 // math.Log(1 - 1/mean), valid when mean > 1
}

// NewGeometric builds a sampler with the given mean.
func NewGeometric(mean float64) GeometricSampler {
	g := GeometricSampler{mean: mean}
	if mean > 1 {
		g.denom = math.Log(1 - 1/mean)
	}
	return g
}

// Sample draws the next value from r.
func (g GeometricSampler) Sample(r *Rand) int {
	if g.mean <= 1 {
		return 1
	}
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	k := 1 + int(math.Log(1-u)/g.denom)
	if k < 1 {
		k = 1
	}
	return k
}

// Skip advances r exactly as Sample would without computing the value:
// it consumes the one uniform draw Sample makes, and nothing when the
// mean is at most 1. Functional warm-up uses it to keep a stream's random
// sequence in step while discarding the distances.
func (g GeometricSampler) Skip(r *Rand) {
	if g.mean > 1 {
		r.Uint64()
	}
}

// Poisson returns a Poisson-distributed integer with the given mean using
// Knuth's method for small means and a normal approximation for large ones.
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 60 {
		// Normal approximation with continuity correction.
		n := int(mean + math.Sqrt(mean)*r.Norm() + 0.5)
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Norm returns a standard normal variate using the Box-Muller transform.
func (r *Rand) Norm() float64 {
	u1 := r.Float64()
	if u1 <= 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// LFSR is the 32-bit linear-feedback shift register the paper's memory
// Rulers use as a lightweight random number generator (Figure 9(e)):
//
//	#define MASK 0xd0000001u
//	#define RAND (lfsr = (lfsr >> 1) ^ (unsigned int)(0 - (lfsr & 1u) & MASK))
//
// We reproduce it bit-for-bit so the Ruler address streams match the paper's
// construction.
type LFSR struct {
	state uint32
}

// NewLFSR returns an LFSR seeded with seed (zero mapped to 1, since an LFSR
// state of zero is a fixed point).
func NewLFSR(seed uint32) *LFSR {
	if seed == 0 {
		seed = 1
	}
	return &LFSR{state: seed}
}

// Next advances the register and returns its new state.
func (l *LFSR) Next() uint32 {
	const mask = 0xd0000001
	l.state = (l.state >> 1) ^ ((0 - (l.state & 1)) & mask)
	return l.state
}
