package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedZeroIsValid(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced a degenerate stream")
	}
}

func TestDistinctSeedsDecorrelate(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between adjacent seeds", same)
	}
}

func TestFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnBounds(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint16) bool {
		if n == 0 {
			return true
		}
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(int(n))
			if v < 0 || v >= int(n) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(7)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %.4f, want ~0.5", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := New(9)
	const lambda = 4.0
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(lambda)
	}
	mean := sum / n
	if math.Abs(mean-1/lambda) > 0.01 {
		t.Errorf("Exp(%g) mean = %.4f, want %.4f", lambda, mean, 1/lambda)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestGeometricMean(t *testing.T) {
	r := New(11)
	for _, mean := range []float64{2, 5, 12} {
		sum := 0.0
		const n = 100000
		for i := 0; i < n; i++ {
			g := r.Geometric(mean)
			if g < 1 {
				t.Fatalf("Geometric(%g) returned %d < 1", mean, g)
			}
			sum += float64(g)
		}
		got := sum / n
		if math.Abs(got-mean)/mean > 0.05 {
			t.Errorf("Geometric(%g) mean = %.3f", mean, got)
		}
	}
}

func TestGeometricSmallMean(t *testing.T) {
	r := New(3)
	for i := 0; i < 100; i++ {
		if g := r.Geometric(0.5); g != 1 {
			t.Fatalf("Geometric(0.5) = %d, want 1", g)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(13)
	for _, mean := range []float64{0.5, 3, 30, 120} {
		sum := 0.0
		const n = 50000
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean)/math.Max(mean, 1) > 0.05 {
			t.Errorf("Poisson(%g) mean = %.3f", mean, got)
		}
	}
}

func TestNormMoments(t *testing.T) {
	r := New(17)
	var sum, sq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sq += v * v
	}
	mean, variance := sum/n, sq/n
	if math.Abs(mean) > 0.01 {
		t.Errorf("Norm mean = %.4f", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("Norm variance = %.4f", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(19)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

// TestLFSRMatchesPaperFormula checks the LFSR against a direct
// transliteration of the paper's Figure 9(e) macro.
func TestLFSRMatchesPaperFormula(t *testing.T) {
	ref := uint32(0xACE1)
	l := NewLFSR(0xACE1)
	for i := 0; i < 10000; i++ {
		const mask = 0xd0000001
		ref = (ref >> 1) ^ ((0 - (ref & 1)) & mask)
		if got := l.Next(); got != ref {
			t.Fatalf("LFSR diverged from the paper's recurrence at step %d: %#x vs %#x", i, got, ref)
		}
	}
}

func TestLFSRZeroSeed(t *testing.T) {
	l := NewLFSR(0)
	if l.Next() == 0 {
		t.Error("zero-seeded LFSR stuck at zero")
	}
}

func TestLFSRPeriodIsLong(t *testing.T) {
	l := NewLFSR(1)
	first := l.Next()
	for i := 0; i < 1_000_000; i++ {
		if l.Next() == first && i > 0 {
			// Returning to the first value this early would make Ruler
			// address streams degenerate.
			if i < 100_000 {
				t.Fatalf("LFSR period too short: %d", i)
			}
			return
		}
	}
}

// Skip leaves the generator exactly where Sample does: one uniform draw
// when the mean exceeds 1, none otherwise.
func TestGeometricSkipMatchesSample(t *testing.T) {
	for _, mean := range []float64{0.5, 1, 1.0001, 3, 40} {
		g := NewGeometric(mean)
		a, b := New(17), New(17)
		for i := 0; i < 1000; i++ {
			g.Sample(a)
			g.Skip(b)
			if *a != *b {
				t.Fatalf("mean %g: state diverged after %d draws", mean, i+1)
			}
		}
	}
}
