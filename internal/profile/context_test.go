package profile

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

func ctxTestSpecs(t *testing.T) []*workload.Spec {
	t.Helper()
	var specs []*workload.Spec
	for _, name := range []string{"444.namd", "429.mcf"} {
		s, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	return specs
}

// CharacterizeAllContext must return the exact same bits at every Parallelism —
// the scheduler's index-addressed reduction makes worker count a pure
// throughput knob.
func TestCharacterizeAllParallelismInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization runs in short mode")
	}
	specs := ctxTestSpecs(t)
	var baseline []Characterization
	for _, workers := range []int{1, 2, 3, 8} {
		opts := FastOptions()
		opts.Parallelism = workers
		p := NewProfiler(testConfig(), opts)
		got, err := p.CharacterizeAllContext(context.Background(), specs, SMT)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if baseline == nil {
			baseline = got
			continue
		}
		if !reflect.DeepEqual(baseline, got) {
			t.Errorf("workers=%d produced different characterizations:\nworkers=1: %+v\nworkers=%d: %+v", workers, baseline, workers, got)
		}
	}
}

// MeasurePairsContext must likewise be Parallelism-invariant, including the
// ordering of the returned slice.
func TestMeasurePairsParallelismInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("pair measurements run in short mode")
	}
	a, err := workload.ByName("456.hmmer")
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.ByName("470.lbm")
	if err != nil {
		t.Fatal(err)
	}
	specs := append(ctxTestSpecs(t), a, b)
	var baseline []PairMeasurement
	for _, workers := range []int{1, 4} {
		opts := FastOptions()
		opts.Parallelism = workers
		p := NewProfiler(testConfig(), opts)
		got, err := p.MeasurePairsContext(context.Background(), specs, specs, SMT)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if baseline == nil {
			baseline = got
			continue
		}
		if !reflect.DeepEqual(baseline, got) {
			t.Errorf("workers=%d produced different pair measurements", workers)
		}
	}
}

// A cancelled context aborts characterization promptly with ctx.Err(),
// even when the windows would take far longer than the deadline.
func TestCharacterizeContextCancels(t *testing.T) {
	opts := FastOptions()
	// Windows large enough that a full characterization takes seconds.
	opts.MeasureCycles = 50_000_000
	opts.WarmupCycles = 10_000_000
	p := NewProfiler(testConfig(), opts)
	specs := ctxTestSpecs(t)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.CharacterizeContext(ctx, specs[0], SMT)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; the engine is not honoring ctx mid-window", elapsed)
	}
}

// A pre-cancelled context runs nothing.
func TestCharacterizeAllPreCancelled(t *testing.T) {
	p := NewProfiler(testConfig(), FastOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.CharacterizeAllContext(ctx, ctxTestSpecs(t), SMT); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if st := p.CacheStats(); st.Misses != 0 {
		t.Fatalf("pre-cancelled batch simulated %d runs", st.Misses)
	}
}

// Progress must count every cell of the batch exactly once and end at
// done == total.
func TestCharacterizeAllProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization runs in short mode")
	}
	specs := ctxTestSpecs(t)
	opts := FastOptions()
	opts.Parallelism = 2
	var mu sync.Mutex
	var calls int
	var finalDone, finalTotal int
	opts.Progress = func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if done > finalDone {
			finalDone, finalTotal = done, total
		}
	}
	p := NewProfiler(testConfig(), opts)
	if _, err := p.CharacterizeAllContext(context.Background(), specs, SMT); err != nil {
		t.Fatal(err)
	}
	nr := len(p.RulerSet())
	want := len(specs) + nr + len(specs)*nr
	mu.Lock()
	defer mu.Unlock()
	if calls != want {
		t.Errorf("Progress fired %d times, want %d (one per cell)", calls, want)
	}
	if finalDone != want || finalTotal != want {
		t.Errorf("final progress %d/%d, want %d/%d", finalDone, finalTotal, want, want)
	}
}

// A single CharacterizeContext reports Progress like the batch paths: on
// the 8-Ruler standard set it ends at done == total == 17 (one job solo,
// 8 Ruler solos and 8 co-location cells).
func TestCharacterizeProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization runs in short mode")
	}
	opts := batchOptions()
	var mu sync.Mutex
	var finalDone, finalTotal int
	opts.Progress = func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if done > finalDone {
			finalDone, finalTotal = done, total
		}
	}
	p := NewProfiler(batchConfig(), opts)
	if n := len(p.RulerSet()); n != 8 {
		t.Fatalf("standard Ruler set has %d Rulers, want 8", n)
	}
	if _, err := p.CharacterizeContext(context.Background(), mustByName(t, "444.namd"), SMT); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if finalDone != 17 || finalTotal != 17 {
		t.Errorf("final progress %d/%d, want 17/17", finalDone, finalTotal)
	}
}
