package smite

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
)

// The Options fields set through WithOptions — the checker, the worker
// count and the progress callback — reach the profiler, and the callback
// fires during a batch characterization.
func TestNewFunctionalOptions(t *testing.T) {
	var mu sync.Mutex
	fired := 0
	opts := FastOptions()
	opts.Check = true
	opts.CheckInterval = 2048
	opts.Parallelism = 3
	opts.Progress = func(done, total int) { mu.Lock(); fired++; mu.Unlock() }
	sys, err := New(IvyBridge.Config(), WithOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Machine().Cores != IvyBridge.Config().Cores {
		t.Fatalf("machine config not applied")
	}
	got := sys.prof.Options()
	if !got.Check || got.CheckInterval != 2048 || got.Parallelism != 3 || got.Progress == nil {
		t.Fatalf("profiler options = Check %v, CheckInterval %d, Parallelism %d, Progress set %v; want true, 2048, 3, true",
			got.Check, got.CheckInterval, got.Parallelism, got.Progress != nil)
	}
	spec, err := WorkloadByName("444.namd")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CharacterizeAllContext(context.Background(), []*Spec{spec}, SMT); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if fired == 0 {
		t.Fatal("Progress callback never fired during CharacterizeAllContext")
	}
}

// A stock Machine and its expanded Config build identical systems
// through New — the equivalence the removed NewSystem/NewSystemConfig
// shims used to paper over (MIGRATION.md).
func TestNewMachineConfigEquivalence(t *testing.T) {
	a, err := New(IvyBridge.Config(), WithOptions(FastOptions()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(IvyBridge.Config(), WithOptions(FastOptions()))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := WorkloadByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	ia, err := a.SoloIPCContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := b.SoloIPCContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if ia != ib {
		t.Fatalf("identical constructions disagree on solo IPC: %v %v", ia, ib)
	}
}

// An invalid configuration is rejected by New.
func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := IvyBridge.Config()
	cfg.Cores = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted a zero-core machine")
	}
}

// Parallel CharacterizeAllContext must be bit-identical to sequential through the
// public API (the tentpole acceptance criterion).
func TestSystemCharacterizeAllParallelismInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization in short mode")
	}
	var specs []*Spec
	for _, n := range []string{"444.namd", "429.mcf"} {
		s, err := WorkloadByName(n)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	var baseline []Characterization
	for _, workers := range []int{1, 8} {
		opts := FastOptions()
		opts.Parallelism = workers
		sys, err := New(IvyBridge.Config(), WithOptions(opts))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sys.CharacterizeAllContext(context.Background(), specs, SMT)
		if err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline = got
		} else if !reflect.DeepEqual(baseline, got) {
			t.Fatalf("Parallelism=%d changed CharacterizeAllContext results", workers)
		}
	}
}

// Context cancellation propagates through the public API.
func TestSystemContextCancellation(t *testing.T) {
	sys, err := New(IvyBridge.Config(), WithOptions(FastOptions()))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := WorkloadByName("470.lbm")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.CharacterizeContext(ctx, spec, SMT); !errors.Is(err, context.Canceled) {
		t.Fatalf("CharacterizeContext: got %v, want context.Canceled", err)
	}
	if _, err := sys.SoloIPCContext(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("SoloIPCContext: got %v, want context.Canceled", err)
	}
	if _, _, err := sys.TrainFromSetsContext(ctx, []*Spec{spec}, SMT); !errors.Is(err, context.Canceled) {
		t.Fatalf("TrainFromSetsContext: got %v, want context.Canceled", err)
	}
}
