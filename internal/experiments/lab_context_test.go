package experiments

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/profile"
	"repro/internal/workload"
)

// A pre-cancelled context never starts the characterization fan-out.
func TestCharacterizationsContextPreCancelled(t *testing.T) {
	l := NewLab(tinyLabScale())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	set := l.specSet(workload.SPECCPU2006())[:2]
	if _, err := l.CharacterizationsContext(ctx, IvyBridge, profile.SMT, set); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := l.charRuns.Load(); n != 0 {
		t.Fatalf("pre-cancelled call ran %d fan-outs", n)
	}
}

// A deadline far shorter than the sweep's wall-clock must abort the
// in-flight simulations, and a retry with a live context must succeed
// (the failed flight is not cached).
func TestCharacterizationsContextCancelsAndRetries(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization fan-out in short mode")
	}
	scale := tinyLabScale()
	scale.Options.WarmupCycles = 10_000_000
	scale.Options.MeasureCycles = 50_000_000
	l := NewLab(scale)
	set := l.specSet(workload.SPECCPU2006())[:1]

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := l.CharacterizationsContext(ctx, IvyBridge, profile.SMT, set)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}

	// The retry must not inherit the dead flight. Shrink the windows so it
	// finishes quickly; the memo key ignores options, but the failed entry
	// must have been removed.
	l2 := NewLab(tinyLabScale())
	if _, err := l2.CharacterizationsContext(context.Background(), IvyBridge, profile.SMT, l2.specSet(workload.SPECCPU2006())[:1]); err != nil {
		t.Fatalf("fresh characterization after a cancelled one: %v", err)
	}
	if got := l.charRuns.Load(); got != 1 {
		t.Fatalf("cancelled lab ran %d fan-outs, want 1", got)
	}
}
