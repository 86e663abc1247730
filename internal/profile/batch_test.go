package profile

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/rulers"
	"repro/internal/sched"
	"repro/internal/sim/isa"
	"repro/internal/workload"
)

func batchConfig() isa.Config {
	cfg := isa.IvyBridge()
	cfg.Cores = 2
	return cfg
}

func batchOptions() Options {
	return Options{
		PrewarmUops:   20_000,
		WarmupCycles:  4_000,
		MeasureCycles: 10_000,
		BaseSeed:      1,
	}
}

// TestBatchedMatchesFreshChips is the batched-path contract: a
// characterization computed through the pooled one-chip-per-worker
// scheduler must be bit-identical to one computed with a fresh engine
// instance per cell. The fresh side is assembled by hand from the package
// SoloContext/ColocateContext functions, which never see a scheduler slot
// and therefore always allocate.
func TestBatchedMatchesFreshChips(t *testing.T) {
	cfg := batchConfig()
	opts := batchOptions()
	specs := []*workload.Spec{
		mustByName(t, "429.mcf"),
		mustByName(t, "444.namd"),
	}

	for _, workers := range []int{1, 3} {
		o := opts
		o.Parallelism = workers
		batched, err := NewProfiler(cfg, o).CharacterizeAllContext(context.Background(), specs, SMT)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}

		var fresh []Characterization
		for _, spec := range specs {
			job := App(spec)
			solo, err := SoloContext(context.Background(), cfg, job, opts)
			if err != nil {
				t.Fatal(err)
			}
			ch := Characterization{
				App:       job.Name(),
				Placement: SMT,
				SoloIPC:   solo.AppIPC,
				SoloPMU:   solo.AppCounters[0],
			}
			for _, r := range rulers.StandardSet(cfg) {
				rulerBase, err := SoloContext(context.Background(), cfg, Rulers(r, 1), opts)
				if err != nil {
					t.Fatal(err)
				}
				co, err := ColocateContext(context.Background(), cfg, job, Rulers(r, job.Instances()), SMT, opts)
				if err != nil {
					t.Fatal(err)
				}
				ch.Sen[r.Dim] = Degradation(solo.AppIPC, co.AppIPC)
				ch.Con[r.Dim] = Degradation(rulerBase.AppIPC, co.PartnerIPC)
			}
			fresh = append(fresh, ch)
		}

		if !reflect.DeepEqual(batched, fresh) {
			t.Errorf("workers=%d: batched characterization diverged from fresh-chip-per-cell characterization\nbatched: %+v\n  fresh: %+v",
				workers, batched, fresh)
		}
	}
}

// TestChipForReusesSlotChip pins the pooling mechanics: under a scheduler
// Map the same chip instance serves consecutive cells of one worker, while
// direct calls (no slot) always allocate.
func TestChipForReusesSlotChip(t *testing.T) {
	cfg := batchConfig()
	err := sched.Map(context.Background(), 3, 1, func(ctx context.Context, i int) error {
		a, err := chipFor(ctx, cfg)
		if err != nil {
			return err
		}
		b, err := chipFor(ctx, cfg)
		if err != nil {
			return err
		}
		if a != b {
			t.Errorf("task %d: worker slot handed out two distinct chips", i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	a, err := chipFor(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := chipFor(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("chipFor outside a scheduler Map reused a chip")
	}
}

// TestChipForRespectsForeignSlot pins that a slot already claimed by some
// other per-worker cache is left untouched and the caller still gets a
// working chip.
func TestChipForRespectsForeignSlot(t *testing.T) {
	cfg := batchConfig()
	err := sched.Map(context.Background(), 1, 1, func(ctx context.Context, i int) error {
		slot := sched.SlotFrom(ctx)
		foreign := "someone else's state"
		slot.Value = foreign
		if _, err := chipFor(ctx, cfg); err != nil {
			return err
		}
		if slot.Value != foreign {
			t.Error("chipFor overwrote a foreign slot value")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCharacterizeSweep exercises the grid API: the intensity-1.0 column
// must be bit-identical to CharacterizeAllContext, every dimension must carry one
// sample per grid point in ascending order, and 1.0 must be appended when
// missing.
func TestCharacterizeSweep(t *testing.T) {
	cfg := batchConfig()
	opts := batchOptions()
	opts.Parallelism = 2
	specs := []*workload.Spec{mustByName(t, "429.mcf")}

	p := NewProfiler(cfg, opts)
	sweeps, err := p.CharacterizeSweepContext(context.Background(), []Job{App(specs[0])}, SMT, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) != 1 {
		t.Fatalf("got %d sweep results, want 1", len(sweeps))
	}
	sw := sweeps[0]
	for d := range sw.Samples {
		if len(sw.Samples[d]) != 2 {
			t.Fatalf("dimension %d: %d samples, want 2 (0.5 and the appended 1.0)", d, len(sw.Samples[d]))
		}
		if sw.Samples[d][0].Intensity != 0.5 || sw.Samples[d][1].Intensity != 1.0 {
			t.Errorf("dimension %d: grid %v, want ascending [0.5 1]", d, sw.Samples[d])
		}
		if sw.Samples[d][1].Sen != sw.Characterization.Sen[d] || sw.Samples[d][1].Con != sw.Characterization.Con[d] {
			t.Errorf("dimension %d: 1.0 column disagrees with the embedded characterization", d)
		}
	}

	chars, err := NewProfiler(cfg, opts).CharacterizeAllContext(context.Background(), specs, SMT)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sw.Characterization, chars[0]) {
		t.Errorf("sweep's intensity-1.0 characterization diverged from CharacterizeAll:\nsweep: %+v\n  all: %+v",
			sw.Characterization, chars[0])
	}
}

func mustByName(t *testing.T, name string) *workload.Spec {
	t.Helper()
	s, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
