package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isol"
	"repro/internal/rulers"
	"repro/internal/sim/cache"
	"repro/internal/sim/isa"
	"repro/internal/sim/pmu"
	"repro/internal/workload"
)

// The catalogue generator warms through Warm, not the Next fallback.
var _ Warmer = (*workload.Gen)(nil)

// referencePrewarm is Prewarm without its warm-up shortcuts: every
// footprint line is looked up through Access (the partition-masked access
// on an isolation chip) before it is filled, and every stream advances
// through Next on a zeroed Uop, Warmer or not. The fast path must match it
// bit for bit.
func referencePrewarm(c *Chip, n int) {
	jobs := c.footprintJobs()
	line := uint64(c.cfg.L3.LineBytes)
	for busy := true; busy; {
		busy = false
		for j := range jobs {
			jb := &jobs[j]
			for k := 0; k < 16 && jb.pos < jb.size; k++ {
				a := jb.x.addrBase | jb.pos
				jb.x.dtlb.Access(a)
				if !jb.co.l1d.Access(a, true) && !jb.co.l2.Access(a, true) {
					c.l3Access(jb.x, a)
				}
				jb.pos += line
			}
			if jb.pos < jb.size {
				busy = true
			}
		}
	}
	for done := 0; done < n; done += 64 {
		for _, co := range c.cores {
			for _, x := range co.ctxs {
				if !x.active {
					continue
				}
				for i := 0; i < 64; i++ {
					var u isa.Uop
					x.stream.Next(&u)
					switch u.Kind {
					case isa.Branch:
						co.pred.Lookup(u.BrTag*2654435761+x.brSalt, u.Taken)
					case isa.Load, isa.Store:
						addr := x.addrBase | u.Addr
						x.dtlb.Access(addr)
						if !co.l1d.Access(addr, true) && !co.l2.Access(addr, true) {
							c.l3Access(x, addr)
						}
					}
				}
			}
		}
	}
}

// prewarmState is everything a measurement can read after warm-up and a
// timed window: every context's counters, every cache's statistics and
// line count, and which lines of each context's address range each cache
// holds.
type prewarmState struct {
	Cycle    uint64
	Counters []pmu.Counters
	Caches   []cacheState
	MemReqs  uint64
}

type cacheState struct {
	Name                 string
	Hits, Misses, Evicts uint64
	Accesses             uint64
	Lines                int
	Resident             []uint64 // resident line addresses, ascending
}

func snapshotCache(ca *cache.Cache, ranges [][2]uint64, line uint64) cacheState {
	h, m, e := ca.Stats()
	st := cacheState{Name: ca.Name(), Hits: h, Misses: m, Evicts: e, Accesses: ca.Accesses(), Lines: ca.LineCount()}
	for _, r := range ranges {
		for a := r[0]; a < r[1]; a += line {
			if ca.Contains(a) {
				st.Resident = append(st.Resident, a)
			}
		}
	}
	return st
}

func snapshotPrewarm(c *Chip) prewarmState {
	st := prewarmState{Cycle: c.Cycle()}
	line := uint64(c.cfg.L3.LineBytes)
	span := uint64(c.cfg.L3.SizeBytes) // the footprint walk's reach
	var all [][2]uint64
	for i, co := range c.cores {
		var mine [][2]uint64
		for k, x := range co.ctxs {
			st.Counters = append(st.Counters, c.Counters(i, k))
			if x.active {
				mine = append(mine, [2]uint64{x.addrBase, x.addrBase + span})
			}
		}
		st.Caches = append(st.Caches, snapshotCache(co.l1d, mine, line), snapshotCache(co.l2, mine, line))
		all = append(all, mine...)
	}
	st.Caches = append(st.Caches, snapshotCache(c.l3, all, line))
	st.MemReqs, _, _ = c.memc.Stats()
	return st
}

// TestPrewarmMatchesReference holds Prewarm's fast path (direct fills of
// the cold footprint, Warm instead of Next) to the full lookup path: after
// Prewarm and a timed window, every counter, cache statistic and resident
// line is identical on three machines, with application and Ruler
// partners, several seeds and a way-partitioned L3.
func TestPrewarmMatchesReference(t *testing.T) {
	type placed struct {
		core, ctx int
		stream    func(cfg isa.Config, seed uint64) Stream
	}
	gen := func(name string) func(isa.Config, uint64) Stream {
		spec, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return func(_ isa.Config, seed uint64) Stream { return workload.NewGen(spec, seed) }
	}
	ruler := func(d rulers.Dimension) func(isa.Config, uint64) Stream {
		return func(cfg isa.Config, seed uint64) Stream { return rulers.For(cfg, d).NewStream(seed) }
	}
	pairs := []struct {
		name   string
		placed []placed
	}{
		{"gen+gen", []placed{{0, 0, gen("429.mcf")}, {0, 1, gen("web-search")}, {1, 0, gen("470.lbm")}}},
		{"gen+ruler", []placed{{0, 0, gen("403.gcc")}, {0, 1, ruler(rulers.DimL3)}, {1, 0, gen("444.namd")}, {1, 1, ruler(rulers.DimFPMul)}}},
	}
	isolated := isa.IvyBridge()
	v, a := isol.SplitWays(isolated.L3.Ways/2, isolated.L3.Ways)
	isolated.Isolation = isol.Policy{WayMasks: []uint64{v, a, v, a}}
	isolated.Name += " (CAT)"
	for _, cfg := range []isa.Config{isa.IvyBridge(), isa.SandyBridgeEN(), isa.Power8SMT4(), isolated} {
		cfg.Cores = 2
		for _, pair := range pairs {
			for _, seed := range []uint64{1, 42} {
				t.Run(fmt.Sprintf("%s/%s/seed%d", cfg.Name, pair.name, seed), func(t *testing.T) {
					build := func() *Chip {
						c := MustNew(cfg)
						for i, p := range pair.placed {
							c.Assign(p.core, p.ctx, p.stream(cfg, seed+uint64(i)))
						}
						return c
					}
					fast, ref := build(), build()
					fast.Prewarm(30_000)
					referencePrewarm(ref, 30_000)
					fast.Run(20_000)
					ref.Run(20_000)
					got, want := snapshotPrewarm(fast), snapshotPrewarm(ref)
					if !reflect.DeepEqual(got, want) {
						for i := range want.Counters {
							if got.Counters[i] != want.Counters[i] {
								t.Errorf("context %d counters:\n got %+v\nwant %+v", i, got.Counters[i], want.Counters[i])
							}
						}
						for i := range want.Caches {
							if !reflect.DeepEqual(got.Caches[i], want.Caches[i]) {
								g, w := got.Caches[i], want.Caches[i]
								t.Errorf("%s: hits/misses/evicts/lines %d/%d/%d/%d, want %d/%d/%d/%d; %d vs %d resident",
									w.Name, g.Hits, g.Misses, g.Evicts, g.Lines, w.Hits, w.Misses, w.Evicts, w.Lines, len(g.Resident), len(w.Resident))
							}
						}
						t.Fatalf("fast Prewarm diverged from the reference (cycle %d vs %d, mem %d vs %d)", got.Cycle, want.Cycle, got.MemReqs, want.MemReqs)
					}
					if want.Caches[len(want.Caches)-1].Lines == 0 {
						t.Fatal("reference installed nothing: the comparison is vacuous")
					}
				})
			}
		}
	}
}

// Prewarm's fills assume empty caches, so prewarming a warm chip is a
// programming error; Reset makes the chip cold again.
func TestPrewarmRequiresColdChip(t *testing.T) {
	cfg := testConfig()
	spec, _ := workload.ByName("403.gcc")
	chip := MustNew(cfg)
	chip.Assign(0, 0, workload.NewGen(spec, 1))
	chip.Prewarm(1000)
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Reset") {
				t.Errorf("Prewarm on a warm chip: recover() = %v, want a panic naming Reset", r)
			}
		}()
		chip.Prewarm(1000)
	}()
	chip.Reset()
	chip.Assign(0, 0, workload.NewGen(spec, 1))
	chip.Prewarm(1000) // cold again: must not panic
}

// nopChecker satisfies Checker without checking anything, so a test can
// switch on the engine's own checked-mode verification.
type nopChecker struct{}

func (nopChecker) OnCycle(*Chip) error { return nil }
func (nopChecker) OnReset(*Chip)       {}

// With a checker attached, a footprint fill of a line that is already
// resident breaks the cold-install precondition and is reported through
// CheckErr. Two contexts made to share an address space give the second
// walk exactly such lines.
func TestPrewarmReportsResidentFill(t *testing.T) {
	cfg := testConfig()
	spec, _ := workload.ByName("403.gcc")
	for _, checked := range []bool{false, true} {
		chip := MustNew(cfg)
		if checked {
			chip.SetChecker(nopChecker{}, 0)
		}
		chip.Assign(0, 0, workload.NewGen(spec, 1))
		chip.Assign(0, 1, workload.NewGen(spec, 2))
		chip.cores[0].ctxs[1].addrBase = chip.cores[0].ctxs[0].addrBase
		chip.Prewarm(0)
		err := chip.CheckErr()
		if !checked {
			if err != nil {
				t.Errorf("unchecked chip latched %v", err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "already resident") {
			t.Fatalf("shared address space: CheckErr() = %v, want a resident-fill violation", err)
		}
	}
}
