package profile

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/rulers"
	"repro/internal/sim/engine"
	"repro/internal/sim/isa"
	"repro/internal/simcache"
	"repro/internal/workload"
)

func mustSpec(t *testing.T, name string) *workload.Spec {
	t.Helper()
	s, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func cacheTestOptions() Options {
	return Options{
		PrewarmUops:   20_000,
		WarmupCycles:  4_000,
		MeasureCycles: 8_000,
		BaseSeed:      1,
	}
}

func sameResult(a, b RunResult) bool {
	if a.AppIPC != b.AppIPC || a.PartnerIPC != b.PartnerIPC ||
		len(a.AppCounters) != len(b.AppCounters) || len(a.PartnerCounters) != len(b.PartnerCounters) {
		return false
	}
	for i := range a.AppCounters {
		if a.AppCounters[i] != b.AppCounters[i] {
			return false
		}
	}
	for i := range a.PartnerCounters {
		if a.PartnerCounters[i] != b.PartnerCounters[i] {
			return false
		}
	}
	return true
}

// TestCachedBitIdentical verifies a cache hit reproduces the uncached run
// exactly, counter for counter, for both solo and co-located runs.
func TestCachedBitIdentical(t *testing.T) {
	cfg := isa.IvyBridge()
	cfg.Cores = 1
	app := App(mustSpec(t, "429.mcf"))
	partner := App(mustSpec(t, "470.lbm"))

	opts := cacheTestOptions()
	uncachedSolo, err := SoloContext(context.Background(), cfg, app, opts)
	if err != nil {
		t.Fatal(err)
	}
	uncachedCo, err := ColocateContext(context.Background(), cfg, app, partner, SMT, opts)
	if err != nil {
		t.Fatal(err)
	}

	opts.Cache = simcache.New[RunResult]()
	firstSolo, err := SoloContext(context.Background(), cfg, app, opts) // miss: simulates
	if err != nil {
		t.Fatal(err)
	}
	cachedSolo, err := SoloContext(context.Background(), cfg, app, opts) // hit
	if err != nil {
		t.Fatal(err)
	}
	firstCo, err := ColocateContext(context.Background(), cfg, app, partner, SMT, opts)
	if err != nil {
		t.Fatal(err)
	}
	cachedCo, err := ColocateContext(context.Background(), cfg, app, partner, SMT, opts)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name     string
		got, ref RunResult
	}{
		{"solo miss vs uncached", firstSolo, uncachedSolo},
		{"solo hit vs uncached", cachedSolo, uncachedSolo},
		{"co miss vs uncached", firstCo, uncachedCo},
		{"co hit vs uncached", cachedCo, uncachedCo},
	} {
		if !sameResult(c.got, c.ref) {
			t.Errorf("%s: results differ: %+v vs %+v", c.name, c.got, c.ref)
		}
	}
	if st := opts.Cache.Stats(); st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 hits / 2 misses", st)
	}
}

// TestCacheHitIsolation verifies a caller mutating a cache-hit result does
// not corrupt the stored entry.
func TestCacheHitIsolation(t *testing.T) {
	cfg := isa.IvyBridge()
	cfg.Cores = 1
	opts := cacheTestOptions()
	opts.Cache = simcache.New[RunResult]()
	app := App(mustSpec(t, "429.mcf"))

	first, err := SoloContext(context.Background(), cfg, app, opts)
	if err != nil {
		t.Fatal(err)
	}
	first.AppCounters[0].Instructions = math.MaxUint64 // vandalise our copy
	second, err := SoloContext(context.Background(), cfg, app, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.AppCounters[0].Instructions == math.MaxUint64 {
		t.Fatal("cache returned an aliased slice: caller mutation reached the stored result")
	}
}

// TestCacheKeySensitivity verifies that runs which must differ — different
// Ruler intensity, placement, co-runner, options, or machine — never share
// a cache entry.
func TestCacheKeySensitivity(t *testing.T) {
	cfg := isa.IvyBridge()
	cfg.Cores = 2
	l2 := rulers.For(cfg, rulers.DimL2)
	l1d := rulers.For(cfg, rulers.DimL1)

	app := App(mustSpec(t, "429.mcf"))
	opts := cacheTestOptions()

	base, ok := cacheKey(cfg, app, Rulers(l2, 1), SMT, opts)
	if !ok {
		t.Fatal("app+ruler jobs should be fingerprintable")
	}

	altCfg := cfg
	altCfg.Cores = 1
	altOpts := opts
	altOpts.MeasureCycles++
	altSeed := opts
	altSeed.BaseSeed++
	variants := []struct {
		name string
		key  func() (simcache.Key, bool)
	}{
		{"intensity", func() (simcache.Key, bool) {
			return cacheKey(cfg, app, Rulers(l2.WithIntensity(l2.Intensity/2), 1), SMT, opts)
		}},
		{"placement", func() (simcache.Key, bool) {
			return cacheKey(cfg, app, Rulers(l2, 1), CMP, opts)
		}},
		{"ruler dimension", func() (simcache.Key, bool) {
			return cacheKey(cfg, app, Rulers(l1d, 1), SMT, opts)
		}},
		{"ruler instances", func() (simcache.Key, bool) {
			return cacheKey(cfg, app, Rulers(l2, 2), SMT, opts)
		}},
		{"partner app", func() (simcache.Key, bool) {
			return cacheKey(cfg, app, App(mustSpec(t, "470.lbm")), SMT, opts)
		}},
		{"solo vs co-located", func() (simcache.Key, bool) {
			return cacheKey(cfg, app, nil, SMT, opts)
		}},
		{"options window", func() (simcache.Key, bool) {
			return cacheKey(cfg, app, Rulers(l2, 1), SMT, altOpts)
		}},
		{"base seed", func() (simcache.Key, bool) {
			return cacheKey(cfg, app, Rulers(l2, 1), SMT, altSeed)
		}},
		{"machine config", func() (simcache.Key, bool) {
			return cacheKey(altCfg, app, Rulers(l2, 1), SMT, opts)
		}},
	}
	for _, v := range variants {
		k, ok := v.key()
		if !ok {
			t.Errorf("%s: not fingerprintable", v.name)
			continue
		}
		if k == base {
			t.Errorf("%s: collided with base key", v.name)
		}
	}

	// Cache pointer and Parallelism must NOT affect the key: they do not
	// influence results, and keying them would shatter sharing.
	shared := opts
	shared.Cache = simcache.New[RunResult]()
	shared.Parallelism = 7
	if k, _ := cacheKey(cfg, app, Rulers(l2, 1), SMT, shared); k != base {
		t.Error("Cache/Parallelism leaked into the key")
	}
}

// TestStreamJobBypassesCache verifies closure-backed jobs never get keyed
// (their behavior is invisible to the fingerprint).
func TestStreamJobBypassesCache(t *testing.T) {
	cfg := isa.IvyBridge()
	sj := StreamJob("custom", 1, func(instance int, seed uint64) engine.Stream { return nil })
	if _, ok := cacheKey(cfg, sj, nil, SMT, cacheTestOptions()); ok {
		t.Fatal("streamJob produced a cache key; closures must bypass the cache")
	}
	if _, ok := cacheKey(cfg, App(mustSpec(t, "429.mcf")), sj, SMT, cacheTestOptions()); ok {
		t.Fatal("streamJob partner produced a cache key")
	}
}

// TestCacheConcurrent drives one shared cache from a pool of goroutines
// re-requesting a small set of runs; under -race this validates the
// single-flight path against the worker pools above it.
func TestCacheConcurrent(t *testing.T) {
	cfg := isa.IvyBridge()
	cfg.Cores = 1
	opts := cacheTestOptions()
	opts.PrewarmUops = 5_000
	opts.WarmupCycles = 1_000
	opts.MeasureCycles = 2_000
	opts.Cache = simcache.New[RunResult]()

	apps := []Job{
		App(mustSpec(t, "429.mcf")),
		App(mustSpec(t, "470.lbm")),
		App(mustSpec(t, "453.povray")),
	}
	want := make([]RunResult, len(apps))
	for i, a := range apps {
		r, err := SoloContext(context.Background(), cfg, a, opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	const goroutines = 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				idx := (g + i) % len(apps)
				r, err := SoloContext(context.Background(), cfg, apps[idx], opts)
				if err != nil {
					t.Errorf("solo %s: %v", apps[idx].Name(), err)
					return
				}
				if !sameResult(r, want[idx]) {
					t.Errorf("%s: concurrent cached result diverged", apps[idx].Name())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := opts.Cache.Stats(); st.Misses != uint64(len(apps)) {
		t.Errorf("misses = %d, want %d (each app simulated once)", st.Misses, len(apps))
	}
}

// TestSoloRunKeyedByContent: two specs that share a name are two jobs. A
// profiler that has already measured the first must hand the second its
// own solo run, and characterize it exactly as a fresh profiler would —
// a memo keyed by name alone returns the first spec's baseline instead.
func TestSoloRunKeyedByContent(t *testing.T) {
	ctx := context.Background()
	cfg, opts := testConfig(), cacheTestOptions()
	mcf := mustSpec(t, "429.mcf")
	impostor := *mustSpec(t, "444.namd")
	impostor.Name = mcf.Name

	warm := NewProfiler(cfg, opts)
	mcfSolo, err := warm.SoloRunContext(ctx, App(mcf))
	if err != nil {
		t.Fatal(err)
	}
	got, err := warm.SoloRunContext(ctx, App(&impostor))
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewProfiler(cfg, opts).SoloRunContext(ctx, App(&impostor))
	if err != nil {
		t.Fatal(err)
	}
	if got.AppIPC != want.AppIPC || got.AppIPC == mcfSolo.AppIPC {
		t.Errorf("renamed namd solo IPC on a warm profiler = %g, fresh %g (mcf's: %g)", got.AppIPC, want.AppIPC, mcfSolo.AppIPC)
	}

	warmCh, err := warm.CharacterizeContext(ctx, &impostor, SMT)
	if err != nil {
		t.Fatal(err)
	}
	freshCh, err := NewProfiler(cfg, opts).CharacterizeContext(ctx, &impostor, SMT)
	if err != nil {
		t.Fatal(err)
	}
	if warmCh != freshCh {
		t.Errorf("warm characterization diverged from a fresh profiler's:\nwarm:  %+v\nfresh: %+v", warmCh, freshCh)
	}
}

// TestSweepIntensitiesThatRoundAlike: Rulers at 0.21 and 0.214 share the
// printed name "<dim>@0.21", but each column's Con must divide by its own
// Ruler's solo IPC. The 0.214 column of a {0.21, 0.214} sweep therefore
// equals a sweep of {0.214} alone, at any Parallelism.
func TestSweepIntensitiesThatRoundAlike(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in short mode")
	}
	ctx := context.Background()
	jobs := []Job{App(mustSpec(t, "444.namd"))}
	for _, workers := range []int{1, 4} {
		opts := cacheTestOptions()
		opts.Parallelism = workers
		both, err := NewProfiler(testConfig(), opts).CharacterizeSweepContext(ctx, jobs, SMT, []float64{0.21, 0.214})
		if err != nil {
			t.Fatal(err)
		}
		alone, err := NewProfiler(testConfig(), opts).CharacterizeSweepContext(ctx, jobs, SMT, []float64{0.214})
		if err != nil {
			t.Fatal(err)
		}
		for d := range both[0].Samples {
			// Grids are ascending with 1.0 appended: 0.214 sits at index 1
			// of {0.21, 0.214, 1} and index 0 of {0.214, 1}.
			if got, want := both[0].Samples[d][1], alone[0].Samples[d][0]; got != want {
				t.Errorf("parallelism %d, dimension %d: 0.214 column %+v, alone %+v", workers, d, got, want)
			}
		}
	}
}
