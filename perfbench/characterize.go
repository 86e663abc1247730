package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/isol"
	"repro/internal/obs/trace"
	"repro/internal/profile"
	"repro/internal/sim/engine"
	"repro/internal/sim/isa"
	"repro/internal/simcache"
	"repro/internal/surrogate"
	"repro/internal/workload"
	"repro/smite"
)

// charInputs is everything the characterize workload hands the program:
// which applications, which measurement windows, which base seed.
type charInputs struct {
	// Train spans compute-bound (namd, povray) and memory-bound (mcf, lbm)
	// applications; HeldOut are predicted but never trained on.
	Train   []string `json:"train"`
	HeldOut []string `json:"held_out"`
	// FitApps get surrogate curves, which takes the batched sweep path.
	FitApps  []string `json:"fit_apps"`
	BaseSeed uint64   `json:"base_seed"`
	// Windows are the measurement windows: FastOptions, or a tenth of
	// them for a smoke run.
	PrewarmUops   int    `json:"prewarm_uops"`
	WarmupCycles  uint64 `json:"warmup_cycles"`
	MeasureCycles uint64 `json:"measure_cycles"`
	// EngineCycles is the timed length of each direct engine run.
	EngineCycles uint64 `json:"engine_cycles"`
}

func characterizeInputs(seed uint64, small bool) charInputs {
	fast := smite.FastOptions()
	in := charInputs{
		Train:         []string{"444.namd", "429.mcf", "453.povray", "470.lbm"},
		HeldOut:       []string{"403.gcc", "433.milc", "456.hmmer", "482.sphinx3"},
		FitApps:       []string{"444.namd", "429.mcf"},
		BaseSeed:      mix64(seed, 0xC4A2),
		PrewarmUops:   fast.PrewarmUops,
		WarmupCycles:  fast.WarmupCycles,
		MeasureCycles: fast.MeasureCycles,
		EngineCycles:  400_000,
	}
	if small {
		in.PrewarmUops /= 10
		in.WarmupCycles /= 10
		in.MeasureCycles /= 10
		in.EngineCycles /= 20
	}
	return in
}

// mix64 derives a well-mixed 64-bit value from a seed and a salt
// (SplitMix64 finalizer).
func mix64(seed, salt uint64) uint64 {
	z := seed + salt*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func specsOf(names []string) ([]*smite.Spec, error) {
	out := make([]*smite.Spec, len(names))
	for i, n := range names {
		s, err := smite.WorkloadByName(n)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// charSpecs is the resolved application set.
type charSpecs struct {
	train, held, fit []*smite.Spec
}

func (in charInputs) resolve() (charSpecs, error) {
	var cs charSpecs
	var err error
	if cs.train, err = specsOf(in.Train); err != nil {
		return cs, err
	}
	if cs.held, err = specsOf(in.HeldOut); err != nil {
		return cs, err
	}
	cs.fit, err = specsOf(in.FitApps)
	return cs, err
}

// newSystem builds a fresh System with cold caches; cache is returned so
// the caller can read its hit and miss counts.
func (in charInputs) newSystem(workers int) (*smite.System, *simcache.Cache[profile.RunResult], error) {
	cache := simcache.New[profile.RunResult]()
	opts := smite.FastOptions()
	opts.PrewarmUops = in.PrewarmUops
	opts.WarmupCycles = in.WarmupCycles
	opts.MeasureCycles = in.MeasureCycles
	opts.BaseSeed = in.BaseSeed
	opts.Parallelism = workers
	opts.Cache = cache
	sys, err := smite.New(smite.IvyBridge.Config(), smite.WithOptions(opts))
	return sys, cache, err
}

// charResult is one pipeline pass's outputs.
type charResult struct {
	sys        *smite.System
	cache      *simcache.Cache[profile.RunResult]
	trainChars []smite.Characterization
	maePct     float64
}

// characterizeOnce is the timed pipeline: train the Eq. 3 model on the
// train half, characterize the held-out half, measure its pairs as ground
// truth, predict every pair, and fit surrogates. Each step is one stage
// span under a characterize.iteration span.
func characterizeOnce(ctx context.Context, r *runner, in charInputs, cs charSpecs) (charResult, error) {
	ctx, it := trace.Start(ctx, "characterize.iteration")
	defer it.End()
	sys, cache, err := in.newSystem(r.workers)
	if err != nil {
		return charResult{}, err
	}
	res := charResult{sys: sys, cache: cache}

	sctx, sp := trace.Start(ctx, "stage.train")
	m, trainChars, err := sys.TrainFromSetsContext(sctx, cs.train, smite.SMT)
	sp.End()
	if err != nil {
		return res, fmt.Errorf("training: %w", err)
	}
	res.trainChars = trainChars

	sctx, sp = trace.Start(ctx, "stage.characterize")
	heldChars, err := sys.CharacterizeAllContext(sctx, cs.held, smite.SMT)
	sp.End()
	if err != nil {
		return res, fmt.Errorf("characterizing held-out apps: %w", err)
	}

	sctx, sp = trace.Start(ctx, "stage.measure_pairs")
	pairs, err := sys.MeasurePairsContext(sctx, cs.held, cs.held, smite.SMT)
	sp.End()
	if err != nil {
		return res, fmt.Errorf("measuring held-out pairs: %w", err)
	}

	_, sp = trace.Start(ctx, "stage.predict")
	byApp := map[string]smite.Characterization{}
	for _, c := range append(append([]smite.Characterization(nil), trainChars...), heldChars...) {
		r.ops.check(charValid(c), "characterization of %s out of range: sen %v con %v ipc %v", c.App, c.Sen, c.Con, c.SoloIPC)
		byApp[c.App] = c
	}
	var absErr float64
	var n int
	for _, p := range pairs {
		a, b := byApp[p.A], byApp[p.B]
		predA, predB := m.PredictPair(a, b), m.PredictPair(b, a)
		ok := finite(predA) && finite(predB) && finite(p.DegA) && finite(p.DegB)
		if r.ops.check(ok, "pair %s|%s: prediction %v/%v, measured %v/%v", p.A, p.B, predA, predB, p.DegA, p.DegB) {
			absErr += math.Abs(predA-p.DegA) + math.Abs(predB-p.DegB)
			n += 2
		}
	}
	sp.End()
	if n == 0 {
		return res, fmt.Errorf("no held-out pair was predicted")
	}
	res.maePct = 100 * absErr / float64(n)

	sctx, sp = trace.Start(ctx, "stage.fit")
	set, err := sys.Fit(sctx, cs.fit, smite.SMT, smite.FitOptions{})
	sp.End()
	if err != nil {
		return res, fmt.Errorf("fitting surrogates: %w", err)
	}
	for _, s := range cs.fit {
		sm, err := set.Model(s.Name)
		r.ops.check(err == nil && surrogateValid(sm), "surrogate for %s missing or non-finite: %v", s.Name, err)
	}
	return res, nil
}

// charValid is the characterization output check: solo IPC positive, every
// sensitivity and contentiousness finite and within [-1, 2] (a degradation
// beyond those bounds is a broken measurement, not contention).
func charValid(c smite.Characterization) bool {
	if !finite(c.SoloIPC) || c.SoloIPC <= 0 {
		return false
	}
	for d := range c.Sen {
		for _, v := range []float64{c.Sen[d], c.Con[d]} {
			if !finite(v) || v < -1 || v > 2 {
				return false
			}
		}
	}
	return true
}

func surrogateValid(m *smite.SurrogateModel) bool {
	for d := range m.Sen {
		for _, c := range []surrogate.Curve{m.Sen[d], m.Con[d]} {
			for _, v := range append(c.Coef[:], c.MaxAbsErr, c.MeanAbsErr) {
				if !finite(v) {
					return false
				}
			}
		}
	}
	return true
}

func runCharacterize(ctx context.Context, r *runner) error {
	in := characterizeInputs(r.opts.seed, r.opts.small)
	setup, err := timeSetup(func() error {
		if _, err := in.resolve(); err != nil {
			return err
		}
		_, _, err := in.newSystem(r.workers)
		return err
	})
	if err != nil {
		return err
	}
	cs, err := in.resolve()
	if err != nil {
		return err
	}
	r.set("setup_s", setup)

	heap := startHeapPeak()
	var mae float64
	err = r.timePasses(func(pass int) error {
		res, err := characterizeOnce(ctx, r, in, cs)
		if err != nil {
			return err
		}
		if pass == 0 {
			mae = res.maePct
		}
		// Every pass uses the same seed and cold caches, so the error must
		// repeat bit for bit.
		r.ops.check(res.maePct == mae && finite(mae), "pass %d: MAE %v differs from first pass %v", pass+1, res.maePct, mae)
		return nil
	})
	r.set("heap_mb", heap.Stop())
	if err != nil {
		return err
	}
	r.note("pred_mae_pct", mae)
	return nil
}

// characterizeLayers is characterize's share of the traced run: after a
// warm-up pass, the pipeline once untraced and once traced, then the
// direct per-layer measurements.
func characterizeLayers(ctx context.Context, r *runner) error {
	in := characterizeInputs(r.opts.seed, r.opts.small)
	cs, err := in.resolve()
	if err != nil {
		return err
	}
	var untraced time.Duration
	for i := 0; i < 2; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := characterizeOnce(ctx, r, in, cs); err != nil {
			return err
		}
		untraced = time.Since(t0)
	}

	tctx := r.tracedCtx(ctx)
	runtime.GC()
	t0 := time.Now()
	res, err := characterizeOnce(tctx, r, in, cs)
	if err != nil {
		return err
	}
	traced := time.Since(t0)
	r.set("trace.overhead_s.characterize", (traced - untraced).Seconds())
	r.set("model.pred_mae_pct", res.maePct)

	spans := r.tracer.Spans()
	share, ok := stageShare(spans, "characterize.iteration")
	r.set("trace.stage_sum_share.characterize", share)
	r.set("trace.stage_sum_ok.characterize", boolMetric(ok))
	stage := map[string]float64{}
	var simTotal time.Duration
	var sims int
	for _, s := range spans {
		stage[s.Name] += (s.End - s.Start).Seconds()
		if s.Name == "profile.simulate" {
			simTotal += s.End - s.Start
			sims++
		}
	}
	r.set("profile.characterize_s", stage["stage.characterize"])
	r.set("profile.measure_pairs_s", stage["stage.measure_pairs"])
	r.set("surrogate.fit_s", stage["stage.fit"])
	st := res.cache.Stats()
	r.set("profile.sim_runs", float64(st.Misses))
	r.set("simcache.hit_ratio.profile", float64(st.Hits)/float64(st.Hits+st.Misses))
	if sims == 0 {
		return fmt.Errorf("the traced pass recorded no profile.simulate span")
	}
	r.set("profile.ms_per_sim_run", simTotal.Seconds()*1e3/float64(sims))
	r.note("characterize.untraced_wall_s", untraced.Seconds())
	r.note("characterize.traced_wall_s", traced.Seconds())

	// model: the Eq. 3 fit alone, on the train half's characterizations
	// and pairs (cache hits: the traced pass measured them).
	lctx, sp := trace.Start(tctx, "layer.model.train")
	pairs, err := res.sys.MeasurePairsContext(lctx, cs.train, cs.train, smite.SMT)
	if err != nil {
		sp.End()
		return err
	}
	var fits []time.Duration
	for i := 0; i < 50; i++ {
		t := time.Now()
		if _, err := smite.Train(res.trainChars, pairs); err != nil {
			sp.End()
			return fmt.Errorf("training: %w", err)
		}
		fits = append(fits, time.Since(t))
	}
	sp.End()
	r.ops.add(len(fits))
	r.set("model.train_ms", median(seconds(fits))*1e3)

	// sched: CharacterizeAll on a fresh System at one worker, then at
	// nproc workers.
	var walls [2]time.Duration
	for i, workers := range []int{1, r.workers} {
		sys, _, err := in.newSystem(workers)
		if err != nil {
			return err
		}
		lctx, sp := trace.Start(tctx, "layer.sched.characterize_all", trace.Int("workers", workers))
		t := time.Now()
		chars, err := sys.CharacterizeAllContext(lctx, cs.fit, smite.SMT)
		walls[i] = time.Since(t)
		sp.End()
		if err != nil {
			return err
		}
		for _, c := range chars {
			r.ops.check(charValid(c), "characterization of %s out of range", c.App)
		}
	}
	r.set("sched.speedup", walls[0].Seconds()/walls[1].Seconds())

	// sim/engine: direct Chip.Run on the workload's own applications.
	var skipped, cycles uint64
	for _, c := range []struct {
		metric, a, b string
		isolated     bool
	}{
		{"engine.mcycles_per_s.mem-smt", "429.mcf", "470.lbm", false},
		{"engine.mcycles_per_s.compute-smt", "444.namd", "453.povray", false},
		{"engine.mcycles_per_s.isolated", "429.mcf", "470.lbm", true},
	} {
		_, sp := trace.Start(tctx, "layer.engine.run", trace.String("pair", c.a+"+"+c.b), trace.Bool("isolated", c.isolated))
		rate, sk, cy, err := engineRate(in, c.a, c.b, c.isolated)
		sp.End()
		if err != nil {
			return err
		}
		r.ops.check(cy > 0 && rate > 0, "engine run %s+%s made no progress", c.a, c.b)
		r.set(c.metric, rate)
		skipped += sk
		cycles += cy
	}
	r.set("engine.idle_skip_share", float64(skipped)/float64(cycles))
	return nil
}

// engineRate runs one single-core SMT pair directly on the engine and
// returns simulated Mcycles per host second plus the idle-skipped and
// total cycles of the timed window.
func engineRate(in charInputs, a, b string, isolated bool) (mcps float64, skipped, cycles uint64, err error) {
	cfg := isa.IvyBridge()
	cfg.Cores = 1
	if isolated {
		v, g := isol.SplitWays(cfg.L3.Ways/2, cfg.L3.Ways)
		cfg.Isolation = isol.Policy{WayMasks: []uint64{v, g}}
	}
	chip, err := engine.New(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	for ctxID, name := range []string{a, b} {
		spec, err := workload.ByName(name)
		if err != nil {
			return 0, 0, 0, err
		}
		chip.Assign(0, ctxID, workload.NewGen(spec, mix64(in.BaseSeed, uint64(ctxID+1))))
	}
	chip.Prewarm(in.PrewarmUops)
	chip.Run(in.WarmupCycles)
	c0, s0 := chip.Cycle(), chip.IdleSkipped()
	t := time.Now()
	chip.Run(in.EngineCycles)
	el := time.Since(t)
	if chip.Counters(0, 0).Instructions == 0 {
		return 0, 0, 0, fmt.Errorf("engine %s+%s retired nothing", a, b)
	}
	cycles, skipped = chip.Cycle()-c0, chip.IdleSkipped()-s0
	return float64(cycles) / 1e6 / el.Seconds(), skipped, cycles, nil
}
