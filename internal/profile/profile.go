// Package profile implements SMiTe's characterization methodology
// (Section III-B): placing applications and Rulers on the simulated chip,
// measuring solo and co-located IPCs, and extracting per-dimension
// sensitivity and contentiousness vectors (Equations 1 and 2):
//
//	Sen_i^A = (IPC_solo^A − IPC_co/Ruler_i^A) / IPC_solo^A
//	Con_i^A = (IPC_solo^Ruler_i − IPC_co/A^Ruler_i) / IPC_solo^Ruler_i
//
// The same machinery measures ground-truth degradations for arbitrary
// application pairs (Equation 7), in both SMT placement (sibling hardware
// contexts of one core) and CMP placement (separate cores sharing only the
// L3 and memory bandwidth), including the half-loaded multithreaded
// CloudSuite arrangements of Section IV-B2.
package profile

import (
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"sync/atomic"

	"repro/internal/obs/trace"
	"repro/internal/rulers"
	"repro/internal/sched"
	"repro/internal/sim/check"
	"repro/internal/sim/engine"
	"repro/internal/sim/isa"
	"repro/internal/sim/pmu"
	"repro/internal/simcache"
	"repro/internal/workload"
)

// Placement selects how co-runners share the chip.
type Placement int

const (
	// SMT places co-runners on sibling hardware contexts of the same
	// core(s): all on-core resources are shared.
	SMT Placement = iota
	// CMP places co-runners on distinct cores: only the L3 and memory
	// bandwidth are shared.
	CMP
)

// String names the placement.
func (p Placement) String() string {
	if p == SMT {
		return "SMT"
	}
	return "CMP"
}

// Options control measurement windows and reproducibility.
type Options struct {
	// PrewarmUops functionally executes this many micro-ops per context to
	// install data footprints before timing starts.
	PrewarmUops int
	// WarmupCycles run timed but unmeasured (pipeline and small-structure
	// warm-up); MeasureCycles are the measurement window.
	WarmupCycles  uint64
	MeasureCycles uint64
	// BaseSeed decorrelates repeated studies; everything derived from it
	// is deterministic.
	BaseSeed uint64
	// Parallelism bounds the worker pool (internal/sched) that fans
	// characterization and pair-measurement cells across CPUs
	// (0 = GOMAXPROCS). Results are bit-identical at any value — the
	// scheduler's reduction is index-ordered — so this is purely a
	// throughput/footprint knob.
	Parallelism int
	// Progress, when non-nil, receives batch progress from every
	// characterization entry point and from MeasurePairsContext: done
	// counts completed simulation cells (pairs, for MeasurePairsContext)
	// of the current batch, total the batch's cell count. It may be invoked
	// concurrently from worker goroutines; done is monotone per batch but
	// calls can arrive out of order. Excluded from cache keys — it never
	// influences results.
	Progress func(done, total int)
	// Check attaches the runtime invariant checker (internal/sim/check) to
	// every chip this Options drives: run results are validated against the
	// engine's conservation laws every CheckInterval cycles, and a
	// violation fails the run with a structured error. Costs a few percent
	// of simulation time; meant for tests and verification sweeps.
	Check bool
	// CheckInterval is the cycle distance between invariant checks
	// (0 = engine default, 1024).
	CheckInterval uint64
	// Cache, when non-nil, memoises run results across identical
	// (config, job, partner, placement, options) tuples. Only jobs that
	// implement Fingerprinter participate; others always simulate. The
	// cache may be shared across profilers and goroutines.
	Cache *simcache.Cache[RunResult]
	// Sampler, when non-nil, is attached to every chip this Options drives
	// (engine.SetSampler): the timeline recorder observes PMU deltas at
	// each RunContext slice boundary. Sampling is read-only, so results are
	// bit-identical with or without it, but a sampled run always simulates
	// — the cache is bypassed, since a cache hit would produce no samples.
	// Excluded from cache keys for the same reason Progress is. Note that
	// a shared Sampler receives samples from every run under this Options;
	// attach it to a dedicated Options value to isolate one co-location.
	Sampler engine.Sampler
}

// cacheKey canonically identifies a run for memoisation, or ok=false when
// either job cannot be fingerprinted (e.g. closure-backed StreamJobs).
// Cache, Parallelism and Progress are excluded: none influences the
// result (and a func field would print as a run-variable pointer).
// Check/CheckInterval stay in the key so a checked run is never silently
// satisfied by an unchecked one.
func cacheKey(cfg isa.Config, job, partner Job, placement Placement, opts Options) (simcache.Key, bool) {
	jf, ok := fingerprint(job)
	if !ok {
		return simcache.Key{}, false
	}
	pf := "<solo>"
	if partner != nil {
		if pf, ok = fingerprint(partner); !ok {
			return simcache.Key{}, false
		}
	}
	opts.Cache = nil
	opts.Parallelism = 0
	opts.Progress = nil
	opts.Sampler = nil
	return simcache.KeyOf("profile.run/v1", cfg, placement, jf, pf, opts), true
}

// Fingerprinter is implemented by Jobs whose behavior is fully determined
// by printable value state; only such jobs are eligible for simcache
// memoisation. The string must change whenever NewStream's behavior would.
type Fingerprinter interface {
	Fingerprint() string
}

func fingerprint(j Job) (string, bool) {
	f, ok := j.(Fingerprinter)
	if !ok {
		return "", false
	}
	return f.Fingerprint(), true
}

// DefaultOptions returns the measurement windows used by the full-scale
// experiments.
func DefaultOptions() Options {
	return Options{
		PrewarmUops:   400_000,
		WarmupCycles:  50_000,
		MeasureCycles: 100_000,
		BaseSeed:      1,
	}
}

// FastOptions returns reduced windows for tests and benchmarks.
func FastOptions() Options {
	return Options{
		PrewarmUops:   60_000,
		WarmupCycles:  12_000,
		MeasureCycles: 25_000,
		BaseSeed:      1,
	}
}

func (o Options) workers() int { return sched.Workers(o.Parallelism) }

// progress fires the Progress callback when one is set.
func (o Options) progress(done, total int) {
	if o.Progress != nil {
		o.Progress(done, total)
	}
}

// Job is a schedulable entity: an application with one stream per thread,
// or a Ruler with one stream per instance.
type Job interface {
	// Name labels the job in results.
	Name() string
	// Instances is the number of hardware contexts the job occupies.
	Instances() int
	// NewStream builds the deterministic stream for one instance.
	NewStream(instance int, seed uint64) engine.Stream
}

type appJob struct {
	spec    *workload.Spec
	threads int
}

// App wraps a workload spec as a Job using its natural thread count.
func App(spec *workload.Spec) Job { return appJob{spec: spec, threads: spec.ThreadCount()} }

// AppThreads wraps a workload spec as a Job with an explicit thread count
// (the paper halves CloudSuite thread counts for the CMP experiments).
func AppThreads(spec *workload.Spec, threads int) Job {
	if threads < 1 {
		threads = 1
	}
	return appJob{spec: spec, threads: threads}
}

func (j appJob) Name() string   { return j.spec.Name }
func (j appJob) Instances() int { return j.threads }

// Fingerprint covers the full spec (streams are pure functions of spec and
// seed; seeds derive from the name, which the spec contains).
func (j appJob) Fingerprint() string { return fmt.Sprintf("app|%#v|t=%d", *j.spec, j.threads) }
func (j appJob) NewStream(instance int, seed uint64) engine.Stream {
	return workload.NewGen(j.spec, mix(seed, uint64(instance)+0x51))
}

type rulerJob struct {
	r         *rulers.Ruler
	instances int
}

// Rulers wraps a Ruler as a Job with the given instance count (one
// instance per occupied context).
func Rulers(r *rulers.Ruler, instances int) Job {
	if instances < 1 {
		instances = 1
	}
	return rulerJob{r: r, instances: instances}
}

func (j rulerJob) Name() string   { return j.r.Name }
func (j rulerJob) Instances() int { return j.instances }

// Fingerprint prints the Ruler by value: %#v includes the unexported
// kind/footprint/stride fields, so distinct intensities and dimensions
// cannot collide even if misnamed.
func (j rulerJob) Fingerprint() string { return fmt.Sprintf("ruler|%#v|n=%d", *j.r, j.instances) }
func (j rulerJob) NewStream(instance int, seed uint64) engine.Stream {
	return j.r.NewStream(mix(seed, uint64(instance)+0xA7))
}

// streamJob adapts an arbitrary stream factory to the Job interface, so
// trace replays and hand-built generators characterize exactly like stock
// workloads.
type streamJob struct {
	name      string
	instances int
	factory   func(instance int, seed uint64) engine.Stream
}

// StreamJob wraps a stream factory as a Job. The factory receives the
// instance index and a deterministic seed.
func StreamJob(name string, instances int, factory func(instance int, seed uint64) engine.Stream) Job {
	if instances < 1 {
		instances = 1
	}
	return streamJob{name: name, instances: instances, factory: factory}
}

func (j streamJob) Name() string   { return j.name }
func (j streamJob) Instances() int { return j.instances }
func (j streamJob) NewStream(instance int, seed uint64) engine.Stream {
	return j.factory(instance, mix(seed, uint64(instance)+0x33))
}

// mix combines a seed with a salt deterministically.
func mix(seed, salt uint64) uint64 {
	z := seed ^ salt*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	return z ^ (z >> 27)
}

func seedFor(name string, base uint64) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return mix(base, h.Sum64())
}

// RunResult reports one measurement run.
type RunResult struct {
	// AppIPC is the mean IPC across the primary job's instances;
	// AppCounters the per-instance window counters.
	AppIPC      float64
	AppCounters []pmu.Counters
	// PartnerIPC/PartnerCounters describe the co-runner (zero value when
	// the run was solo).
	PartnerIPC      float64
	PartnerCounters []pmu.Counters
}

// clone deep-copies the counter slices so cache hits hand every caller an
// independent result.
func (r RunResult) clone() RunResult {
	if r.AppCounters != nil {
		r.AppCounters = append([]pmu.Counters(nil), r.AppCounters...)
	}
	if r.PartnerCounters != nil {
		r.PartnerCounters = append([]pmu.Counters(nil), r.PartnerCounters...)
	}
	return r
}

// SoloContext measures a job running alone on the chip (one instance per
// core, context 0). The simulation aborts mid-window (engine.RunContext)
// when ctx is cancelled, and a cancelled leader never poisons concurrent
// cache followers (simcache.DoContext).
func SoloContext(ctx context.Context, cfg isa.Config, job Job, opts Options) (RunResult, error) {
	return run(ctx, cfg, job, nil, SMT, opts)
}

// ColocateContext measures job and partner sharing the chip under the
// given placement, with cooperative cancellation. For SMT, instance i of
// the job runs on core i context 0 and partner instance j on core j
// context 1. For CMP, the partner occupies cores after the job's.
func ColocateContext(ctx context.Context, cfg isa.Config, job, partner Job, placement Placement, opts Options) (RunResult, error) {
	return run(ctx, cfg, job, partner, placement, opts)
}

// startRunSpan opens a span describing one simulation run; a no-op
// returning (ctx, nil) when no tracer rides on ctx.
func startRunSpan(ctx context.Context, name string, job, partner Job, placement Placement) (context.Context, *trace.Span) {
	if trace.FromContext(ctx) == nil {
		return ctx, nil
	}
	p := "<solo>"
	if partner != nil {
		p = partner.Name()
	}
	return trace.Start(ctx, name,
		trace.String("job", job.Name()),
		trace.String("partner", p),
		trace.String("placement", placement.String()))
}

func run(ctx context.Context, cfg isa.Config, job, partner Job, placement Placement, opts Options) (RunResult, error) {
	// A sampled run must actually simulate — a cache hit would silently
	// yield an empty timeline — so Sampler forces the uncached path.
	if opts.Cache != nil && opts.Sampler == nil {
		if key, ok := cacheKey(cfg, job, partner, placement, opts); ok {
			res, _, err := opts.Cache.DoContext(ctx, key, func(ctx context.Context) (RunResult, error) {
				return simulate(ctx, cfg, job, partner, placement, opts)
			})
			if err != nil {
				return RunResult{}, err
			}
			return res.clone(), nil
		}
	}
	return simulate(ctx, cfg, job, partner, placement, opts)
}

// chipBox is the per-worker chip cache a scheduler Slot holds for the
// batched simulation path: one engine instance per sched.Map worker, reused
// (via engine.Reset) across every cell that worker executes instead of
// allocating a chip per cell.
type chipBox struct {
	cfg  isa.Config
	chip *engine.Chip
}

// chipFor returns a chip for cfg, reusing the enclosing scheduler worker's
// cached instance when one exists. Reuse is invisible in results: Reset
// restores a chip bit-identically to its post-New state (the engine pins
// this), so batched runs hash equal to one-chip-per-cell runs. Callers
// outside a sched.Map (one-off SoloContext/ColocateContext) get a fresh chip.
func chipFor(ctx context.Context, cfg isa.Config) (*engine.Chip, error) {
	slot := sched.SlotFrom(ctx)
	if slot == nil {
		return engine.New(cfg)
	}
	if box, ok := slot.Value.(*chipBox); ok && reflect.DeepEqual(box.cfg, cfg) {
		box.chip.Reset()
		return box.chip, nil
	}
	if slot.Value != nil {
		if _, ok := slot.Value.(*chipBox); !ok {
			// The slot belongs to some other per-worker cache; leave it be.
			return engine.New(cfg)
		}
	}
	chip, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	slot.Value = &chipBox{cfg: cfg, chip: chip}
	return chip, nil
}

// simulate performs one actual measurement run, on the scheduler worker's
// pooled chip when running under sched.Map and a fresh chip otherwise.
func simulate(ctx context.Context, cfg isa.Config, job, partner Job, placement Placement, opts Options) (RunResult, error) {
	ctx, span := startRunSpan(ctx, "profile.simulate", job, partner, placement)
	defer span.End()
	chip, err := chipFor(ctx, cfg)
	if err != nil {
		return RunResult{}, err
	}
	if opts.Check {
		check.Attach(chip, opts.CheckInterval)
	}
	if opts.Sampler != nil {
		chip.SetSampler(opts.Sampler)
	}
	n := job.Instances()
	if n > cfg.Cores {
		return RunResult{}, fmt.Errorf("profile: job %s needs %d contexts but %s has %d cores", job.Name(), n, cfg.Name, cfg.Cores)
	}
	jobSeed := seedFor(job.Name(), opts.BaseSeed)
	for i := 0; i < n; i++ {
		chip.Assign(i, 0, job.NewStream(i, jobSeed))
	}
	var m int
	if partner != nil {
		m = partner.Instances()
		// The partner uses the same name-derived seed as its own solo
		// runs so an application behaves identically in either role;
		// instance salts inside NewStream decorrelate co-located
		// instances of the same job.
		partnerSeed := seedFor(partner.Name(), opts.BaseSeed)
		switch placement {
		case SMT:
			// Partner instance j lands on core j%Cores, context 1+j/Cores:
			// identical to the historical one-per-core mapping for
			// m ≤ Cores, and overflowing into the third, fourth, ...
			// sibling contexts on >2-way SMT parts.
			if m > cfg.Cores*(cfg.ContextsPerCore-1) {
				return RunResult{}, fmt.Errorf("profile: partner %s needs %d sibling contexts but %s has %d", partner.Name(), m, cfg.Name, cfg.Cores*(cfg.ContextsPerCore-1))
			}
			for j := 0; j < m; j++ {
				chip.Assign(j%cfg.Cores, 1+j/cfg.Cores, partner.NewStream(j, partnerSeed))
			}
		case CMP:
			if n+m > cfg.Cores {
				return RunResult{}, fmt.Errorf("profile: CMP placement of %s+%s needs %d cores but %s has %d", job.Name(), partner.Name(), n+m, cfg.Name, cfg.Cores)
			}
			for j := 0; j < m; j++ {
				chip.Assign(n+j, 0, partner.NewStream(j, partnerSeed))
			}
		default:
			return RunResult{}, fmt.Errorf("profile: unknown placement %d", placement)
		}
	}

	if err := ctx.Err(); err != nil {
		return RunResult{}, err
	}
	_, stage := trace.Start(ctx, "profile.prewarm", trace.Int("uops", opts.PrewarmUops))
	chip.Prewarm(opts.PrewarmUops)
	stage.End()
	_, stage = trace.Start(ctx, "profile.warmup", trace.Uint64("cycles", opts.WarmupCycles))
	if err := chip.RunContext(ctx, opts.WarmupCycles); err != nil {
		stage.End()
		return RunResult{}, fmt.Errorf("profile: run of %s cancelled: %w", job.Name(), err)
	}
	stage.End()
	chip.ResetCounters()
	_, stage = trace.Start(ctx, "profile.measure", trace.Uint64("cycles", opts.MeasureCycles))
	if err := chip.RunContext(ctx, opts.MeasureCycles); err != nil {
		stage.End()
		return RunResult{}, fmt.Errorf("profile: run of %s cancelled: %w", job.Name(), err)
	}
	stage.End()
	if err := chip.CheckErr(); err != nil {
		return RunResult{}, fmt.Errorf("profile: invariant violation running %s: %w", job.Name(), err)
	}

	res := RunResult{}
	for i := 0; i < n; i++ {
		c := chip.Counters(i, 0)
		res.AppCounters = append(res.AppCounters, c)
		res.AppIPC += c.IPC()
	}
	res.AppIPC /= float64(n)
	if partner != nil {
		for j := 0; j < m; j++ {
			var c pmu.Counters
			if placement == SMT {
				c = chip.Counters(j%cfg.Cores, 1+j/cfg.Cores)
			} else {
				c = chip.Counters(n+j, 0)
			}
			res.PartnerCounters = append(res.PartnerCounters, c)
			res.PartnerIPC += c.IPC()
		}
		res.PartnerIPC /= float64(m)
	}
	return res, nil
}

// Degradation returns the relative performance loss (Equation 7), clamped
// below at 0 only by the caller if desired; negative values mean speed-up.
func Degradation(soloIPC, coIPC float64) float64 {
	if soloIPC <= 0 {
		return 0
	}
	return (soloIPC - coIPC) / soloIPC
}

// Characterization is an application's decoupled contention profile: its
// sensitivity and contentiousness in each of the seven sharing dimensions,
// plus the solo measurements the PMU baseline model consumes.
type Characterization struct {
	App       string
	Placement Placement
	SoloIPC   float64
	// SoloPMU aggregates the solo window counters of instance 0 (the PMU
	// baseline uses per-cycle rates, so one representative thread
	// suffices; threads are statistically identical).
	SoloPMU pmu.Counters
	Sen     [rulers.NumDimensions]float64
	Con     [rulers.NumDimensions]float64
}

// Profiler characterises applications and measures co-locations on one
// machine configuration. It is safe for concurrent use.
type Profiler struct {
	cfg  isa.Config
	set  []*rulers.Ruler
	opts Options
}

// NewProfiler builds a profiler for the configuration using the standard
// Ruler set sized to its caches. Unless the caller supplied one, every
// profiler gets its own simulation cache, the only memo of its runs: the
// solo baselines of Equations 1 and 2 and every co-location are keyed by
// content, so each distinct run simulates once.
func NewProfiler(cfg isa.Config, opts Options) *Profiler {
	if opts.Cache == nil {
		opts.Cache = simcache.New[RunResult]()
	}
	return &Profiler{cfg: cfg, set: rulers.StandardSet(cfg), opts: opts}
}

// Config returns the profiler's machine configuration.
func (p *Profiler) Config() isa.Config { return p.cfg }

// Options returns the profiler's measurement options.
func (p *Profiler) Options() Options { return p.opts }

// RulerSet returns the profiler's standard rulers.
func (p *Profiler) RulerSet() []*rulers.Ruler { return p.set }

// CacheStats reports the profiler's simulation-cache counters (zero value
// when the profiler was built without a cache).
func (p *Profiler) CacheStats() simcache.Stats {
	if p.opts.Cache == nil {
		return simcache.Stats{}
	}
	return p.opts.Cache.Stats()
}

// SoloRunContext measures a job running alone on the profiler's machine
// (memoised, like every run, by the simulation cache).
func (p *Profiler) SoloRunContext(ctx context.Context, job Job) (RunResult, error) {
	return SoloContext(ctx, p.cfg, job, p.opts)
}

// JobFor builds the Job arrangement CharacterizeContext uses for a spec:
// multithreaded applications are clamped to the machine (half the cores
// under the CMP half-loaded arrangement). Callers building their own cell
// batches (e.g. the surrogate fitter's sweeps) use it to place applications
// exactly as the standard characterization would.
func (p *Profiler) JobFor(spec *workload.Spec, placement Placement) Job {
	threads := spec.ThreadCount()
	max := p.cfg.Cores
	if placement == CMP && threads > 1 {
		// Half-loaded CMP arrangement: the app occupies half the cores.
		max = p.cfg.Cores / 2
	}
	if threads > max {
		threads = max // clamp multithreaded apps to the machine
	}
	return AppThreads(spec, threads)
}

// CharacterizeContext measures an application's sensitivity and
// contentiousness in every sharing dimension by co-locating it with each
// standard Ruler under the given placement. Multithreaded applications are
// co-located with one Ruler instance per thread, as in the paper's
// CloudSuite setup. The per-Ruler cells fan out across the
// Options.Parallelism worker pool.
func (p *Profiler) CharacterizeContext(ctx context.Context, spec *workload.Spec, placement Placement) (Characterization, error) {
	return p.CharacterizeJobContext(ctx, p.JobFor(spec, placement), placement)
}

// CharacterizeJobContext is CharacterizeContext for an explicit Job
// arrangement, using one Ruler instance per job instance (full pressure).
func (p *Profiler) CharacterizeJobContext(ctx context.Context, job Job, placement Placement) (Characterization, error) {
	out, err := p.characterize(ctx, []target{{job, job.Instances()}}, placement, standardGrid)
	if err != nil {
		return Characterization{}, err
	}
	return out[0].Characterization, nil
}

// CharacterizeAllContext characterises a batch of applications, each placed
// with JobFor, in one flat batch of simulation cells (see characterize).
func (p *Profiler) CharacterizeAllContext(ctx context.Context, specs []*workload.Spec, placement Placement) ([]Characterization, error) {
	targets := make([]target, len(specs))
	for i, s := range specs {
		job := p.JobFor(s, placement)
		targets[i] = target{job, job.Instances()}
	}
	sweeps, err := p.characterize(ctx, targets, placement, standardGrid)
	if err != nil {
		return nil, err
	}
	out := make([]Characterization, len(sweeps))
	for i, sw := range sweeps {
		out[i] = sw.Characterization
	}
	return out, nil
}

// CharacterizeOccupancyContext measures each job's partial-occupancy
// sensitivity Sen(n) for n = 1..maxInstances: element [j][n-1] is job j
// characterized against n Ruler instances, the degradation when only n of
// its sibling contexts carry pressure. The scale-out studies use it to
// predict co-locations with fewer batch instances than threads, keeping
// profiling Ruler-only: no batch-application cross-product. Every
// (job, n) pair runs in one batch of simulation cells.
func (p *Profiler) CharacterizeOccupancyContext(ctx context.Context, jobs []Job, placement Placement, maxInstances int) ([][]Characterization, error) {
	var targets []target
	for _, job := range jobs {
		for n := 1; n <= maxInstances; n++ {
			targets = append(targets, target{job, n})
		}
	}
	sweeps, err := p.characterize(ctx, targets, placement, standardGrid)
	if err != nil {
		return nil, err
	}
	out := make([][]Characterization, len(jobs))
	for i, sw := range sweeps {
		j := i / maxInstances
		out[j] = append(out[j], sw.Characterization)
	}
	return out, nil
}

// rulerCell measures one (job, Ruler) characterization cell: the job's
// sensitivity and the Ruler's received contentiousness on the Ruler's
// dimension. Cells are independent simulations — the unit of work the
// scheduler fans out.
func (p *Profiler) rulerCell(ctx context.Context, job Job, r *rulers.Ruler, instances int, placement Placement, soloIPC float64) (sen, con float64, err error) {
	ctx, span := trace.Start(ctx, "profile.ruler-cell",
		trace.String("job", job.Name()), trace.String("ruler", r.Name))
	defer span.End()
	// A single Ruler instance running alone is the Con denominator of
	// Equation 2.
	base, err := p.SoloRunContext(ctx, Rulers(r, 1))
	if err != nil {
		return 0, 0, err
	}
	res, err := ColocateContext(ctx, p.cfg, job, Rulers(r, instances), placement, p.opts)
	if err != nil {
		return 0, 0, err
	}
	return Degradation(soloIPC, res.AppIPC), Degradation(base.AppIPC, res.PartnerIPC), nil
}

// SweepSample is one measured cell of an intensity sweep: the job's
// sensitivity to — and the Ruler's received contentiousness at — one Ruler
// duty cycle on one sharing dimension.
type SweepSample struct {
	Intensity float64
	Sen, Con  float64
}

// SweepResult is the full (dimension × intensity) characterization grid for
// one job: the standard intensity-1.0 characterization plus, per dimension,
// the sen/con samples at every swept duty cycle (ascending intensity order).
// This grid is what the surrogate tier (internal/surrogate) fits its
// closed-form curves from.
type SweepResult struct {
	Characterization Characterization
	Samples          [rulers.NumDimensions][]SweepSample
}

// standardGrid is the one-column grid of a standard characterization: the
// unmodified Ruler set at full intensity.
var standardGrid = []float64{1}

// SweepGrid normalizes a requested intensity list: clamped into (0, 1],
// deduplicated, ascending, with 1.0 always present (the grid's last column
// doubles as the standard characterization). Exported so sweep consumers
// (the surrogate fitter's content-addressed keys) hash the exact grid the
// sweep will run.
func SweepGrid(intensities []float64) []float64 {
	seen := make(map[float64]bool)
	var xs []float64
	for _, x := range append(append([]float64(nil), intensities...), 1.0) {
		if x <= 0 {
			x = 0.01
		}
		if x > 1 {
			x = 1
		}
		if !seen[x] {
			seen[x] = true
			xs = append(xs, x)
		}
	}
	sort.Float64s(xs)
	return xs
}

// CharacterizeSweepContext measures the (dimension × intensity) grid for
// each job, one Ruler instance per job instance. The intensity-1.0 column
// uses the unmodified standard Ruler set, so it is bit-identical to (and
// shares simulation-cache entries with) CharacterizeAllContext.
func (p *Profiler) CharacterizeSweepContext(ctx context.Context, jobs []Job, placement Placement, intensities []float64) ([]SweepResult, error) {
	targets := make([]target, len(jobs))
	for i, job := range jobs {
		targets[i] = target{job, job.Instances()}
	}
	return p.characterize(ctx, targets, placement, SweepGrid(intensities))
}

// target is one job to characterize, co-located with rulers instances of
// each Ruler.
type target struct {
	job    Job
	rulers int
}

// characterize is the Ruler-cell scheduler behind every characterization
// entry point. It measures the (dimension × intensity) grid xs for each
// target, flattening the batch into independent simulation cells — every
// target and (Ruler, intensity) solo, then one co-location per
// (target, Ruler, intensity) — fanned across one Options.Parallelism-
// bounded pool, each worker reusing a single pooled chip across its cells.
// The batch scales near-linearly with workers even when it holds fewer
// jobs than CPUs. Each cell writes only its own index-addressed slot, so
// the result is bit-identical to the sequential sweep at any Parallelism
// (pinned by the internal/simtest parallelism-independence law).
// Options.Progress counts the batch's cells.
func (p *Profiler) characterize(ctx context.Context, targets []target, placement Placement, xs []float64) ([]SweepResult, error) {
	if len(targets) == 0 {
		return nil, nil
	}
	for _, tg := range targets {
		if placement == CMP && tg.job.Instances() > p.cfg.Cores/2 {
			return nil, fmt.Errorf("profile: job %s with %d instances cannot be CMP-characterized on %d cores", tg.job.Name(), tg.job.Instances(), p.cfg.Cores)
		}
	}
	ctx, span := trace.Start(ctx, "profile.characterize",
		trace.Int("jobs", len(targets)), trace.String("placement", placement.String()))
	defer span.End()
	nt, nr, nx := len(targets), len(p.set), len(xs)
	rulerAt := func(ri, xi int) *rulers.Ruler {
		if xs[xi] == 1 {
			return p.set[ri] // standard column: the unmodified Ruler set
		}
		return p.set[ri].WithIntensity(xs[xi])
	}
	workers := p.opts.workers()
	solos := nt + nr*nx
	total := solos + nt*nr*nx
	var done atomic.Int64
	tick := func() { p.opts.progress(int(done.Add(1)), total) }

	// Phase 1: all solo runs — each target plus every (Ruler, intensity)
	// baseline of Equation 2 — warm the run cache in parallel, so phase 2's
	// cells never duplicate a solo simulation.
	phaseCtx, phase := trace.Start(ctx, "profile.solo-phase",
		trace.Int("jobs", nt), trace.Int("cells", solos))
	out := make([]SweepResult, nt)
	err := sched.Map(phaseCtx, solos, workers, func(ctx context.Context, i int) error {
		if i < nt {
			job := targets[i].job
			solo, err := p.SoloRunContext(ctx, job)
			if err != nil {
				return err
			}
			out[i].Characterization = Characterization{
				App:       job.Name(),
				Placement: placement,
				SoloIPC:   solo.AppIPC,
				SoloPMU:   solo.AppCounters[0],
			}
			for d := range out[i].Samples {
				out[i].Samples[d] = make([]SweepSample, nx)
			}
			tick()
			return nil
		}
		ri, xi := (i-nt)/nx, (i-nt)%nx
		if _, err := p.SoloRunContext(ctx, Rulers(rulerAt(ri, xi), 1)); err != nil {
			return err
		}
		tick()
		return nil
	})
	phase.End()
	if err != nil {
		return nil, err
	}

	// Phase 2: the (target, Ruler, intensity) co-location cells, flattened
	// into one index space; each writes only its own grid slot.
	phaseCtx, phase = trace.Start(ctx, "profile.pair-phase",
		trace.Int("cells", nt*nr*nx))
	err = sched.Map(phaseCtx, nt*nr*nx, workers, func(ctx context.Context, i int) error {
		ti, ri, xi := i/(nr*nx), (i/nx)%nr, i%nx
		tg, dim := targets[ti], p.set[ri].Dim
		sen, con, err := p.rulerCell(ctx, tg.job, rulerAt(ri, xi), tg.rulers, placement, out[ti].Characterization.SoloIPC)
		if err != nil {
			return err
		}
		out[ti].Samples[dim][xi] = SweepSample{Intensity: xs[xi], Sen: sen, Con: con}
		if xs[xi] == 1 {
			out[ti].Characterization.Sen[dim] = sen
			out[ti].Characterization.Con[dim] = con
		}
		tick()
		return nil
	})
	phase.End()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PairMeasurement is the ground truth for one co-location (Equation 7).
type PairMeasurement struct {
	A, B      string
	Placement Placement
	// DegA is A's degradation when co-located with B; DegB the converse.
	DegA, DegB float64
}

// MeasurePairContext measures the mutual degradation of two applications
// under the given placement.
func (p *Profiler) MeasurePairContext(ctx context.Context, a, b *workload.Spec, placement Placement) (PairMeasurement, error) {
	return p.MeasureJobsContext(ctx, App(a), App(b), placement)
}

// MeasureJobsContext measures the mutual degradation of two explicit jobs.
func (p *Profiler) MeasureJobsContext(ctx context.Context, a, b Job, placement Placement) (PairMeasurement, error) {
	soloA, err := p.SoloRunContext(ctx, a)
	if err != nil {
		return PairMeasurement{}, err
	}
	soloB, err := p.SoloRunContext(ctx, b)
	if err != nil {
		return PairMeasurement{}, err
	}
	res, err := ColocateContext(ctx, p.cfg, a, b, placement, p.opts)
	if err != nil {
		return PairMeasurement{}, err
	}
	return PairMeasurement{
		A: a.Name(), B: b.Name(), Placement: placement,
		DegA: Degradation(soloA.AppIPC, res.AppIPC),
		DegB: Degradation(soloB.AppIPC, res.PartnerIPC),
	}, nil
}

// MeasurePairsContext measures all distinct pairs {a, b} from the two sets
// concurrently. Each unordered pair is co-located once — a single run
// yields both sides' degradations — and same-name pairs are skipped. The
// per-pair measurements run on the internal/sched worker pool; each writes
// its own index-addressed slot, so results are bit-identical to the
// sequential sweep at any Parallelism. Options.Progress, when set, is
// fired once per completed pair.
func (p *Profiler) MeasurePairsContext(ctx context.Context, as, bs []*workload.Spec, placement Placement) ([]PairMeasurement, error) {
	type task struct{ a, b *workload.Spec }
	var tasks []task
	seen := make(map[string]bool)
	for _, a := range as {
		for _, b := range bs {
			if a.Name == b.Name {
				continue
			}
			key := a.Name + "\x00" + b.Name
			if b.Name < a.Name {
				key = b.Name + "\x00" + a.Name
			}
			if seen[key] {
				continue
			}
			seen[key] = true
			tasks = append(tasks, task{a, b})
		}
	}
	ctx, span := trace.Start(ctx, "profile.measure-pairs", trace.Int("pairs", len(tasks)))
	defer span.End()
	out := make([]PairMeasurement, len(tasks))
	var done atomic.Int64
	err := sched.Map(ctx, len(tasks), p.opts.workers(), func(ctx context.Context, i int) error {
		pm, err := p.MeasurePairContext(ctx, tasks[i].a, tasks[i].b, placement)
		if err != nil {
			return err
		}
		out[i] = pm
		p.opts.progress(int(done.Add(1)), len(tasks))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
