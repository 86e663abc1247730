// Package workload generates the exogenous event streams driving the
// warehouse-scale cluster simulation in internal/cluster: batch-job
// arrivals shaped by temporal rate curves (diurnal modulation, bursty
// windows), per-window request-mix drift over the batch-application
// population, and machine churn (arrivals and decommissions).
//
// Everything is deterministic from a seed. Each shard of the cluster
// draws its stream from an independent seeded xrand generator, and all
// window-level decisions (burst state, mix weights) come from per-window
// generators derived from (seed, shard, window index), so the stream of
// one window never depends on how many events earlier windows produced.
//
// The generated events are exogenous only: job arrivals carry their
// duration, machine decommissions carry a rank selecting the victim among
// the machines alive at processing time, and nothing here depends on
// placement decisions. That split is what makes trace record/replay exact:
// a recorded stream replayed through the simulator reproduces the original
// run's placement log bit for bit (internal/simtest pins this as a law).
package workload

import (
	"fmt"
	"math"

	"repro/internal/xrand"
)

// Kind discriminates exogenous cluster events.
type Kind uint8

const (
	// KindMachineUp adds a machine running latency application Lat.
	KindMachineUp Kind = iota + 1
	// KindMachineDown decommissions the machine selected by Rank among
	// the machines alive when the event is processed.
	KindMachineDown
	// KindJobArrive offers a batch job of application Batch running for
	// Duration to the cluster scheduler.
	KindJobArrive
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindMachineUp:
		return "machine-up"
	case KindMachineDown:
		return "machine-down"
	case KindJobArrive:
		return "job-arrive"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one exogenous cluster event: a 24-byte record with no
// pointers, so a fleet's streams cost 24 B per event and the garbage
// collector never scans them. Each kind carries at most one application
// index and one real parameter, so the two share a slot apiece; the
// accessors Lat, Batch, Duration and Rank name them by kind. Seq is
// shard-local and strictly increasing, so (At, Seq) totally orders a
// shard's stream even when two events share a timestamp.
type Event struct {
	At float64
	// Param is the job's Duration (KindJobArrive) or the decommission
	// Rank (KindMachineDown); zero for KindMachineUp.
	Param float64
	Seq   uint32
	// App is the new machine's latency application (KindMachineUp) or the
	// job's batch application (KindJobArrive); zero for KindMachineDown.
	App  int16
	Kind Kind
}

// Lat is the latency-application index of a new machine; zero for other
// kinds.
func (e Event) Lat() int {
	if e.Kind != KindMachineUp {
		return 0
	}
	return int(e.App)
}

// Batch is the batch-application index of a job; zero for other kinds.
func (e Event) Batch() int {
	if e.Kind != KindJobArrive {
		return 0
	}
	return int(e.App)
}

// Duration is a job's run time; zero for other kinds.
func (e Event) Duration() float64 {
	if e.Kind != KindJobArrive {
		return 0
	}
	return e.Param
}

// Rank in [0, 1) selects a decommission's victim among the machines alive
// when it is processed; zero for other kinds.
func (e Event) Rank() float64 {
	if e.Kind != KindMachineDown {
		return 0
	}
	return e.Param
}

// Config parameterises one generated cluster workload. Rates are
// fleet-wide; Generate divides them across shards.
type Config struct {
	// Machines is the initial fleet size (also the scale for churn rates).
	Machines int `json:"machines"`
	// Horizon is the simulated time span events are generated over.
	Horizon float64 `json:"horizon"`
	// Lats and Batches are the application population sizes; events carry
	// indices in [0, Lats) and [0, Batches).
	Lats    int `json:"lats"`
	Batches int `json:"batches"`
	// Seed drives every random draw.
	Seed uint64 `json:"seed"`

	// ArrivalRate is the mean fleet-wide batch-job arrival rate (jobs per
	// time unit) before temporal modulation.
	ArrivalRate float64 `json:"arrival_rate"`
	// MeanDuration is the mean exponential job duration.
	MeanDuration float64 `json:"mean_duration"`

	// Diurnal is the relative amplitude in [0, 1) of a sinusoidal rate
	// modulation with period Horizon: rate(t) scales by
	// 1 + Diurnal·sin(2πt/Horizon). Zero disables it.
	Diurnal float64 `json:"diurnal,omitempty"`

	// BurstProb is the probability that a window (one of 24 equal slices
	// of Horizon) is bursty, multiplying its arrival rate by
	// BurstFactor. Zero disables bursts.
	BurstProb float64 `json:"burst_prob,omitempty"`
	// BurstFactor is the bursty-window rate multiplier (> 1).
	BurstFactor float64 `json:"burst_factor,omitempty"`

	// Drift is the per-window log-scale random-walk step of the batch-mix
	// weights: each window, every batch application's weight is multiplied
	// by exp(Drift·u) with u uniform in [-1, 1], then the weights are
	// renormalised. Zero keeps the mix uniform forever.
	Drift float64 `json:"drift,omitempty"`

	// Churn is the per-machine rate of churn events: the fleet sees
	// Churn·Machines machine arrivals and as many decommissions per time
	// unit in expectation. Zero freezes the fleet.
	Churn float64 `json:"churn,omitempty"`
}

// windows is the number of equal temporal windows a Horizon is cut into;
// burst state and mix drift are re-drawn per window.
const windows = 24

// MaxExpectedEvents caps a run's expected size (see expectedEvents). An
// Event is 24 bytes and Generate sizes each stream within a few percent
// of its length, so the cap keeps a run's event stream near 400 MiB; the
// 10k-machine fleet benchmark expects about 2.8M events (it draws 0.9M).
const MaxExpectedEvents = 1 << 24

// ConfigError is the typed validation error of a cluster-run
// configuration (cluster.ConfigError is the same type): Field is the
// offending field's JSON path, Err the underlying validator's error, if
// any.
type ConfigError struct {
	Field  string
	Reason string
	Err    error
}

func (e *ConfigError) Error() string { return e.Field + ": " + e.Reason }

// Unwrap exposes the underlying validator's error to errors.Is/As.
func (e *ConfigError) Unwrap() error { return e.Err }

func fieldError(field, format string, a ...any) error {
	return &ConfigError{Field: field, Reason: fmt.Sprintf(format, a...)}
}

// Validate rejects configurations Generate cannot honour. Degenerate
// worlds are legal: zero machines and/or a zero arrival rate produce an
// empty (or churn-only) stream, which the simulator and trace codec
// round-trip to an empty placement log. Horizon stays strictly positive
// even then — the window length is derived from it, and a zero horizon
// would poison the per-window rate math with NaNs. Every float must be
// finite: a NaN or infinite rate never advances the generator's clock.
// The application counts must fit Event.App's int16, and the run's
// expected size must stay under MaxExpectedEvents, since Generate
// materializes every event.
func (c Config) Validate() error {
	for _, f := range [...]struct {
		field string
		x     float64
	}{
		{"horizon", c.Horizon}, {"arrival_rate", c.ArrivalRate}, {"mean_duration", c.MeanDuration},
		{"diurnal", c.Diurnal}, {"burst_prob", c.BurstProb}, {"burst_factor", c.BurstFactor},
		{"drift", c.Drift}, {"churn", c.Churn},
	} {
		if math.IsNaN(f.x) || math.IsInf(f.x, 0) {
			return fieldError(f.field, "must be finite, got %g", f.x)
		}
	}
	switch {
	case c.Machines < 0:
		return fieldError("machines", "must be non-negative, got %d", c.Machines)
	case c.Horizon <= 0:
		return fieldError("horizon", "must be positive, got %g", c.Horizon)
	case c.Lats <= 0:
		return fieldError("lats", "need a positive application count, got %d", c.Lats)
	case c.Batches <= 0:
		return fieldError("batches", "need a positive application count, got %d", c.Batches)
	case c.Lats > math.MaxInt16:
		return fieldError("lats", "%d applications exceed %d", c.Lats, math.MaxInt16)
	case c.Batches > math.MaxInt16:
		return fieldError("batches", "%d applications exceed %d", c.Batches, math.MaxInt16)
	case c.ArrivalRate < 0:
		return fieldError("arrival_rate", "must be non-negative, got %g", c.ArrivalRate)
	case c.ArrivalRate > 0 && c.MeanDuration <= 0:
		return fieldError("mean_duration", "must be positive with arrivals enabled, got %g", c.MeanDuration)
	case c.Diurnal < 0 || c.Diurnal >= 1:
		return fieldError("diurnal", "must be in [0, 1), got %g", c.Diurnal)
	case c.BurstProb < 0 || c.BurstProb > 1:
		return fieldError("burst_prob", "must be in [0, 1], got %g", c.BurstProb)
	case c.BurstProb > 0 && c.BurstFactor <= 1:
		return fieldError("burst_factor", "must exceed 1 with bursts enabled, got %g", c.BurstFactor)
	case c.Drift < 0:
		return fieldError("drift", "must be non-negative, got %g", c.Drift)
	case c.Churn < 0:
		return fieldError("churn", "must be non-negative, got %g", c.Churn)
	case !(c.expectedEvents() <= MaxExpectedEvents):
		return fieldError("horizon", "run expects %.3g events, over the cap of %d; shorten the horizon or lower the rates",
			c.expectedEvents(), MaxExpectedEvents)
	}
	return nil
}

// expectedEvents bounds a run's expected size from above: the initial
// fleet plus the horizon's arrivals at the peak diurnal and burst rate and
// its churn events.
func (c Config) expectedEvents() float64 {
	return float64(c.Machines) + c.Horizon*(c.ArrivalRate*(1+c.Diurnal)*math.Max(1, c.BurstFactor)+
		2*c.Churn*float64(c.Machines))
}

// shardSeed decorrelates the per-shard generators: nearby shards of the
// same seed must not see shifted copies of one stream.
func shardSeed(seed uint64, shard int, salt uint64) uint64 {
	return seed ^ salt ^ (uint64(shard)+1)*0x9E3779B97F4A7C15
}

// windowState is the per-window temporal state: the arrival-rate
// multiplier and the drifted batch-mix CDF.
type windowState struct {
	rate float64   // shard arrival rate within the window
	cdf  []float64 // cumulative batch-mix weights, cdf[len-1] == 1
}

// windowWalk derives window w's state. Burst decisions come from an
// independent per-window generator so they do not depend on event counts;
// the mix weights are a random walk, advanced window by window (callers
// visit windows in order).
type windowWalk struct {
	cfg     Config
	shard   int
	share   float64   // base per-shard rate
	weights []float64 // current mix weights, sum 1
}

func newWindowWalk(cfg Config, shard, shards int) *windowWalk {
	w := &windowWalk{cfg: cfg, shard: shard, share: cfg.ArrivalRate / float64(shards)}
	w.weights = make([]float64, cfg.Batches)
	for i := range w.weights {
		w.weights[i] = 1 / float64(cfg.Batches)
	}
	return w
}

// state computes window w's state and advances the mix walk by one step.
func (ww *windowWalk) state(w int) windowState {
	cfg := ww.cfg
	wr := xrand.New(shardSeed(cfg.Seed, ww.shard, 0xB0A7^uint64(w)*0x94D049BB133111EB))
	if cfg.Drift > 0 {
		total := 0.0
		for i := range ww.weights {
			u := 2*wr.Float64() - 1
			ww.weights[i] *= math.Exp(cfg.Drift * u)
			total += ww.weights[i]
		}
		for i := range ww.weights {
			ww.weights[i] /= total
		}
	}
	st := windowState{cdf: make([]float64, len(ww.weights))}
	sum := 0.0
	for i, v := range ww.weights {
		sum += v
		st.cdf[i] = sum
	}
	st.cdf[len(st.cdf)-1] = 1
	mid := (float64(w) + 0.5) * (cfg.Horizon / windows)
	st.rate = ww.share * (1 + cfg.Diurnal*math.Sin(2*math.Pi*mid/cfg.Horizon))
	if cfg.BurstProb > 0 && wr.Bool(cfg.BurstProb) {
		st.rate *= cfg.BurstFactor
	}
	return st
}

// sampleBatch draws a batch index from the window's mix.
func (st windowState) sampleBatch(r *xrand.Rand) int {
	u := r.Float64()
	for i, c := range st.cdf {
		if u < c {
			return i
		}
	}
	return len(st.cdf) - 1
}

// Generate produces shard's exogenous event stream for the configured
// workload, time-ordered with strictly increasing Seq. The fleet-wide
// arrival and churn rates are split evenly across shards; the same
// (Config, shard, shards) always yields the same stream.
//
// The stream is allocated once: the window states are drawn up front, and
// their expected arrivals plus the expected churn, padded by a few
// standard deviations, size the slice. Arrivals and churn are Poisson, so
// three standard deviations cover all but about one stream in 700 and
// keep the spare capacity within a few percent of the length; a longer
// stream still grows by append.
func Generate(cfg Config, shard, shards int) ([]Event, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if shards <= 0 || shard < 0 || shard >= shards {
		return nil, fmt.Errorf("workload: shard %d outside [0, %d)", shard, shards)
	}

	jr := xrand.New(shardSeed(cfg.Seed, shard, 0x10B5)) // job stream
	cr := xrand.New(shardSeed(cfg.Seed, shard, 0xC0DE)) // churn stream
	window := cfg.Horizon / windows
	walk := newWindowWalk(cfg, shard, shards)
	churnRate := cfg.Churn * float64(cfg.Machines) / float64(shards)
	// t/window can round up to windows for an arrival just short of the
	// horizon, so the walk keeps one state past the last window.
	var states [windows + 1]windowState
	mean := 2 * churnRate * cfg.Horizon
	for w := range states {
		states[w] = walk.state(w)
		if w < windows {
			mean += states[w].rate * window
		}
	}
	var out []Event
	if n := int(mean + 3*math.Sqrt(mean)); n > 0 {
		out = make([]Event, 0, n)
	}

	st := states[0]
	inf := math.Inf(1)
	nextJob := jr.Exp(math.Max(st.rate, 1e-300))
	nextUp, nextDown := inf, inf
	if churnRate > 0 {
		nextUp = cr.Exp(churnRate)
		nextDown = cr.Exp(churnRate)
	}

	// Seq cannot wrap: MaxExpectedEvents keeps a stream's length far
	// below 2³².
	var seq uint32
	emit := func(e Event) {
		e.Seq = seq
		seq++
		out = append(out, e)
	}
	for {
		t := math.Min(nextJob, math.Min(nextUp, nextDown))
		if t >= cfg.Horizon {
			break
		}
		switch {
		case t == nextJob:
			// The gap to the next arrival is drawn at the arrival's window's
			// rate.
			st = states[int(t/window)]
			emit(Event{At: t, Kind: KindJobArrive,
				App:   int16(st.sampleBatch(jr)),
				Param: jr.Exp(1 / cfg.MeanDuration)})
			nextJob = t + jr.Exp(math.Max(st.rate, 1e-300))
		case t == nextUp:
			emit(Event{At: t, Kind: KindMachineUp, App: int16(cr.Intn(cfg.Lats))})
			nextUp = t + cr.Exp(churnRate)
		default:
			emit(Event{At: t, Kind: KindMachineDown, Param: cr.Float64()})
			nextDown = t + cr.Exp(churnRate)
		}
	}
	return out, nil
}
