// Package experiments implements one driver per table and figure of the
// paper's evaluation (Section IV), producing the same rows and series the
// paper reports. DESIGN.md carries the experiment index; EXPERIMENTS.md
// records paper-versus-measured values from a full-scale run.
//
// All drivers hang off a Lab, which owns the two machine configurations
// (Table I), shares one simulation-run cache between its two profilers so
// that later figures reuse earlier figures' measurements, and scales every
// experiment through a Scale so tests and benchmarks can run reduced
// versions of the same code paths.
package experiments

import (
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/sim/isa"
	"repro/internal/simcache"
	"repro/internal/workload"
)

// workers bounds experiment-level fan-out, honouring the scale's
// Options.Parallelism (0 = GOMAXPROCS).
func (l *Lab) workers() int { return sched.Workers(l.Scale.Options.Parallelism) }

// Scale sizes an experiment run.
type Scale struct {
	// Options are the measurement windows.
	Options profile.Options
	// IvyBridgeCores/SandyBridgeCores override core counts (0 keeps the
	// stock configuration). Reducing cores speeds tests but caps CloudSuite
	// thread counts.
	IvyBridgeCores   int
	SandyBridgeCores int
	// MaxSpecApps truncates the SPEC train/test sets (0 = all).
	MaxSpecApps int
	// MaxCloudApps truncates the CloudSuite set (0 = all).
	MaxCloudApps int
	// MaxPairApps bounds the per-set app count for the all-pairs port
	// utilisation study (0 = all 29).
	MaxPairApps int
	// RulerSweepPoints is the intensity sweep resolution for the Ruler
	// linearity validation.
	RulerSweepPoints int
	// ServersPerApp sizes the scale-out cluster (paper: 1,000 per app).
	ServersPerApp int
	// TailRequests sizes the queueing simulations of the tail studies.
	TailRequests int
}

// FullScale reproduces the paper's experiment sizes.
func FullScale() Scale {
	return Scale{
		Options:          profile.DefaultOptions(),
		RulerSweepPoints: 4,
		ServersPerApp:    1000,
		TailRequests:     200_000,
	}
}

// TestScale is a reduced configuration exercising the same code paths
// quickly (for tests and benchmarks).
func TestScale() Scale {
	return Scale{
		Options:          profile.FastOptions(),
		IvyBridgeCores:   2,
		SandyBridgeCores: 4,
		MaxSpecApps:      8,
		MaxCloudApps:     2,
		MaxPairApps:      6,
		RulerSweepPoints: 3,
		ServersPerApp:    100,
		TailRequests:     20_000,
	}
}

// Lab owns the two machine configurations and their profilers. It keeps no
// results of its own: every driver re-derives its inputs from the profilers'
// shared run cache, which holds each simulation once.
type Lab struct {
	Scale Scale
	// IVB is the Ivy Bridge configuration used for the SPEC experiments
	// (Figures 10 and 11); SNB the Sandy Bridge-EN configuration used for
	// the CloudSuite and scale-out experiments.
	IVB isa.Config
	SNB isa.Config

	ivb *profile.Profiler
	snb *profile.Profiler
}

// Machine selects one of the Lab's two configurations.
type Machine int

const (
	// IvyBridge is the i7-3770 (SPEC experiments).
	IvyBridge Machine = iota
	// SandyBridgeEN is the Xeon E5-2420 (CloudSuite and scale-out).
	SandyBridgeEN
)

// String names the machine.
func (m Machine) String() string {
	if m == IvyBridge {
		return "Ivy Bridge"
	}
	return "Sandy Bridge-EN"
}

// NewLab builds a lab at the given scale. All drivers share one simulation
// cache (the machine configuration is part of every cache key, so the two
// profilers cannot collide), letting figures that revisit the same
// co-location — e.g. training and evaluation over the same pair set —
// simulate it once.
func NewLab(scale Scale) *Lab {
	ivb := isa.IvyBridge()
	if scale.IvyBridgeCores > 0 {
		ivb.Cores = scale.IvyBridgeCores
	}
	snb := isa.SandyBridgeEN()
	if scale.SandyBridgeCores > 0 {
		snb.Cores = scale.SandyBridgeCores
	}
	if scale.Options.Cache == nil {
		scale.Options.Cache = simcache.New[profile.RunResult]()
	}
	return &Lab{
		Scale: scale,
		IVB:   ivb,
		SNB:   snb,
		ivb:   profile.NewProfiler(ivb, scale.Options),
		snb:   profile.NewProfiler(snb, scale.Options),
	}
}

// Profiler returns the profiler for a machine.
func (l *Lab) Profiler(m Machine) *profile.Profiler {
	if m == IvyBridge {
		return l.ivb
	}
	return l.snb
}

// Config returns a machine's configuration.
func (l *Lab) Config(m Machine) isa.Config {
	if m == IvyBridge {
		return l.IVB
	}
	return l.SNB
}

// specSet truncates a SPEC set per the scale, sampling evenly across the
// list so a reduced set keeps the population's diversity (compute-dense,
// streaming and cache-thrashing applications all survive truncation).
func (l *Lab) specSet(set []*workload.Spec) []*workload.Spec {
	max := l.Scale.MaxSpecApps
	if max <= 0 || len(set) <= max {
		return set
	}
	out := make([]*workload.Spec, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, set[i*len(set)/max])
	}
	return out
}

// cloudSet truncates the CloudSuite set per the scale. It does not touch
// thread counts: clamping multithreaded applications to a reduced core
// count happens where the specs become Jobs — CharacterizeAllContext
// places them with profile.Profiler.JobFor, and buildCloudStudy sizes
// latency jobs from cloudThreads().
func (l *Lab) cloudSet() []*workload.Spec {
	set := workload.CloudSuiteApps()
	if l.Scale.MaxCloudApps > 0 && len(set) > l.Scale.MaxCloudApps {
		set = set[:l.Scale.MaxCloudApps]
	}
	return set
}

// cloudThreads is the per-server thread count of latency applications: one
// per core (half load).
func (l *Lab) cloudThreads() int { return l.SNB.Cores }
