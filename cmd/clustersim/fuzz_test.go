package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"math"
	"testing"

	"repro/internal/isol"
)

// flagErrorOn fails t unless err is a *FlagError naming flag.
func flagErrorOn(t *testing.T, flag, spec string, err error) {
	t.Helper()
	var fe *FlagError
	if !errors.As(err, &fe) || fe.Flag != flag {
		t.Fatalf("%q: error %v is not a *FlagError naming -%s", spec, err, flag)
	}
}

// FuzzParseMachineMix: the -machine-mix grammar never panics, rejects
// with a *FlagError naming the flag, and accepts only generations with
// positive weights and at least one idle context per machine.
func FuzzParseMachineMix(f *testing.F) {
	for _, spec := range []string{"snb=3,ivb=2", " power7 = 1 ", "snb=0", "snb=1,snb=2"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		mix, err := parseMachineMix(spec)
		if err != nil {
			flagErrorOn(t, "machine-mix", spec, err)
			return
		}
		if len(mix) == 0 {
			t.Fatalf("%q: accepted an empty mix", spec)
		}
		for _, g := range mix {
			if g.count <= 0 || g.contexts <= g.threads {
				t.Fatalf("%q: accepted generation %+v", spec, g)
			}
		}
	})
}

// FuzzParseIsolLadder: the -isol grammar never panics, rejects with a
// *FlagError naming the flag, and every ladder it accepts passes the
// shared ladder validation; only the empty spec selects the stock ladder.
func FuzzParseIsolLadder(f *testing.F) {
	for _, spec := range []string{"", "part:0.6:0.05,clamp:0.3:0.2", "x:NaN:0", "x:0.5:-1"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		levels, err := parseIsolLadder(spec)
		if err != nil {
			flagErrorOn(t, "isol", spec, err)
			return
		}
		if levels == nil {
			if spec != "" {
				t.Fatalf("%q: accepted without a ladder", spec)
			}
			return
		}
		if err := isol.ValidateSettings(levels); err != nil {
			t.Fatalf("%q: accepted %+v, which ValidateSettings rejects: %v", spec, levels, err)
		}
	})
}

// FuzzSimFlags: whatever the float flags, -alloc, -machine-mix and
// -policy say, the sim flags resolve either to a *FlagError or to a
// config that passes SimConfig.Validate with every float finite. Values
// the flag package cannot parse as numbers never reach the config and
// are skipped. The target stops before GenerateEvents and RunSim.
func FuzzSimFlags(f *testing.F) {
	f.Add("1", "0", "0.02", "0.92", "0", "0", "1000", "600", "", "", "smite")
	f.Add("NaN", "Inf", "-0", "1", "0.5", "3", "1e3", "999", "spread", "snb=3,ivb=2", "slo")
	f.Add("0.5", "1e5", "0.1", "0.9", "NaN", "2", "Inf", "NaN", "mindeg", "snb=1", "closedloop")
	f.Fuzz(func(t *testing.T, duration, arrival, churn, target, driftAt, driftFactor, mu, lambda, alloc, mix, policy string) {
		fs := flag.NewFlagSet("clustersim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		sim := bindSimFlags(fs)
		if err := fs.Parse([]string{
			"-machines=20", "-parallelism=1", "-duration=" + duration, "-arrival=" + arrival, "-churn=" + churn,
			"-target=" + target, "-drift-at=" + driftAt, "-drift-factor=" + driftFactor,
			"-slo-mu=" + mu, "-slo-lambda=" + lambda, "-alloc=" + alloc, "-machine-mix=" + mix, "-policy=" + policy,
		}); err != nil {
			return
		}
		cfg, err := sim.config(context.Background(), "avg")
		if err != nil {
			var fe *FlagError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v is not a *FlagError", err)
			}
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("resolved config fails Validate: %v", err)
		}
		w := cfg.Workload
		floats := []float64{w.Horizon, w.ArrivalRate, w.MeanDuration, w.Diurnal, w.BurstProb,
			w.BurstFactor, w.Drift, w.Churn, cfg.Target}
		if d := cfg.Drift; d != nil {
			floats = append(floats, d.At, d.Factor)
		}
		if p := cfg.SLO; p != nil {
			floats = append(floats, p.Headroom)
			for _, cl := range p.Classes {
				floats = append(floats, cl.Budget, cl.Percentile, cl.Mu, cl.Lambda)
			}
		}
		for _, x := range floats {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("accepted a non-finite value in %+v", cfg)
			}
		}
	})
}
