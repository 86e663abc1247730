package main

import (
	"errors"
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
