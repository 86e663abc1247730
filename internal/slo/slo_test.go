package slo

import "testing"

// FuzzParseSLOClasses drives the -slo-config / -slo-classes grammar with
// arbitrary specs: the parser must never panic, and every class set it
// accepts must pass Validate, so no flag value can reach an admission gate
// that rejects everything (a NaN percentile once did). Edge-case seeds,
// the NaN and ±Inf percentiles among them, live in testdata/fuzz.
func FuzzParseSLOClasses(f *testing.F) {
	for _, spec := range []string{
		"critical:20ms:0.95,standard:60ms:0.95,sheddable:150ms:0.90",
		"gold: 1500ms ",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		classes, err := ParseSLOClasses(spec)
		if err != nil {
			return
		}
		if err := Validate(classes, 0); err != nil {
			t.Fatalf("ParseSLOClasses(%q) accepted %+v, which Validate rejects: %v", spec, classes, err)
		}
	})
}
