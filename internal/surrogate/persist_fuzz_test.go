package surrogate

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/model"
)

// FuzzLoadSet feeds arbitrary bytes to LoadSet. It must never panic, it
// fails only with the typed load errors, and any set it accepts must
// predict every ordered pair of its models without panicking. Seeds live
// in testdata/fuzz/FuzzLoadSet.
func FuzzLoadSet(f *testing.F) {
	var unit model.Smite
	for d := range unit.Coef {
		unit.Coef[d] = 1
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := LoadSet(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersionSkew) && !errors.Is(err, ErrDimensionMismatch) {
				t.Fatalf("LoadSet = %v, want a typed load error", err)
			}
			return
		}
		m := unit
		if s.Eq3 != nil {
			m = *s.Eq3
		}
		for victim := range s.Models {
			for aggressor := range s.Models {
				for _, x := range []float64{0.5, 1} {
					p, err := s.PredictWith(m, victim, aggressor, x)
					if err != nil {
						t.Fatalf("accepted set cannot predict (%q, %q): %v", victim, aggressor, err)
					}
					if p.Bound < 0 {
						t.Fatalf("accepted set gives (%q, %q) a negative bound %g", victim, aggressor, p.Bound)
					}
				}
			}
		}
	})
}
