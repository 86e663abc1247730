package profile

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim/isa"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the characterization golden fixture")

// goldenCharacterize is one placement's worth of characterization output
// through every public entry point.
type goldenCharacterize struct {
	Placement Placement
	// All is CharacterizeAllContext over the three specs; Single the
	// per-spec CharacterizeContext results; Job CharacterizeJobContext on
	// an explicit two-thread web-search arrangement.
	All    []Characterization
	Single []Characterization
	Job    Characterization
	// SenN[n-1] is web-search's partial-occupancy sensitivity Sen(n) with
	// n Ruler instances against its two threads.
	SenN []Characterization
	// Sweep is CharacterizeSweepContext at intensities {0.25, 0.5} (plus
	// the implicit 1.0 column).
	Sweep []SweepResult
}

// TestGoldenCharacterize pins the bits of every characterization entry
// point — batch, single-spec, explicit job, partial occupancy and the
// intensity sweep — under SMT and CMP on a 4-core Sandy Bridge-EN. Any
// change to how Ruler cells are scheduled must leave testdata/
// golden_characterize.json byte-identical; regenerate it with -update only
// for a deliberate change to the measurements themselves.
func TestGoldenCharacterize(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization runs in short mode")
	}
	cfg := isa.SandyBridgeEN()
	cfg.Cores = 4
	specs := []*workload.Spec{mustByName(t, "429.mcf"), mustByName(t, "444.namd"), mustByName(t, "web-search")}
	web := AppThreads(specs[2], 2)
	ctx := context.Background()

	var got []goldenCharacterize
	for _, pl := range []Placement{SMT, CMP} {
		p := NewProfiler(cfg, batchOptions())
		g := goldenCharacterize{Placement: pl}
		var err error
		if g.All, err = p.CharacterizeAllContext(ctx, specs, pl); err != nil {
			t.Fatal(err)
		}
		for _, s := range specs {
			ch, err := p.CharacterizeContext(ctx, s, pl)
			if err != nil {
				t.Fatal(err)
			}
			g.Single = append(g.Single, ch)
		}
		if g.Job, err = p.CharacterizeJobContext(ctx, web, pl); err != nil {
			t.Fatal(err)
		}
		occ, err := p.CharacterizeOccupancyContext(ctx, []Job{web}, pl, 2)
		if err != nil {
			t.Fatal(err)
		}
		g.SenN = occ[0]
		if g.Sweep, err = p.CharacterizeSweepContext(ctx, []Job{p.JobFor(specs[0], pl), web}, pl, []float64{0.25, 0.5}); err != nil {
			t.Fatal(err)
		}
		got = append(got, g)
	}

	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, '\n')
	golden := filepath.Join("testdata", "golden_characterize.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	if !bytes.Equal(b, want) {
		t.Errorf("characterizations drifted from %s", golden)
	}
}
