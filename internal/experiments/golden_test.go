package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/cluster"
)

var update = flag.Bool("update", false, "rewrite the experiment-render golden fixtures")

// checkGolden compares a rendered experiment report against its fixture
// under testdata/, rewriting the fixture with -update. The renders are the
// human-facing output of cmd/paperfigs-style runs, so drift (column order,
// number formatting, added rows) must be a deliberate, reviewed change.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	if got != string(want) {
		t.Errorf("%s render drifted from golden:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// checkGoldenJSON compares a driver's full result, marshalled as indented
// JSON, against testdata/testscale_<name>.json, rewriting it with -update.
// encoding/json prints every float64 in its shortest round-tripping form,
// so equal bytes mean bit-identical numbers: these fixtures pin the
// simulated pipelines behind the figures at TestScale, not their renders.
func checkGoldenJSON(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "testscale_"+name+".json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	if !bytes.Equal(got, want) {
		g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		i := 0
		for i < len(g) && i < len(w) && bytes.Equal(g[i], w[i]) {
			i++
		}
		line := func(ls [][]byte) string {
			if i < len(ls) {
				return string(ls[i])
			}
			return "<EOF>"
		}
		t.Errorf("%s result drifted from %s at line %d:\n got: %s\nwant: %s", name, golden, i+1, line(g), line(w))
	}
}

// scaleOutJSON re-keys a scale-out study's Cells by the target's shortest
// decimal form, since encoding/json cannot marshal float64 map keys.
func scaleOutJSON(r ScaleOutResult) any {
	cells := make(map[string]map[cluster.PolicyKind]cluster.Result, len(r.Cells))
	for target, byPolicy := range r.Cells {
		cells[strconv.FormatFloat(target, 'g', -1, 64)] = byPolicy
	}
	return struct {
		QoS     cluster.QoSKind
		Targets []float64
		Cells   map[string]map[cluster.PolicyKind]cluster.Result
	}{r.QoS, r.Targets, cells}
}

// The synthetic results below are hand-built rather than simulated so the
// golden tests pin the rendering layer alone and stay fast; the numeric
// pipelines behind them are covered by the lab and smoke tests.

func TestTable1Golden(t *testing.T) {
	checkGolden(t, "table1", NewLab(TestScale()).Table1().String())
}

func TestAblationGolden(t *testing.T) {
	r := AblationResult{
		MeasuredMean: 0.153,
		Rows: []AblationRow{
			{Model: "SMiTe (Eq.3, NNLS)", TestErr: 0.041, TrainErr: 0.027},
			{Model: "SMiTe (unconstrained LS)", TestErr: 0.058, TrainErr: 0.024},
			{Model: "PMU linear (Eq.9)", TestErr: 0.112, TrainErr: 0.083},
			{Model: "Bubble-Up single metric", TestErr: 0.164, TrainErr: 0.151},
		},
	}
	checkGolden(t, "ablation", r.String())
}

func TestCrossMachineGolden(t *testing.T) {
	r := CrossMachineResult{NativeErr: 0.045, TransferErr: 0.063, RetrainedErr: 0.049}
	checkGolden(t, "crossmachine", r.String())
}

func TestFig13Golden(t *testing.T) {
	r := Fig13Result{
		Rows: []Fig13Row{
			{
				App: "web-search", CalMu: 812, CalLambda: 640, MeanAbsRelErr: 0.0461,
				Cells: []Fig13Cell{
					{Batch: "429.mcf", Instances: 2, ActualDeg: 0.21, PredDeg: 0.19, MeasuredP90: 0.0042, PredP90: 0.0040},
				},
			},
			{App: "data-caching", CalMu: 1530, CalLambda: 1210, MeanAbsRelErr: 0.0617},
		},
	}
	checkGolden(t, "fig13", r.String())
}

func TestScaleOutGolden(t *testing.T) {
	checkGolden(t, "scaleout", syntheticScaleOut(cluster.QoSAvg).String())
}
