package surrogate

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/profile"
	"repro/internal/profstore"
	"repro/internal/rulers"
	"repro/internal/sim/isa"
	"repro/internal/workload"
)

func testConfig() isa.Config {
	cfg := isa.IvyBridge()
	cfg.Cores = 2
	return cfg
}

func testOptions() profile.Options {
	return profile.Options{
		PrewarmUops:   20_000,
		WarmupCycles:  4_000,
		MeasureCycles: 10_000,
		BaseSeed:      1,
		Parallelism:   2,
	}
}

func mustSpec(t testing.TB, name string) *workload.Spec {
	t.Helper()
	s, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCurveFitRepresentable pins the fitter on a function inside its own
// basis: residuals must vanish and At must reproduce the samples.
func TestCurveFitRepresentable(t *testing.T) {
	xs := []float64{0.25, 0.5, 0.75, 1.0}
	truth := func(x float64) float64 { return 0.3*x + 0.1*math.Sqrt(x) - 0.05*x*x }
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = truth(x)
	}
	c, err := fitCurve(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if c.MaxAbsErr > 1e-6 {
		t.Errorf("representable curve left MaxAbsErr %g, want ~0", c.MaxAbsErr)
	}
	for i, x := range xs {
		if d := math.Abs(c.At(x) - ys[i]); d > 1e-6 {
			t.Errorf("At(%g) = %g, want %g", x, c.At(x), ys[i])
		}
	}
	if c.MeanAbsErr > c.MaxAbsErr {
		t.Errorf("MeanAbsErr %g exceeds MaxAbsErr %g", c.MeanAbsErr, c.MaxAbsErr)
	}
}

// TestCurveAtClamps pins the domain clamp: zero below zero pressure,
// saturation above full intensity.
func TestCurveAtClamps(t *testing.T) {
	c := Curve{Coef: [3]float64{1, 1, 1}}
	if got := c.At(-0.5); got != 0 {
		t.Errorf("At(-0.5) = %g, want 0", got)
	}
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %g, want 0", got)
	}
	if got, want := c.At(2), c.At(1); got != want {
		t.Errorf("At(2) = %g, want saturation at At(1) = %g", got, want)
	}
}

// syntheticSet builds a two-app set with hand-picked curve values and
// residual bounds so bound propagation is checkable by hand.
func syntheticSet() *Set {
	mk := func(app string, sen, con, senErr, conErr float64) *Model {
		m := &Model{App: app, SoloIPC: 1}
		for d := range m.Sen {
			// Coef{x} alone: At(1) == Coef[0].
			m.Sen[d] = Curve{Coef: [3]float64{sen}, MaxAbsErr: senErr}
			m.Con[d] = Curve{Coef: [3]float64{con}, MaxAbsErr: conErr}
		}
		return m
	}
	return &Set{
		Machine: "synthetic",
		Models: map[string]*Model{
			"a": mk("a", 0.4, 0.2, 0.01, 0.02),
			"b": mk("b", 0.1, 0.5, 0.03, 0.04),
		},
	}
}

// TestPredictWithBound checks the hand-computable propagation: with every
// dimension identical, prediction and bound are NumDimensions times the
// per-dimension terms. At intensity x the aggressor's curves (Coef{con}
// alone, so At(x) == con·x) and the intercept scale by x; above 1, x
// clamps to full intensity, and at zero pressure the curves vanish.
func TestPredictWithBound(t *testing.T) {
	s := syntheticSet()
	var m model.Smite
	for d := range m.Coef {
		m.Coef[d] = 0.5
	}
	m.Intercept = 0.05

	nd := float64(rulers.NumDimensions)
	// Per dimension: |0.5|·(|sen|·Ec + Es·|con| + Es·Ec) with sen=0.4 of a,
	// con=0.5·x of b, Es=0.01 (a's sen), Ec=0.04 (b's con).
	for _, tc := range []struct {
		x, wantDeg, wantBound float64
	}{
		{1, 0.05 + nd*0.5*0.4*0.5, nd * 0.5 * (0.4*0.04 + 0.01*0.5 + 0.01*0.04)},
		{0.5, 0.025 + nd*0.5*0.4*0.25, nd * 0.5 * (0.4*0.04 + 0.01*0.25 + 0.01*0.04)},
		{2, 0.05 + nd*0.5*0.4*0.5, nd * 0.5 * (0.4*0.04 + 0.01*0.5 + 0.01*0.04)},
		{0, 0, nd * 0.5 * (0.4*0.04 + 0.01*0.04)},
	} {
		pred, err := s.PredictWith(m, "a", "b", tc.x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pred.Degradation-tc.wantDeg) > 1e-12 {
			t.Errorf("x=%g: Degradation = %g, want %g", tc.x, pred.Degradation, tc.wantDeg)
		}
		if math.Abs(pred.Bound-tc.wantBound) > 1e-12 {
			t.Errorf("x=%g: Bound = %g, want %g", tc.x, pred.Bound, tc.wantBound)
		}
	}
	pred, err := s.PredictWith(m, "a", "b", 1)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := s.PredictWith(m, "a", "nope", 1); err == nil {
		t.Error("PredictWith with unknown aggressor succeeded")
	}
	if _, err := s.Predict("a", "b"); err == nil {
		t.Error("Predict without an embedded Eq3 model succeeded")
	}
	s.Eq3 = &m
	if pred2, err := s.Predict("a", "b"); err != nil || pred2 != pred {
		t.Errorf("Predict = %+v, %v; want %+v", pred2, err, pred)
	}
}

// TestFitBoundContainment is the fit contract on real engine data: at the
// training grid's full-intensity point, the surrogate characterization may
// deviate from the engine's by at most the recorded per-curve bound.
func TestFitBoundContainment(t *testing.T) {
	if testing.Short() {
		t.Skip("engine fit sweep in short mode")
	}
	cfg := testConfig()
	opts := testOptions()
	specs := []*workload.Spec{mustSpec(t, "429.mcf"), mustSpec(t, "444.namd")}

	p := profile.NewProfiler(cfg, opts)
	set, err := Fit(context.Background(), p, specs, profile.SMT, FitOptions{Intensities: []float64{0.25, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := profile.NewProfiler(cfg, opts).CharacterizeAllContext(context.Background(), specs, profile.SMT)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-12
	for _, ch := range engine {
		m, err := set.Model(ch.App)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Characterization(); got.SoloIPC != ch.SoloIPC || got.SoloPMU != ch.SoloPMU {
			t.Errorf("%s: surrogate solo measurements diverged from engine", ch.App)
		}
		if want := profile.SweepGrid([]float64{0.25, 0.5}); !reflect.DeepEqual(m.Intensities, want) {
			t.Errorf("%s: training grid %v, want %v", ch.App, m.Intensities, want)
		}
		for d := range ch.Sen {
			if diff := math.Abs(m.Sen[d].At(1) - ch.Sen[d]); diff > m.Sen[d].MaxAbsErr+eps {
				t.Errorf("%s dim %d: |surrogate−engine| sensitivity %g exceeds recorded bound %g", ch.App, d, diff, m.Sen[d].MaxAbsErr)
			}
			if diff := math.Abs(m.Con[d].At(1) - ch.Con[d]); diff > m.Con[d].MaxAbsErr+eps {
				t.Errorf("%s dim %d: |surrogate−engine| contentiousness %g exceeds recorded bound %g", ch.App, d, diff, m.Con[d].MaxAbsErr)
			}
		}
	}
}

// TestFitRejectsTinyGrid pins the degrees-of-freedom guard.
func TestFitRejectsTinyGrid(t *testing.T) {
	p := profile.NewProfiler(testConfig(), testOptions())
	_, err := Fit(context.Background(), p, []*workload.Spec{mustSpec(t, "429.mcf")}, profile.SMT, FitOptions{Intensities: []float64{1.0}})
	if err == nil {
		t.Fatal("Fit with a 1-point grid succeeded; 3-coefficient curves need ≥3 points")
	}
}

// TestFitWithStoreWarmStart pins the store round trip: a cold fit misses
// and writes back; a second fit with a fresh profiler serves every model
// from disk and reproduces the set exactly.
func TestFitWithStoreWarmStart(t *testing.T) {
	if testing.Short() {
		t.Skip("engine fit sweep in short mode")
	}
	cfg := testConfig()
	opts := testOptions()
	specs := []*workload.Spec{mustSpec(t, "429.mcf"), mustSpec(t, "444.namd")}
	st, err := profstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fo := FitOptions{Intensities: []float64{0.25, 0.5}}

	cold, stats, err := FitWithStore(context.Background(), st, profile.NewProfiler(cfg, opts), specs, profile.SMT, fo)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != 0 || stats.Misses != len(specs) {
		t.Errorf("cold fit stats %+v, want 0 hits / %d misses", stats, len(specs))
	}

	warm, stats, err := FitWithStore(context.Background(), st, profile.NewProfiler(cfg, opts), specs, profile.SMT, fo)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != len(specs) || stats.Misses != 0 {
		t.Errorf("warm fit stats %+v, want %d hits / 0 misses", stats, len(specs))
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm-started set diverged from cold fit:\ncold: %+v\nwarm: %+v", cold, warm)
	}

	// A corrupt entry heals: truncate one model's file, refit, expect one miss.
	key := KeyFor(profile.NewProfiler(cfg, opts), specs[0], profile.SMT, fo)
	if err := truncateFile(st.Path(key)); err != nil {
		t.Fatal(err)
	}
	healed, stats, err := FitWithStore(context.Background(), st, profile.NewProfiler(cfg, opts), specs, profile.SMT, fo)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != 1 || stats.Misses != 1 {
		t.Errorf("healing fit stats %+v, want 1 hit / 1 miss", stats)
	}
	if !reflect.DeepEqual(cold, healed) {
		t.Error("healed set diverged from cold fit")
	}
	var m Model
	if err := st.Get(key, &m); err != nil {
		t.Errorf("healed entry still unreadable: %v", err)
	}
}

func truncateFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data[:len(data)/3], 0o644)
}

// TestKeyDiscriminates pins that every semantic fit input moves the
// content address, and the non-semantic Options fields do not.
func TestKeyDiscriminates(t *testing.T) {
	cfg := testConfig()
	opts := testOptions()
	spec := mustSpec(t, "429.mcf")
	base := KeyFor(profile.NewProfiler(cfg, opts), spec, profile.SMT, FitOptions{})

	if got := KeyFor(profile.NewProfiler(cfg, opts), spec, profile.SMT, FitOptions{}); got != base {
		t.Error("identical inputs produced different keys")
	}
	o2 := opts
	o2.Parallelism = 7
	o2.Progress = func(int, int) {}
	if got := KeyFor(profile.NewProfiler(cfg, o2), spec, profile.SMT, FitOptions{}); got != base {
		t.Error("non-semantic Options fields moved the key")
	}

	variants := map[string]func() bool{
		"placement": func() bool {
			return KeyFor(profile.NewProfiler(cfg, opts), spec, profile.CMP, FitOptions{}) != base
		},
		"grid": func() bool {
			return KeyFor(profile.NewProfiler(cfg, opts), spec, profile.SMT, FitOptions{Intensities: []float64{0.5}}) != base
		},
		"spec": func() bool {
			return KeyFor(profile.NewProfiler(cfg, opts), mustSpec(t, "470.lbm"), profile.SMT, FitOptions{}) != base
		},
		"measure window": func() bool {
			o := opts
			o.MeasureCycles++
			return KeyFor(profile.NewProfiler(cfg, o), spec, profile.SMT, FitOptions{}) != base
		},
		"machine": func() bool {
			c2 := isa.IvyBridge()
			c2.Cores = 4
			return KeyFor(profile.NewProfiler(c2, opts), spec, profile.SMT, FitOptions{}) != base
		},
	}
	for name, moved := range variants {
		if !moved() {
			t.Errorf("changing %s did not move the key", name)
		}
	}
}

// TestKeyForPinned pins one content address byte for byte: a profstore
// written by an earlier build stays warm only while the key format (the
// version tag, the part order, the ridge in its slot) is unchanged.
func TestKeyForPinned(t *testing.T) {
	const want = "c55e76e3c6faca9e0612b24ffdd48b5d0f2b42c70e7e808906ff5c3ce8c28ccb"
	k := KeyFor(profile.NewProfiler(testConfig(), testOptions()), mustSpec(t, "429.mcf"), profile.SMT, FitOptions{})
	if got := hex.EncodeToString(k[:]); got != want {
		t.Errorf("KeyFor = %s, want %s", got, want)
	}
}

// TestSetFileRoundTrip pins persistence: save, load, identical; plus the
// typed failure taxonomy.
func TestSetFileRoundTrip(t *testing.T) {
	s := syntheticSet()
	eq3 := model.Smite{Intercept: 0.01}
	eq3.Coef[0] = 0.9
	s.Eq3 = &eq3

	var buf bytes.Buffer
	if err := SaveSet(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSet(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Errorf("round trip mangled set:\n in: %+v\nout: %+v", s, got)
	}

	if _, err := LoadSet(strings.NewReader("{garbage")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("garbage: got %v, want ErrCorrupt", err)
	}
	if _, err := LoadSet(strings.NewReader(strings.Replace(buf.String(), `"version": 1`, `"version": 9`, 1))); !errors.Is(err, ErrVersionSkew) {
		t.Errorf("version skew: got %v, want ErrVersionSkew", err)
	}
	if _, err := LoadSet(strings.NewReader(strings.Replace(buf.String(), `"dimensions": 8`, `"dimensions": 7`, 1))); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("dimension skew: got %v, want ErrDimensionMismatch", err)
	}
	if _, err := LoadSet(strings.NewReader(`{"version":1,"dimensions":8}`)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("missing set: got %v, want ErrCorrupt", err)
	}

	path := t.TempDir() + "/set.json"
	if err := WriteSetFile(path, s); err != nil {
		t.Fatal(err)
	}
	got, err = ReadSetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Error("file round trip mangled set")
	}
}

// TestLoadSetRejectsUnservable: a set file that decodes but that the set
// cannot serve fails with ErrCorrupt. A null model once passed LoadSet
// and panicked Set.Predict with a nil dereference, and a negative bound
// would pass every accuracy threshold.
func TestLoadSetRejectsUnservable(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Set)
	}{
		{"null models", func(s *Set) { s.Models = map[string]*Model{"a": nil, "b": nil} }},
		{"app mismatch", func(s *Set) { s.Models["b"].App = "c" }},
		{"negative max_abs_err", func(s *Set) { s.Models["a"].Con[3].MaxAbsErr = -0.01 }},
		{"negative mean_abs_err", func(s *Set) { s.Models["b"].Sen[0].MeanAbsErr = -1e-3 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := syntheticSet()
			s.Eq3 = &model.Smite{Intercept: 0.01}
			tc.mut(s)
			var buf bytes.Buffer
			if err := SaveSet(&buf, s); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadSet(&buf); !errors.Is(err, ErrCorrupt) {
				t.Errorf("LoadSet = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestTrainEq3 fits four applications, trains the embedded Equation 3
// model against engine pair ground truth and checks the surrogate serves
// bounded predictions for every ordered pair.
func TestTrainEq3(t *testing.T) {
	if testing.Short() {
		t.Skip("trains on engine pair measurements; skipped in -short")
	}
	cfg := testConfig()
	opts := testOptions()
	specs := []*workload.Spec{
		mustSpec(t, "429.mcf"), mustSpec(t, "444.namd"),
		mustSpec(t, "470.lbm"), mustSpec(t, "462.libquantum"),
	}
	p := profile.NewProfiler(cfg, opts)
	set, err := Fit(context.Background(), p, specs, profile.SMT, FitOptions{Intensities: []float64{0.25, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if err := set.TrainEq3(context.Background(), p, specs); err != nil {
		t.Fatal(err)
	}
	if set.Eq3 == nil {
		t.Fatal("TrainEq3 left no embedded model")
	}
	for _, v := range specs {
		for _, a := range specs {
			if v.Name == a.Name {
				continue
			}
			pred, err := set.Predict(v.Name, a.Name)
			if err != nil {
				t.Fatalf("%s vs %s: %v", v.Name, a.Name, err)
			}
			if math.IsNaN(pred.Degradation) || math.IsNaN(pred.Bound) || pred.Bound < 0 {
				t.Errorf("%s vs %s: degenerate prediction %+v", v.Name, a.Name, pred)
			}
		}
	}
}
