package smite

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"
)

func testSystem(t *testing.T) *System {
	t.Helper()
	cfg := IvyBridge.Config()
	cfg.Cores = 2
	sys, err := New(cfg, WithOptions(FastOptions()))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestWorkloadRegistry(t *testing.T) {
	if len(SPECWorkloads()) != 29 || len(CloudWorkloads()) != 4 {
		t.Error("registry sizes wrong")
	}
	if _, err := WorkloadByName("470.lbm"); err != nil {
		t.Error(err)
	}
	train, test := TrainTestSplit()
	if len(train)+len(test) != 29 {
		t.Error("split does not cover SPEC")
	}
}

func TestMachineConfigs(t *testing.T) {
	if IvyBridge.Config().Cores != 4 || SandyBridgeEN.Config().Cores != 6 {
		t.Error("stock core counts wrong")
	}
	if len(StandardRulers(IvyBridge.Config())) != int(NumDimensions) {
		t.Error("ruler suite size wrong")
	}
	bad := IvyBridge.Config()
	bad.Cores = 0
	if _, err := New(bad, WithOptions(FastOptions())); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestEndToEndSession(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in short mode")
	}
	sys := testSystem(t)
	ctx := context.Background()
	namd, err := WorkloadByName("444.namd")
	if err != nil {
		t.Fatal(err)
	}
	lbm, err := WorkloadByName("470.lbm")
	if err != nil {
		t.Fatal(err)
	}

	ipc, err := sys.SoloIPCContext(ctx, namd)
	if err != nil {
		t.Fatal(err)
	}
	if ipc <= 0 || ipc > 4 {
		t.Errorf("namd solo IPC = %g", ipc)
	}

	ch, err := sys.CharacterizeContext(ctx, namd, SMT)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Sen[DimFPAdd] < 0.1 {
		t.Errorf("namd FP_ADD sensitivity = %g, want substantial", ch.Sen[DimFPAdd])
	}

	// Train on a small set and sanity-check a prediction against ground
	// truth.
	train, _ := TrainTestSplit()
	m, chars, err := sys.TrainFromSetsContext(ctx, train[:8], SMT)
	if err != nil {
		t.Fatal(err)
	}
	if len(chars) != 8 {
		t.Errorf("got %d characterizations", len(chars))
	}
	coef, _ := m.Coefficients()
	for d, c := range coef {
		if c < 0 {
			t.Errorf("coefficient %d negative: %g", d, c)
		}
	}

	chLbm, err := sys.CharacterizeContext(ctx, lbm, SMT)
	if err != nil {
		t.Fatal(err)
	}
	pred := m.PredictPair(ch, chLbm)
	pm, err := sys.MeasurePairContext(ctx, namd, lbm, SMT)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred-pm.DegA) > 0.25 {
		t.Errorf("prediction %.3f far from measured %.3f", pred, pm.DegA)
	}

	// SafeColocation consistency with PredictPair.
	if m.SafeColocation(ch, chLbm, 1-pred+0.01) {
		t.Error("SafeColocation accepted an unsafe target")
	}
	if !m.SafeColocation(ch, chLbm, 1-pred-0.01) {
		t.Error("SafeColocation rejected a safe target")
	}
}

func TestPredictTailLatency(t *testing.T) {
	base, err := PredictTailLatency(0.9, 1000, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := -math.Log(0.1) / 500
	if math.Abs(base-want) > 1e-12 {
		t.Errorf("baseline tail = %g, want %g", base, want)
	}
	degraded, err := PredictTailLatency(0.9, 1000, 500, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if degraded <= base {
		t.Error("degradation did not inflate the tail")
	}
	if _, err := PredictTailLatency(1.5, 1000, 500, 0); err == nil {
		t.Error("bad percentile accepted")
	}
	if !math.IsInf(mustTail(t, 0.9, 1000, 500, 0.6), 1) {
		t.Error("saturation should be infinite")
	}
}

func mustTail(t *testing.T, p, mu, lambda, deg float64) float64 {
	t.Helper()
	v, err := PredictTailLatency(p, mu, lambda, deg)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestTraceCharacterization(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in short mode")
	}
	sys := testSystem(t)
	ctx := context.Background()
	spec, err := WorkloadByName("454.calculix")
	if err != nil {
		t.Fatal(err)
	}
	uops := CaptureTrace(spec, 200_000, 42)
	job := TraceJob("calculix-trace", uops, 1, spec.FootprintBytes)
	chTrace, err := sys.CharacterizeJobContext(ctx, job, SMT)
	if err != nil {
		t.Fatal(err)
	}
	chGen, err := sys.CharacterizeContext(ctx, spec, SMT)
	if err != nil {
		t.Fatal(err)
	}
	// The replayed trace must carry the generator's contention character.
	if d := chTrace.Sen[DimFPMul] - chGen.Sen[DimFPMul]; d > 0.1 || d < -0.1 {
		t.Errorf("trace FP_MUL sensitivity %.3f far from generator's %.3f", chTrace.Sen[DimFPMul], chGen.Sen[DimFPMul])
	}
}

func TestTraceRoundTripPublicAPI(t *testing.T) {
	spec, err := WorkloadByName("445.gobmk")
	if err != nil {
		t.Fatal(err)
	}
	uops := CaptureTrace(spec, 1000, 7)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, uops); err != nil {
		t.Fatal(err)
	}
	// A trailing byte that is no uop kind is a public ErrCorrupt.
	if _, err := ReadTrace(bytes.NewReader(append(bytes.Clone(buf.Bytes()), 0xff))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("ReadTrace(trailing invalid kind) = %v, want ErrCorrupt", err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(uops) {
		t.Fatalf("round trip lost uops: %d vs %d", len(got), len(uops))
	}
	for i := range uops {
		if got[i] != uops[i] {
			t.Fatal("round trip changed a uop")
		}
	}
}
