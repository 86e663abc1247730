package profile

import (
	"context"
	"testing"

	"repro/internal/rulers"
	"repro/internal/sim/isa"
	"repro/internal/workload"
)

func testConfig() isa.Config {
	cfg := isa.IvyBridge()
	cfg.Cores = 2
	return cfg
}

func TestCharacterizeProducesDecoupledProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization run in short mode")
	}
	p := NewProfiler(testConfig(), FastOptions())

	namd, err := workload.ByName("444.namd")
	if err != nil {
		t.Fatal(err)
	}
	mcf, err := workload.ByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}

	chNamd, err := p.CharacterizeContext(context.Background(), namd, SMT)
	if err != nil {
		t.Fatal(err)
	}
	chMcf, err := p.CharacterizeContext(context.Background(), mcf, SMT)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("namd solo=%.3f Sen=%v", chNamd.SoloIPC, chNamd.Sen)
	t.Logf("namd Con=%v", chNamd.Con)
	t.Logf("mcf  solo=%.3f Sen=%v", chMcf.SoloIPC, chMcf.Sen)
	t.Logf("mcf  Con=%v", chMcf.Con)

	// namd is far more port-1 sensitive than mcf (paper Finding 2).
	if chNamd.Sen[rulers.DimFPAdd] < chMcf.Sen[rulers.DimFPAdd]+0.10 {
		t.Errorf("namd FP_ADD sensitivity %.3f should dominate mcf's %.3f", chNamd.Sen[rulers.DimFPAdd], chMcf.Sen[rulers.DimFPAdd])
	}
	// mcf is more sensitive to L3 pressure than namd.
	if chMcf.Sen[rulers.DimL3] < chNamd.Sen[rulers.DimL3] {
		t.Errorf("mcf L3 sensitivity %.3f should dominate namd's %.3f", chMcf.Sen[rulers.DimL3], chNamd.Sen[rulers.DimL3])
	}
	if chMcf.Sen[rulers.DimL3] < 0.05 {
		t.Errorf("mcf L3 sensitivity %.3f too small; cache interference not emerging", chMcf.Sen[rulers.DimL3])
	}
	// Sensitivities are degradations: within (-0.1, 1).
	for _, ch := range []Characterization{chNamd, chMcf} {
		for d, s := range ch.Sen {
			if s < -0.1 || s > 1 {
				t.Errorf("%s Sen[%v] = %.3f out of range", ch.App, rulers.Dimension(d), s)
			}
		}
	}
}

func TestMeasurePairSymmetricAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("pair measurement in short mode")
	}
	p := NewProfiler(testConfig(), FastOptions())
	a, _ := workload.ByName("456.hmmer")
	b, _ := workload.ByName("470.lbm")
	pm, err := p.MeasurePairContext(context.Background(), a, b, SMT)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("hmmer vs lbm: degA=%.3f degB=%.3f", pm.DegA, pm.DegB)
	if pm.DegA < -0.05 || pm.DegA > 1 || pm.DegB < -0.05 || pm.DegB > 1 {
		t.Errorf("degradations out of range: %+v", pm)
	}
	cmp, err := p.MeasurePairContext(context.Background(), a, b, CMP)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("hmmer vs lbm CMP: degA=%.3f degB=%.3f", cmp.DegA, cmp.DegB)
	// CMP shares only uncore: on-core-bound hmmer must degrade less.
	if cmp.DegA > pm.DegA+0.02 {
		t.Errorf("hmmer degrades more under CMP (%.3f) than SMT (%.3f)", cmp.DegA, pm.DegA)
	}
}
