package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestStockConfigsValid(t *testing.T) {
	for _, cfg := range []Config{SandyBridgeEN(), IvyBridge()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s invalid: %v", cfg.Name, err)
		}
	}
}

func TestTable1Shapes(t *testing.T) {
	snb := SandyBridgeEN()
	if snb.Cores != 6 || snb.Contexts() != 12 {
		t.Errorf("SNB-EN: %d cores / %d contexts, want 6/12", snb.Cores, snb.Contexts())
	}
	if snb.FrequencyGHz != 1.9 {
		t.Errorf("SNB-EN frequency %g", snb.FrequencyGHz)
	}
	ivb := IvyBridge()
	if ivb.Cores != 4 || ivb.Contexts() != 8 {
		t.Errorf("IVB: %d cores / %d contexts, want 4/8", ivb.Cores, ivb.Contexts())
	}
	if ivb.L3.SizeBytes != 8<<20 {
		t.Errorf("IVB L3 = %d", ivb.L3.SizeBytes)
	}
}

// TestFigure1PortMap pins the paper's port-specific operation mapping.
func TestFigure1PortMap(t *testing.T) {
	cfg := IvyBridge()
	cases := []struct {
		kind UopKind
		want PortMask
	}{
		{FPMul, Mask(0)},
		{FPAdd, Mask(1)},
		{FPShuf, Mask(5)},
		{IntAdd, Mask(0, 1, 5)},
		{Load, Mask(2, 3)},
		{Store, Mask(4)},
		{Branch, Mask(5)},
	}
	for _, c := range cases {
		if got := cfg.PortMap[c.kind]; got != c.want {
			t.Errorf("%v ports = %v, want %v", c.kind, got, c.want)
		}
	}
}

func TestPortMaskOps(t *testing.T) {
	m := Mask(0, 1, 5)
	for _, p := range []Port{0, 1, 5} {
		if !m.Has(p) {
			t.Errorf("mask missing port %d", p)
		}
	}
	for _, p := range []Port{2, 3, 4} {
		if m.Has(p) {
			t.Errorf("mask contains port %d", p)
		}
	}
	if got := m.String(); got != "{0,1,5}" {
		t.Errorf("String = %q", got)
	}
	if ports := m.Ports(); len(ports) != 3 || ports[0] != 0 || ports[2] != 5 {
		t.Errorf("Ports = %v", ports)
	}
}

// Property: Mask/Ports round-trip.
func TestMaskRoundTrip(t *testing.T) {
	if err := quick.Check(func(bits uint8) bool {
		m := PortMask(bits & 0x3F)
		return Mask(m.Ports()...) == m
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestKindStrings(t *testing.T) {
	if FPMul.String() != "FP_MUL" || Branch.String() != "BRANCH" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(UopKind(200).String(), "200") {
		t.Error("unknown kind string")
	}
	if !Load.IsMem() || !Store.IsMem() || FPAdd.IsMem() {
		t.Error("IsMem wrong")
	}
}

func TestCacheParamsSets(t *testing.T) {
	p := CacheParams{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64}
	if p.Sets() != 64 {
		t.Errorf("sets = %d, want 64", p.Sets())
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		f    func(*Config)
	}{
		{"no cores", func(c *Config) { c.Cores = 0 }},
		{"9 contexts", func(c *Config) { c.ContextsPerCore = MaxContextsPerCore + 1 }},
		{"rob not pow2", func(c *Config) { c.ROBSize = 100 }},
		{"scan depth", func(c *Config) { c.IssueScanDepth = 0 }},
		{"scan > rob", func(c *Config) { c.IssueScanDepth = c.ROBSize + 1 }},
		{"no mshrs", func(c *Config) { c.MSHRsPerContext = 0 }},
		{"bad l1 sets", func(c *Config) { c.L1D.SizeBytes = 3000 }},
		// Chip.Prewarm fills footprint lines one L3 line apart without a
		// lookup; a wider inner line would be filled twice.
		{"l2 line wider than l3", func(c *Config) { c.L2.LineBytes = 128 }},
		{"zero mem interval", func(c *Config) { c.MemServiceInterval = 0 }},
		{"bad page", func(c *Config) { c.PageBytes = 3000 }},
		{"bad predictor", func(c *Config) { c.BranchPredictorEntries = 100 }},
		{"portless kind", func(c *Config) { c.PortMap[FPMul] = 0 }},
	}
	for _, m := range mutations {
		cfg := IvyBridge()
		m.f(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

func TestPower7LikeValid(t *testing.T) {
	cfg := Power7Like()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// The defining property: FP multiply and add share symmetric pipes, so
	// the Sandy Bridge FP_MUL/FP_ADD Ruler distinction collapses.
	if cfg.PortMap[FPMul] != cfg.PortMap[FPAdd] {
		t.Error("POWER7-like FPUs should be symmetric")
	}
	if cfg.PortMap[FPMul] == IvyBridge().PortMap[FPMul] {
		t.Error("POWER7-like port map should differ from Sandy Bridge's")
	}
}

// No cache level may have a line wider than the L3's, at the chip level or
// in a core class; equal lines (every stock part) and narrower ones pass.
func TestValidateInnerLineWidth(t *testing.T) {
	cases := []struct {
		name string
		f    func(*Config)
		ok   bool
	}{
		{"stock", func(c *Config) {}, true},
		{"narrower l1", func(c *Config) { c.L1D.LineBytes = 32 }, true},
		{"wider l1", func(c *Config) { c.L1D.LineBytes = 128 }, false},
		{"wider class l1", func(c *Config) { c.Classes[1].L1D.LineBytes = 128 }, false},
		{"wider class l2", func(c *Config) { c.Classes[0].L2.LineBytes = 128 }, false},
	}
	for _, tc := range cases {
		cfg := BigLittle()
		tc.f(&cfg)
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
