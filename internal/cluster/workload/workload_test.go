package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func baseConfig() Config {
	return Config{
		Machines: 100, Horizon: 10, Lats: 3, Batches: 4, Seed: 42,
		ArrivalRate: 200, MeanDuration: 0.5,
	}
}

// TestEventLayout pins the event record: 24 bytes and no pointers, so a
// stream costs 24 B per event and the garbage collector never scans it.
func TestEventLayout(t *testing.T) {
	typ := reflect.TypeOf(Event{})
	if typ.Size() != 24 {
		t.Errorf("Event is %d bytes, want 24", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Float64, reflect.Uint32, reflect.Int16, reflect.Uint8:
		default:
			t.Errorf("field %s is a %s; an event must hold no pointers", f.Name, f.Type.Kind())
		}
	}
}

// TestEventAccessors: each kind reads its own fields from the shared
// slots, and the other kinds' accessors read zero.
func TestEventAccessors(t *testing.T) {
	up := Event{Kind: KindMachineUp, App: 2}
	down := Event{Kind: KindMachineDown, Param: 0.25}
	job := Event{Kind: KindJobArrive, App: 3, Param: 1.5}
	for _, tc := range []struct {
		ev             Event
		lat, batch     int
		duration, rank float64
	}{
		{up, 2, 0, 0, 0},
		{down, 0, 0, 0, 0.25},
		{job, 0, 3, 1.5, 0},
	} {
		if tc.ev.Lat() != tc.lat || tc.ev.Batch() != tc.batch || tc.ev.Duration() != tc.duration || tc.ev.Rank() != tc.rank {
			t.Errorf("%v: lat %d batch %d duration %g rank %g, want %d %d %g %g", tc.ev.Kind,
				tc.ev.Lat(), tc.ev.Batch(), tc.ev.Duration(), tc.ev.Rank(), tc.lat, tc.batch, tc.duration, tc.rank)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := baseConfig()
	cfg.Diurnal = 0.5
	cfg.BurstProb, cfg.BurstFactor = 0.2, 3
	cfg.Drift = 0.3
	cfg.Churn = 0.05
	for shard := 0; shard < 4; shard++ {
		a, err := Generate(cfg, shard, 4)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(cfg, shard, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("shard %d: two generations differ", shard)
		}
		if len(a) == 0 {
			t.Fatalf("shard %d: empty stream", shard)
		}
	}
	// Different shards must not replay each other's stream.
	s0, _ := Generate(cfg, 0, 4)
	s1, _ := Generate(cfg, 1, 4)
	if len(s0) == len(s1) && reflect.DeepEqual(s0, s1) {
		t.Fatal("shards 0 and 1 generated identical streams")
	}
}

func TestGenerateOrderedAndValid(t *testing.T) {
	cfg := baseConfig()
	cfg.Churn = 0.1
	ev, err := Generate(cfg, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[Kind]int{}
	for i, e := range ev {
		if e.At < 0 || e.At >= cfg.Horizon {
			t.Fatalf("event %d at %g outside [0, %g)", i, e.At, cfg.Horizon)
		}
		if e.Seq != uint32(i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if i > 0 && ev[i-1].At > e.At {
			t.Fatalf("events out of order at %d: %g after %g", i, e.At, ev[i-1].At)
		}
		kinds[e.Kind]++
		switch e.Kind {
		case KindJobArrive:
			if e.Batch() < 0 || e.Batch() >= cfg.Batches || e.Duration() <= 0 {
				t.Fatalf("bad job arrival %+v", e)
			}
		case KindMachineUp:
			if e.Lat() < 0 || e.Lat() >= cfg.Lats {
				t.Fatalf("bad machine-up %+v", e)
			}
		case KindMachineDown:
			if e.Rank() < 0 || e.Rank() >= 1 {
				t.Fatalf("bad machine-down %+v", e)
			}
		}
	}
	for _, k := range []Kind{KindJobArrive, KindMachineUp, KindMachineDown} {
		if kinds[k] == 0 {
			t.Errorf("no %v events generated", k)
		}
	}
}

// TestDiurnalShapesRate checks the temporal modulation does what it says:
// with a full-amplitude-ish sinusoid over one period, the quarter of the
// horizon around the crest must see more arrivals than the trough quarter.
func TestDiurnalShapesRate(t *testing.T) {
	cfg := baseConfig()
	cfg.ArrivalRate = 2000
	cfg.Diurnal = 0.8
	ev, err := Generate(cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	crest, trough := 0, 0 // sin peaks at H/4, bottoms at 3H/4
	for _, e := range ev {
		if e.Kind != KindJobArrive {
			continue
		}
		switch {
		case e.At >= cfg.Horizon/8 && e.At < 3*cfg.Horizon/8:
			crest++
		case e.At >= 5*cfg.Horizon/8 && e.At < 7*cfg.Horizon/8:
			trough++
		}
	}
	if crest <= trough {
		t.Fatalf("diurnal modulation invisible: crest %d <= trough %d arrivals", crest, trough)
	}
}

// TestMixDrift checks per-window drift actually moves the batch mix: with
// a strong drift the first and last window populations should differ more
// than the uniform-mix sampling noise.
func TestMixDrift(t *testing.T) {
	cfg := baseConfig()
	cfg.ArrivalRate = 5000
	cfg.Horizon = 20
	cfg.Drift = 1.5
	ev, err := Generate(cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	window := cfg.Horizon / windows
	first := make([]float64, cfg.Batches)
	last := make([]float64, cfg.Batches)
	var nf, nl float64
	for _, e := range ev {
		switch {
		case e.Kind != KindJobArrive:
		case e.At < window:
			first[e.Batch()]++
			nf++
		case e.At >= cfg.Horizon-window:
			last[e.Batch()]++
			nl++
		}
	}
	var dist float64
	for b := range first {
		dist += math.Abs(first[b]/nf - last[b]/nl)
	}
	if dist < 0.1 {
		t.Fatalf("mix drift invisible: total-variation distance %g between windows", dist)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		frag string
	}{
		{"machines", func(c *Config) { c.Machines = -1 }, "machines"},
		// Horizon = 0 must stay rejected even for otherwise-degenerate
		// worlds: the window length derives from it, and a zero horizon
		// turns the per-window rates into NaNs.
		{"horizon", func(c *Config) { c.Horizon = 0 }, "horizon"},
		{"apps", func(c *Config) { c.Batches = 0 }, "batches"},
		{"arrival", func(c *Config) { c.ArrivalRate = -1 }, "arrival_rate"},
		{"duration", func(c *Config) { c.MeanDuration = 0 }, "mean_duration"},
		{"diurnal", func(c *Config) { c.Diurnal = 1 }, "diurnal"},
		{"burst", func(c *Config) { c.BurstProb = 0.5 }, "burst_factor"},
		{"drift", func(c *Config) { c.Drift = -0.1 }, "drift"},
		{"churn", func(c *Config) { c.Churn = -1 }, "churn"},
		// The cap bounds the run's expected size: 1e9 time units of the
		// CLI's default 30 jobs per machine on 20 machines.
		{"size", func(c *Config) { c.Machines, c.Horizon, c.ArrivalRate, c.Churn = 20, 1e9, 600, 0.02 }, "horizon"},
		{"size overflow", func(c *Config) { c.Horizon = math.MaxFloat64 }, "horizon"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig()
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("Validate() = %v, want mention of %q", err, tc.frag)
			}
		})
	}
	// A world that only just fits the cap is accepted: every knob at its
	// peak, the expected size exactly MaxExpectedEvents.
	peak := baseConfig()
	peak.Machines, peak.Churn, peak.Diurnal, peak.BurstProb, peak.BurstFactor = 0, 0, 0.5, 0.1, 2
	peak.ArrivalRate = MaxExpectedEvents / (peak.Horizon * 1.5 * 2)
	if err := peak.Validate(); err != nil {
		t.Fatalf("config at the cap rejected: %v", err)
	}
	peak.ArrivalRate *= 1.01
	if err := peak.Validate(); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Fatalf("config 1%% over the cap: Validate() = %v, want a horizon error", err)
	}
	if _, err := Generate(baseConfig(), 2, 2); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

// TestDegenerateWorlds pins that zero-machine and zero-arrival configs
// are legal and generate the streams they imply: no arrivals at rate 0,
// no churn with no machines. The simulator round-trips these to empty
// placement logs (see cluster's trace tests).
func TestDegenerateWorlds(t *testing.T) {
	empty := baseConfig()
	empty.Machines = 0
	empty.ArrivalRate = 0
	empty.MeanDuration = 0 // only required when arrivals are enabled
	empty.Churn = 0.5      // churn scales with the (zero) fleet size
	if err := empty.Validate(); err != nil {
		t.Fatalf("degenerate config rejected: %v", err)
	}
	ev, err := Generate(empty, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// No machines means no churn events even with Churn > 0, and a zero
	// arrival rate means no jobs: the stream must be empty.
	if len(ev) != 0 {
		t.Fatalf("degenerate world generated %d events, want 0", len(ev))
	}

	quiet := baseConfig()
	quiet.ArrivalRate = 0
	quiet.MeanDuration = 0
	quiet.Churn = 0
	ev, err = Generate(quiet, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 0 {
		t.Fatalf("zero-arrival world generated %d events, want 0", len(ev))
	}
}
