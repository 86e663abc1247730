package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	clworkload "repro/internal/cluster/workload"
	"repro/internal/isol"
)

func TestTraceRoundTrip(t *testing.T) {
	cfg := synthSimConfig(t, 40, 1, 31)
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rec bytes.Buffer
	if err := WriteTrace(&rec, cfg, events); err != nil {
		t.Fatal(err)
	}
	rcfg, revents, err := ReadTrace(bytes.NewReader(rec.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Record → read → re-record must reproduce the trace byte for byte:
	// that is what makes a trace a stable artifact, not just a lossy dump.
	var rerec bytes.Buffer
	if err := WriteTrace(&rerec, rcfg, revents); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Bytes(), rerec.Bytes()) {
		t.Fatal("re-recorded trace differs from original bytes")
	}
}

// withLegacyKeys adds to a v1 trace header the settings earlier builds
// wrote: the workload's window and diurnal period and the SLO saturation
// thresholds, as a hand-written or older trace can carry them.
func withLegacyKeys(tb testing.TB, trace []byte) []byte {
	tb.Helper()
	out := bytes.Replace(trace, []byte(`"workload":{`), []byte(`"workload":{"window":0.01,"period":0.5,`), 1)
	out = bytes.Replace(out, []byte(`"slo":{`), []byte(`"slo":{"scale_up_threshold":0.3,"scale_down_threshold":0.1,`), 1)
	if bytes.Count(out, []byte(`"window":0.01`)) != 1 || bytes.Count(out, []byte(`"scale_up_threshold":0.3`)) != 1 {
		tb.Fatal("legacy keys did not land in the trace header")
	}
	return out
}

// TestTraceLegacyKeysIgnored: a v1 header carrying window, period and
// threshold keys still replays to the same events and the same placement
// log as the trace without them; the reader ignores the keys.
func TestTraceLegacyKeysIgnored(t *testing.T) {
	trace := fuzzSeedTrace(t, PolicySLO)
	replay := func(data []byte) ([][]clworkload.Event, uint64) {
		cfg, events, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunSim(context.Background(), cfg, events, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Placed == 0 {
			t.Fatal("replay placed nothing; the comparison would be vacuous")
		}
		return events, hashLog(res.Log())
	}
	events, hash := replay(trace)
	legacyEvents, legacyHash := replay(withLegacyKeys(t, trace))
	if !reflect.DeepEqual(events, legacyEvents) {
		t.Error("legacy header keys changed the replayed events")
	}
	if hash != legacyHash {
		t.Errorf("legacy header keys changed the placement log: hash %x, want %x", legacyHash, hash)
	}
}

func TestTraceVersionRejected(t *testing.T) {
	cfg := synthSimConfig(t, 40, 1, 31)
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rec bytes.Buffer
	if err := WriteTrace(&rec, cfg, events); err != nil {
		t.Fatal(err)
	}
	future := strings.Replace(rec.String(), `"version":1`, `"version":99`, 1)
	_, _, err = ReadTrace(strings.NewReader(future))
	if !errors.Is(err, ErrTraceVersion) {
		t.Fatalf("future version read returned %v, want ErrTraceVersion", err)
	}
	var ve *TraceVersionError
	if !errors.As(err, &ve) || ve.Got != 99 || ve.Want != TraceVersion {
		t.Fatalf("version error detail = %+v", ve)
	}
}

func TestTraceCorruptRejected(t *testing.T) {
	cfg := synthSimConfig(t, 40, 1, 31)
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rec bytes.Buffer
	if err := WriteTrace(&rec, cfg, events); err != nil {
		t.Fatal(err)
	}
	good := rec.String()
	lines := strings.SplitAfter(good, "\n")

	cases := map[string]string{
		"empty":        "",
		"not json":     "hello\n",
		"wrong format": strings.Replace(good, TraceFormat, "not-a-trace", 1),
		"event junk":   lines[0] + "{\n",
		"bad shard":    lines[0] + strings.Replace(lines[1], `"s":0`, `"s":999`, 1),
		"huge shards":  strings.Replace(good, `"shards":8`, `"shards":1000000000000`, 1),
		"truncated":    strings.Join(lines[:len(lines)/2], ""),
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			_, _, err := ReadTrace(strings.NewReader(in))
			if !errors.Is(err, ErrTraceCorrupt) {
				t.Fatalf("ReadTrace = %v, want ErrTraceCorrupt", err)
			}
		})
	}
}

// TestTraceDegenerateRoundTrip pins the header-only edge: a trace of a
// zero-event world (no machines, no arrivals) must record, read back, and
// re-record byte-identically, and replay to an empty placement log.
func TestTraceDegenerateRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name     string
		machines int
		slo      bool
	}{
		{"empty world", 0, false},
		{"quiet fleet", 30, false},
		{"quiet fleet with SLO gate", 30, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := synthSimConfig(t, tc.machines, 1, 53)
			cfg.Workload.ArrivalRate = 0
			cfg.Workload.Churn = 0
			if tc.slo {
				cfg.Policy = PolicySLO
				cfg.SLO = sloSimParams()
			}
			events, err := GenerateEvents(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var rec bytes.Buffer
			if err := WriteTrace(&rec, cfg, events); err != nil {
				t.Fatal(err)
			}
			rcfg, revents, err := ReadTrace(bytes.NewReader(rec.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var rerec bytes.Buffer
			if err := WriteTrace(&rerec, rcfg, revents); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec.Bytes(), rerec.Bytes()) {
				t.Fatal("re-recorded degenerate trace differs from original bytes")
			}
			res, err := RunSim(context.Background(), rcfg, revents, 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Log()) != 0 || res.Events != 0 {
				t.Fatalf("degenerate trace replayed to %d log entries, %d events; want none",
					len(res.Log()), res.Events)
			}
		})
	}
}

// TestReadTraceRejectsBadEvents crafts single-field edits of a valid
// 40-machine trace that RunSim cannot replay safely: app indices and
// ranks out of range index past its tables and machine lists (a batch
// equal to Batches silently reads another latency app's cells), and an
// unknown kind, a negative duration or a time running backwards breaks
// the event model and the (At, Seq) order the shard merge relies on. A
// field of another kind or a sequence number past uint32 would be dropped
// or wrapped by the in-memory event. Each must fail the read with
// ErrTraceCorrupt naming the edited event.
func TestReadTraceRejectsBadEvents(t *testing.T) {
	cfg := synthSimConfig(t, 40, 1, 31)
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rec bytes.Buffer
	if err := WriteTrace(&rec, cfg, events); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(rec.String(), "\n")
	// craft rewrites the first event of the given kind (in file order)
	// with edit and returns the trace and that event's number.
	craft := func(t *testing.T, kind clworkload.Kind, edit func(*traceEvent)) (string, int) {
		t.Helper()
		for i, line := range lines[1:] {
			if line == "" {
				continue
			}
			var ev traceEvent
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Kind != kind {
				continue
			}
			edit(&ev)
			data, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			out := append([]string(nil), lines...)
			out[1+i] = string(data) + "\n"
			return strings.Join(out, ""), i
		}
		t.Fatalf("trace has no %v event", kind)
		return "", 0
	}
	for _, tc := range []struct {
		name string
		kind clworkload.Kind
		edit func(*traceEvent)
	}{
		{"lat out of range on machine-up", clworkload.KindMachineUp, func(e *traceEvent) { e.Lat = 99 }},
		{"batch out of range on arrival", clworkload.KindJobArrive, func(e *traceEvent) { e.Batch = 7 }},
		{"batch equal to batches", clworkload.KindJobArrive, func(e *traceEvent) { e.Batch = cfg.Workload.Batches }},
		{"negative rank on machine-down", clworkload.KindMachineDown, func(e *traceEvent) { e.Rank = -0.5 }},
		{"rank of one", clworkload.KindMachineDown, func(e *traceEvent) { e.Rank = 1 }},
		{"unknown kind", clworkload.KindJobArrive, func(e *traceEvent) { e.Kind = 9 }},
		{"negative duration", clworkload.KindJobArrive, func(e *traceEvent) { e.Duration = -1 }},
		{"negative time", clworkload.KindJobArrive, func(e *traceEvent) { e.At = -1 }},
		// The in-memory event has no slot for another kind's field or a
		// sequence number past uint32.
		{"lat on arrival", clworkload.KindJobArrive, func(e *traceEvent) { e.Lat = 1 }},
		{"lat on machine-down", clworkload.KindMachineDown, func(e *traceEvent) { e.Lat = 1 }},
		{"batch on machine-up", clworkload.KindMachineUp, func(e *traceEvent) { e.Batch = 1 }},
		{"batch on machine-down", clworkload.KindMachineDown, func(e *traceEvent) { e.Batch = 1 }},
		{"duration on machine-up", clworkload.KindMachineUp, func(e *traceEvent) { e.Duration = 0.5 }},
		{"duration on machine-down", clworkload.KindMachineDown, func(e *traceEvent) { e.Duration = 0.5 }},
		{"rank on machine-up", clworkload.KindMachineUp, func(e *traceEvent) { e.Rank = 0.5 }},
		{"rank on arrival", clworkload.KindJobArrive, func(e *traceEvent) { e.Rank = 0.5 }},
		{"seq past uint32", clworkload.KindJobArrive, func(e *traceEvent) { e.Seq = math.MaxUint32 + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in, n := craft(t, tc.kind, tc.edit)
			_, _, err := ReadTrace(strings.NewReader(in))
			if !errors.Is(err, ErrTraceCorrupt) {
				t.Fatalf("ReadTrace = %v, want ErrTraceCorrupt", err)
			}
			if want := fmt.Sprintf("event %d:", n); !strings.Contains(err.Error(), want) {
				t.Fatalf("ReadTrace = %v, want it to name %q", err, want)
			}
		})
	}
	// Time running backwards within one shard breaks the merge's order.
	t.Run("time precedes its shard's previous event", func(t *testing.T) {
		var first, second int = -1, -1
		for i, line := range lines[1:] {
			if strings.HasPrefix(line, `{"s":0,`) {
				if first < 0 {
					first = i
				} else if second < 0 {
					second = i
				}
			}
		}
		if second < 0 {
			t.Fatal("shard 0 has fewer than two events")
		}
		out := append([]string(nil), lines...)
		out[1+first], out[1+second] = out[1+second], out[1+first]
		_, _, err := ReadTrace(strings.NewReader(strings.Join(out, "")))
		if !errors.Is(err, ErrTraceCorrupt) {
			t.Fatalf("ReadTrace = %v, want ErrTraceCorrupt", err)
		}
	})
}

// fuzzSeedTrace records a small replayable trace: a 2×2-application,
// two-instance world (a header of about 2 KB) on four machines and two
// shards, with enough churn that every event kind appears.
func fuzzSeedTrace(tb testing.TB, policy PolicyKind) []byte {
	_, tbl, err := SyntheticWorld(2, 2, 2, 31)
	if err != nil {
		tb.Fatal(err)
	}
	pt, err := BuildPredTable(context.Background(), tbl, nil, QoSAvg, &TablePredictor{Table: tbl}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := SimConfig{
		Workload: clworkload.Config{
			Machines: 4, Horizon: 0.3, Lats: 2, Batches: 2, Seed: 31,
			ArrivalRate: 120, MeanDuration: 0.05, Churn: 3,
		},
		Shards: 2, Policy: policy, Target: 0.92,
		ThreadsPerServer: 6, ContextsPerServer: 8, Table: pt,
	}
	if policy != PolicySMiTe {
		cfg.SLO = sloSimParams()
	}
	events, err := GenerateEvents(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var rec bytes.Buffer
	if err := WriteTrace(&rec, cfg, events); err != nil {
		tb.Fatal(err)
	}
	return rec.Bytes()
}

// FuzzReadTrace pins the trace reader's contract: it fails with a typed
// error, or whatever it accepts writes back to a trace that reads to the
// same config and events and re-writes to the same bytes, and replays
// through RunSim without a panic. Replays of accepted traces with
// oversized fleets are skipped — the property is about malformed input,
// not about running large worlds.
func FuzzReadTrace(f *testing.F) {
	f.Add(fuzzSeedTrace(f, PolicySMiTe))
	f.Add(fuzzSeedTrace(f, PolicyClosedLoop))
	f.Add(withLegacyKeys(f, fuzzSeedTrace(f, PolicySLO)))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, events, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrTraceCorrupt) && !errors.Is(err, ErrTraceVersion) {
				t.Fatalf("ReadTrace = %v, want ErrTraceCorrupt or ErrTraceVersion", err)
			}
			return
		}
		var rec bytes.Buffer
		if err := WriteTrace(&rec, cfg, events); err != nil {
			t.Fatalf("accepted trace does not write back: %v", err)
		}
		cfg2, events2, err := ReadTrace(bytes.NewReader(rec.Bytes()))
		if err != nil {
			t.Fatalf("written-back trace does not read: %v", err)
		}
		if !reflect.DeepEqual(cfg2, cfg) || !reflect.DeepEqual(events2, events) {
			t.Fatal("written-back trace reads to another config or other events")
		}
		var rerec bytes.Buffer
		if err := WriteTrace(&rerec, cfg2, events2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rerec.Bytes(), rec.Bytes()) {
			t.Fatal("re-written trace differs from the written-back bytes")
		}
		if cfg.Workload.Machines > 1000 || cfg.Shards > 64 {
			t.Skip("fleet too large to replay in a fuzz iteration")
		}
		if _, err := RunSim(context.Background(), cfg, events, 1); err != nil {
			t.Fatalf("accepted trace does not replay: %v", err)
		}
	})
}

// TestInt16IndexBounds: the workload's events, simMachine and Placement
// narrow the latency-app, batch-app, instance-count, generation and
// ladder-level indices to int16, so Validate must reject every count past
// math.MaxInt16. A trace with 40000 latency apps and one machine coming up
// on the last of them used to pass ReadTrace and panic RunSim with a
// negative index, and a direct clworkload.Generate call would narrow such
// an index silently.
func TestInt16IndexBounds(t *testing.T) {
	const lats = math.MaxInt16 + 7233
	tbl := &PredTable{
		LatencyApps: make([]string, lats), BatchApps: []string{"b0"}, MaxInstances: 1,
		PredQoS: make([]float64, lats), ActualQoS: make([]float64, lats),
	}
	for i := range tbl.LatencyApps {
		tbl.LatencyApps[i] = fmt.Sprintf("l%d", i)
	}
	cfg := SimConfig{
		Workload: clworkload.Config{Lats: lats, Batches: 1, Horizon: 1, Seed: 1},
		Shards:   1, Policy: PolicySMiTe, Target: 0.9,
		ThreadsPerServer: 1, ContextsPerServer: 2, Table: tbl,
	}
	var trace bytes.Buffer
	enc := json.NewEncoder(&trace)
	if err := enc.Encode(traceHeader{Format: TraceFormat, Version: TraceVersion, Config: cfg, Events: 1}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(traceEvent{Kind: clworkload.KindMachineUp, At: 0.5, Lat: lats - 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadTrace(&trace); !errors.Is(err, ErrTraceCorrupt) {
		t.Errorf("ReadTrace of a %d-latency-app trace = %v, want ErrTraceCorrupt", lats, err)
	}
	up := clworkload.Event{Kind: clworkload.KindMachineUp, At: 0.5, App: math.MaxInt16}
	if _, err := RunSim(context.Background(), cfg, [][]clworkload.Event{{up}}, 1); err == nil {
		t.Errorf("RunSim accepted %d latency apps", lats)
	}
	for _, w := range []clworkload.Config{
		{Machines: 1, Lats: lats, Batches: 1, Horizon: 1, Seed: 1, Churn: 1},
		{Machines: 1, Lats: 1, Batches: lats, Horizon: 1, Seed: 1, ArrivalRate: 1, MeanDuration: 1},
	} {
		if _, err := clworkload.Generate(w, 0, 1); err == nil || !strings.Contains(err.Error(), fmt.Sprint(math.MaxInt16)) {
			t.Errorf("Generate of %d×%d applications = %v, want a rejection naming %d", w.Lats, w.Batches, err, math.MaxInt16)
		}
	}

	over := math.MaxInt16 + 1
	for _, tc := range []struct {
		name string
		edit func(c *SimConfig)
	}{
		{"batch apps", func(c *SimConfig) {
			c.Workload.Batches = over
			c.Table.BatchApps = make([]string, over)
			c.Table.PredQoS, c.Table.ActualQoS = make([]float64, 3*over*6), make([]float64, 3*over*6)
		}},
		{"instances", func(c *SimConfig) {
			c.ContextsPerServer = 2 * over
			c.Table.MaxInstances = over
			c.Table.PredQoS, c.Table.ActualQoS = make([]float64, 3*4*over), make([]float64, 3*4*over)
		}},
		{"machine generations", func(c *SimConfig) {
			c.MachineGens = make([]MachineGenSpec, over)
			for i := range c.MachineGens {
				c.MachineGens[i] = MachineGenSpec{Name: fmt.Sprintf("g%d", i), Count: 1, Table: c.Table}
			}
			c.Table = nil
		}},
		{"isolation levels", func(c *SimConfig) {
			c.Policy, c.SLO = PolicyIsolation, sloSimParams()
			c.Isol = &IsolSimParams{Levels: make([]isol.Setting, over)}
			for i := range c.Isol.Levels {
				c.Isol.Levels[i] = isol.Setting{Name: "off", ThrottleFrac: 1, DegScale: 1}
			}
		}},
	} {
		c := synthSimConfig(t, 10, 1, 3)
		tbl := *c.Table
		tbl.PredDeg, tbl.ActualDeg, tbl.PredBound = nil, nil, nil
		c.Table = &tbl
		tc.edit(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), fmt.Sprint(math.MaxInt16)) {
			t.Errorf("%s: %d accepted or rejected for another reason: %v", tc.name, over, err)
		}
	}
}

// TestMachineGenCountBounds: generation counts whose sum would wrap fail
// Validate and ReadTrace instead of dividing by zero when RunSim maps
// machines onto generations (four counts of 2^62 sum to 0 mod 2^64).
func TestMachineGenCountBounds(t *testing.T) {
	gens := func(counts ...int) SimConfig {
		cfg := synthGenConfig(t, 4, 1, 5)
		g := cfg.MachineGens[0]
		cfg.MachineGens = nil
		for i, n := range counts {
			g.Name, g.Count = fmt.Sprintf("g%d", i), n
			cfg.MachineGens = append(cfg.MachineGens, g)
		}
		return cfg
	}
	for _, tc := range []struct {
		cfg   SimConfig
		field string
	}{
		{gens(1<<62, 1<<62, 1<<62, 1<<62), "machine_gens[0].count"},
		{gens(math.MaxInt32, 1), "machine_gens[1].count"},
	} {
		var ce *ConfigError
		if err := tc.cfg.Validate(); !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("Validate = %v, want a *ConfigError on %s", err, tc.field)
		}
		var trace bytes.Buffer
		if err := json.NewEncoder(&trace).Encode(traceHeader{Format: TraceFormat, Version: TraceVersion, Config: tc.cfg}); err != nil {
			t.Fatal(err)
		}
		_, _, err := ReadTrace(&trace)
		if !errors.Is(err, ErrTraceCorrupt) || !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("ReadTrace = %v, want ErrTraceCorrupt wrapping a *ConfigError on %s", err, tc.field)
		}
		if _, err := RunSim(context.Background(), tc.cfg, make([][]clworkload.Event, tc.cfg.Shards), 1); err == nil {
			t.Errorf("RunSim accepted generation counts %d…", tc.cfg.MachineGens[0].Count)
		}
	}
}
