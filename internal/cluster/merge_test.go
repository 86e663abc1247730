package cluster

import (
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// randomShardLogs draws k compact shard logs, each (At, Seq)-ordered as
// runShard emits them, with the Placements each shard's log stands for.
// At comes from a handful of values so equal-At ties across shards are the
// common case, roughly one shard in four is empty, and one decision in
// eight is a rejection and one a migration.
func randomShardLogs(r *xrand.Rand, k, maxLen int) ([]shardLog, [][]Placement) {
	const machines = 100
	logs := make([]shardLog, k)
	want := make([][]Placement, k)
	for s := range logs {
		if r.Intn(4) == 0 {
			continue
		}
		l := &logs[s]
		l.lats = make([]int16, machines)
		for i := range l.lats {
			l.lats[i] = int16(r.Intn(3))
		}
		n := r.Intn(maxLen + 1)
		ats := make([]float64, n)
		for i := range ats {
			ats[i] = float64(r.Intn(8)) / 4
		}
		sort.Float64s(ats)
		for i, at := range ats {
			e := logEntry{At: at, Machine: int32(r.Intn(machines)), Batch: int16(r.Intn(4)), N: int16(1 + r.Intn(6))}
			p := Placement{At: at, Shard: int32(s), Seq: uint32(i), Machine: int64(s) + int64(e.Machine)*int64(k),
				Lat: l.lats[e.Machine], Batch: e.Batch, N: e.N}
			switch r.Intn(8) {
			case 0:
				e.Machine, e.N = -1, 0
				p.Machine, p.Lat, p.N = -1, -1, 0
				l.entries = append(l.entries, e)
			case 1:
				from := int32(r.Intn(machines))
				l.migs = append(l.migs, logMigration{logEntry: e, Pos: uint32(i), From: from})
				p.Kind, p.From = PlacementMigrate, int64(s)+int64(from)*int64(k)
			default:
				l.entries = append(l.entries, e)
			}
			want[s] = append(want[s], p)
		}
	}
	return logs, want
}

// sortedReference is the merge's specification: every shard log
// concatenated and sorted by (At, Shard, Seq).
func sortedReference(logs [][]Placement) []Placement {
	var out []Placement
	for _, l := range logs {
		out = append(out, l...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Seq < b.Seq
	})
	return out
}

// TestMergeLogsMatchesSort checks the k-way merge against the sorted
// reference on random shard logs: many shards with dense equal-At ties
// and empty shards, a single shard, and no entries at all.
func TestMergeLogsMatchesSort(t *testing.T) {
	r := xrand.New(29)
	for trial := 0; trial < 300; trial++ {
		k := []int{1, 2, 3, 16, 17}[trial%5]
		logs, placements := randomShardLogs(r, k, 40)
		n := 0
		for _, l := range placements {
			n += len(l)
		}
		got := mergeLogs(logs, n)
		want := sortedReference(placements)
		if len(got) != len(want) {
			t.Fatalf("trial %d (%d shards): merged %d entries, want %d", trial, k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%d shards): entry %d = %+v, want %+v", trial, k, i, got[i], want[i])
			}
		}
	}
	if got := mergeLogs(make([]shardLog, 16), 0); len(got) != 0 {
		t.Fatalf("empty shards merged to %d entries", len(got))
	}
	if got := mergeLogs(nil, 0); len(got) != 0 {
		t.Fatalf("no shards merged to %d entries", len(got))
	}
}

// TestShardLogsOrdered pins the precondition the merge relies on: every
// shard log comes out of runShard (At, Seq)-nondecreasing, for every
// policy on the golden configurations — including the closed-loop and
// isolation runs, whose migrations append log entries mid-event. The
// arrival log holds exactly one entry per arrival in a slice sized to
// them, so migrations never regrow it.
func TestShardLogsOrdered(t *testing.T) {
	base := func(p PolicyKind) func(*testing.T) SimConfig {
		return func(t *testing.T) SimConfig {
			cfg := goldenConfig(t)
			cfg.Policy = p
			return cfg
		}
	}
	cases := []struct {
		name string
		cfg  func(*testing.T) SimConfig
	}{
		{"smite", base(PolicySMiTe)},
		{"oracle", base(PolicyOracle)},
		{"random", base(PolicyRandom)},
		{"slo", func(t *testing.T) SimConfig {
			cfg := base(PolicySLO)(t)
			cfg.SLO = sloSimParams()
			return cfg
		}},
		{"closedloop", func(t *testing.T) SimConfig {
			cfg := base(PolicyClosedLoop)(t)
			cfg.SLO = sloSimParams()
			cfg.Drift = &DriftSpec{At: cfg.Workload.Horizon / 3, Factor: 3}
			return cfg
		}},
		{"isolation", goldenIsolConfig},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg(t).withDefaults()
			events, err := GenerateEvents(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := runShards(context.Background(), &cfg, events, 2)
			if err != nil {
				t.Fatal(err)
			}
			migrations := 0
			logs := make([][]Placement, len(rs))
			for s, r := range rs {
				if len(r.log.entries) != r.arrived || cap(r.log.entries) != r.arrived {
					t.Fatalf("shard %d: arrival log len %d cap %d for %d arrivals",
						s, len(r.log.entries), cap(r.log.entries), r.arrived)
				}
				var c logCursor
				for i := 0; i < r.log.len(); i++ {
					logs[s] = append(logs[s], r.log.next(&c, s, len(rs)))
				}
				for i, p := range logs[s] {
					if p.Kind == PlacementMigrate {
						migrations++
					}
					if int(p.Shard) != s || int(p.Seq) != i {
						t.Fatalf("shard %d entry %d carries shard %d seq %d", s, i, p.Shard, p.Seq)
					}
					if i > 0 && p.At < logs[s][i-1].At {
						t.Fatalf("shard %d entry %d at %g precedes entry %d at %g", s, i, p.At, i-1, logs[s][i-1].At)
					}
				}
			}
			if (c.name == "closedloop" || c.name == "isolation") && migrations == 0 {
				t.Fatal("no migrations logged; the mid-event append path went unexercised")
			}
			merged := mergeShards(cfg, rs).Log()
			if want := sortedReference(logs); !reflect.DeepEqual(merged, want) {
				t.Fatal("merged log differs from the sorted reference")
			}
		})
	}
}

// TestLogFreshPerCall pins Log's contract: every call merges anew into its
// own slice, so a caller mutating one result cannot change the next, and a
// zero SimResult has an empty log.
func TestLogFreshPerCall(t *testing.T) {
	if got := (SimResult{}).Log(); len(got) != 0 {
		t.Fatalf("zero SimResult logged %d entries", len(got))
	}
	cfg := goldenConfig(t)
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSim(context.Background(), cfg, events, 2)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Log()
	if len(first) == 0 {
		t.Fatal("golden run logged nothing")
	}
	want := append([]Placement(nil), first...)
	for i := range first {
		first[i] = Placement{Machine: -7}
	}
	if got := res.Log(); !reflect.DeepEqual(got, want) {
		t.Fatal("mutating one Log result changed the next")
	}
}

// TestPlacementPointerFree pins the log records' layouts: the public
// Placement is 40 bytes, the shard log's arrival entry 16 and its
// migration record 24, and none holds a pointer, so the garbage collector
// never scans a log.
func TestPlacementPointerFree(t *testing.T) {
	for _, tc := range []struct {
		v    any
		size uintptr
	}{{Placement{}, 40}, {logEntry{}, 16}, {logMigration{}, 24}} {
		typ := reflect.TypeOf(tc.v)
		if typ.Size() != tc.size {
			t.Errorf("%s is %d bytes, want %d", typ.Name(), typ.Size(), tc.size)
		}
		checkPointerFree(t, typ)
	}
}

// checkPointerFree fails for every field of typ, embedded structs
// included, that is not a plain number.
func checkPointerFree(t *testing.T, typ reflect.Type) {
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Float64, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Uint8, reflect.Uint32:
		case reflect.Struct:
			checkPointerFree(t, f.Type)
		default:
			t.Errorf("%s field %s is a %s; a log record must hold no pointers", typ.Name(), f.Name, f.Type.Kind())
		}
	}
}

// TestPlacementKindJSON pins the wire form of Placement.Kind: the zero kind
// is omitted, a migration round-trips as "migrate", and an unknown name is
// an error that names it.
func TestPlacementKindJSON(t *testing.T) {
	plain, err := json.Marshal(Placement{At: 1, Machine: 3})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), `"k"`) {
		t.Errorf("ordinary entry carries a kind: %s", plain)
	}
	mig := Placement{At: 1, Machine: 3, N: 2, Kind: PlacementMigrate, From: 9}
	data, err := json.Marshal(mig)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"k":"migrate"`) {
		t.Errorf("migration entry encodes as %s, want \"k\":\"migrate\"", data)
	}
	var back Placement
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != mig {
		t.Errorf("round trip gave %+v, want %+v", back, mig)
	}
	err = json.Unmarshal([]byte(`{"t":1,"k":"teleport"}`), &back)
	if err == nil || !strings.Contains(err.Error(), "teleport") {
		t.Errorf("unknown kind decoded with error %v, want one naming \"teleport\"", err)
	}
}

// BenchmarkMergeShards times the shard-log merge alone at fleet scale —
// SimResult.Log over 16 shards of ~60k entries each, with the cross-shard
// At interleaving of a real run.
func BenchmarkMergeShards(b *testing.B) {
	const shards, perShard = 16, 60_000
	r := xrand.New(5)
	rs := make([]shardResult, shards)
	n := 0
	for s := range rs {
		at := 0.0
		rs[s].log.lats = []int16{0}
		for i := 0; i < perShard; i++ {
			at += r.Float64() * 2 / perShard
			rs[s].log.entries = append(rs[s].log.entries, logEntry{At: at})
		}
		n += perShard
	}
	res := mergeShards(SimConfig{Shards: shards, Table: &PredTable{}}, rs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := res.Log(); len(got) != n {
			b.Fatalf("merged %d entries, want %d", len(got), n)
		}
	}
}
