package cluster

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// randomShardLogs draws k shard logs, each (At, Seq)-ordered as runShard
// emits them. At comes from a handful of values so equal-At ties across
// shards are the common case, and roughly one shard in four is empty.
func randomShardLogs(r *xrand.Rand, k, maxLen int) []shardResult {
	rs := make([]shardResult, k)
	for s := range rs {
		if r.Intn(4) == 0 {
			continue
		}
		n := r.Intn(maxLen + 1)
		ats := make([]float64, n)
		for i := range ats {
			ats[i] = float64(r.Intn(8)) / 4
		}
		sort.Float64s(ats)
		for i, at := range ats {
			rs[s].log = append(rs[s].log, Placement{
				At: at, Shard: int32(s), Seq: uint32(i), Machine: int64(r.Intn(100)),
			})
		}
	}
	return rs
}

// sortedReference is the merge's specification: every shard log
// concatenated and sorted by (At, Shard, Seq).
func sortedReference(rs []shardResult) []Placement {
	var out []Placement
	for _, r := range rs {
		out = append(out, r.log...)
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
		rs := randomShardLogs(r, k, 40)
		n := 0
		for _, s := range rs {
			n += len(s.log)
		}
		got := mergeLogs(rs, n)
		want := sortedReference(rs)
		if len(got) != len(want) {
			t.Fatalf("trial %d (%d shards): merged %d entries, want %d", trial, k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%d shards): entry %d = %+v, want %+v", trial, k, i, got[i], want[i])
			}
		}
	}
	if got := mergeLogs(make([]shardResult, 16), 0); len(got) != 0 {
		t.Fatalf("empty shards merged to %d entries", len(got))
	}
	if got := mergeLogs(nil, 0); len(got) != 0 {
		t.Fatalf("no shards merged to %d entries", len(got))
	}
}

// TestShardLogsOrdered pins the precondition the merge relies on: every
// shard log comes out of runShard (At, Seq)-nondecreasing, for every
// policy on the golden configurations — including the closed-loop and
// isolation runs, whose migrations append log entries mid-event.
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
			for s, r := range rs {
				for i, p := range r.log {
					if p.Kind == PlacementMigrate {
						migrations++
					}
					if int(p.Shard) != s || int(p.Seq) != i {
						t.Fatalf("shard %d entry %d carries shard %d seq %d", s, i, p.Shard, p.Seq)
					}
					if i > 0 && p.At < r.log[i-1].At {
						t.Fatalf("shard %d entry %d at %g precedes entry %d at %g", s, i, p.At, i-1, r.log[i-1].At)
					}
				}
			}
			if (c.name == "closedloop" || c.name == "isolation") && migrations == 0 {
				t.Fatal("no migrations logged; the mid-event append path went unexercised")
			}
			merged := mergeShards(cfg, rs).Log
			if want := sortedReference(rs); !reflect.DeepEqual(merged, want) {
				t.Fatal("merged log differs from the sorted reference")
			}
		})
	}
}

// BenchmarkMergeShards times the shard-log merge alone at fleet scale:
// 16 shards of ~60k entries each, with the cross-shard At interleaving of
// a real run.
func BenchmarkMergeShards(b *testing.B) {
	const shards, perShard = 16, 60_000
	r := xrand.New(5)
	rs := make([]shardResult, shards)
	n := 0
	for s := range rs {
		at := 0.0
		for i := 0; i < perShard; i++ {
			at += r.Float64() * 2 / perShard
			rs[s].log = append(rs[s].log, Placement{At: at, Shard: int32(s), Seq: uint32(i)})
		}
		n += perShard
	}
	cfg := SimConfig{Shards: shards, Table: &PredTable{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := mergeShards(cfg, rs); len(got.Log) != n {
			b.Fatalf("merged %d entries, want %d", len(got.Log), n)
		}
	}
}
