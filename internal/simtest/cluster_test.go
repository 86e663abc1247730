package simtest

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/cluster"
	clworkload "repro/internal/cluster/workload"
)

// clusterSimConfig builds one randomized discrete-event cluster run on a
// synthetic co-location world: surrogate tier first, measured table as
// fallback, QoS surface precomputed through the Predictor seam.
func clusterSimConfig(t *testing.T, seed uint64) cluster.SimConfig {
	t.Helper()
	const nLat, nBatch, maxInst = 3, 4, 6
	set, tbl, err := cluster.SyntheticWorld(nLat, nBatch, maxInst, seed)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	pred := cluster.NewTieredPredictor(
		&cluster.SurrogatePredictor{Set: set, Capacity: maxInst},
		&cluster.TablePredictor{Table: tbl},
	)
	pt, err := cluster.BuildPredTable(context.Background(), tbl, nil, cluster.QoSAvg, pred, 1)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	policies := []cluster.PolicyKind{cluster.PolicySMiTe, cluster.PolicyOracle, cluster.PolicyRandom}
	return cluster.SimConfig{
		Workload: clworkload.Config{
			Machines: 24 + int(seed%5)*8,
			Horizon:  1 + float64(seed%3)*0.5,
			Lats:     nLat, Batches: nBatch, Seed: seed,
			ArrivalRate:  500 + float64(seed%7)*100,
			MeanDuration: 0.05,
			Diurnal:      0.3,
			BurstProb:    0.1, BurstFactor: 2,
			Drift: 0.3,
			Churn: float64(seed%4) * 0.03,
		},
		Shards:            4 + int(seed%2)*4,
		Policy:            policies[seed%3],
		Target:            0.9 + float64(seed%3)*0.02,
		ThreadsPerServer:  6,
		ContextsPerServer: 12,
		Table:             pt,
	}
}

// TestClusterReplayDeterminism is the cluster simulator's replay law: for
// every seed, recording a run's trace and replaying it must reproduce the
// placement log bit for bit — at sequential replay and at 8-way shard
// fan-out, which must themselves agree exactly.
func TestClusterReplayDeterminism(t *testing.T) {
	for seed := uint64(0); seed < numSeeds; seed++ {
		cfg := clusterSimConfig(t, seed)
		events, err := cluster.GenerateEvents(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		orig, err := cluster.RunSim(context.Background(), cfg, events, 1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		var trace bytes.Buffer
		if err := cluster.WriteTrace(&trace, cfg, events); err != nil {
			t.Fatalf("seed %d: record: %v", seed, err)
		}
		rcfg, revents, err := cluster.ReadTrace(bytes.NewReader(trace.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: read: %v", seed, err)
		}
		for _, workers := range []int{1, 8} {
			replay, err := cluster.RunSim(context.Background(), rcfg, revents, workers)
			if err != nil {
				t.Fatalf("seed %d: replay workers=%d: %v", seed, workers, err)
			}
			if !reflect.DeepEqual(orig.Log(), replay.Log()) {
				t.Errorf("seed %d (policy %v, %d machines): replay at workers=%d diverged from recorded run",
					seed, cfg.Policy, cfg.Workload.Machines, workers)
			}
			if !reflect.DeepEqual(orig, replay) {
				t.Errorf("seed %d: replay aggregates at workers=%d differ from recorded run", seed, workers)
			}
		}
	}
}
