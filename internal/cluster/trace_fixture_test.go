package cluster

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	clworkload "repro/internal/cluster/workload"
)

// traceV1Fixture is a committed v1 trace: 100 machines under the closed
// loop with machine churn and a mid-run drift. It was recorded once and is
// is not rewritten by -update, so a change to the event wire
// format or to the replay shows up against bytes an older build wrote —
// the round-trip tests write and read with the same code and cannot see
// that.
const traceV1Fixture = "trace_v1.jsonl"

// traceV1LogHash is the hash of the fixture replay's placement log,
// migration kind and source included (hashFullLog).
const traceV1LogHash uint64 = 0x2b9d81cc7b002a93

// traceV1Config is the run the fixture records. To record it anew (only
// for a deliberate format change, with a new trace version), write
// GenerateEvents(traceV1Config) with WriteTrace.
func traceV1Config(tb testing.TB) SimConfig {
	cfg := driftSimConfig(tb, 100, 0.25, 41)
	cfg.Policy = PolicyClosedLoop
	cfg.Workload.Churn = 2
	return cfg
}

func hashFullLog(log []Placement) uint64 {
	h := fnv.New64a()
	for _, p := range log {
		fmt.Fprintf(h, "%g|%d|%d|%d|%d|%d|%d|%d|%d\n", p.At, p.Shard, p.Seq, p.Machine, p.Lat, p.Batch, p.N, p.Kind, p.From)
	}
	return h.Sum64()
}

// TestTraceV1Fixture: reading the committed trace and writing it back
// reproduces it byte for byte, the generator still draws its events, and
// its replay logs the pinned decisions at one and at four workers.
func TestTraceV1Fixture(t *testing.T) {
	path := filepath.Join("testdata", traceV1Fixture)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg, events, err := ReadTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if fresh, err := GenerateEvents(traceV1Config(t)); err != nil || !reflect.DeepEqual(fresh, events) {
		t.Errorf("the generator no longer reproduces the fixture's events (err %v)", err)
	}
	kinds := map[clworkload.Kind]int{}
	for _, evs := range events {
		for _, ev := range evs {
			kinds[ev.Kind]++
		}
	}
	for _, k := range []clworkload.Kind{clworkload.KindMachineUp, clworkload.KindMachineDown, clworkload.KindJobArrive} {
		if kinds[k] == 0 {
			t.Errorf("fixture has no %v event", k)
		}
	}
	var rerec bytes.Buffer
	if err := WriteTrace(&rerec, cfg, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rerec.Bytes(), data) {
		t.Error("ReadTrace → WriteTrace does not reproduce the v1 fixture")
	}
	for _, workers := range []int{1, 4} {
		res, err := RunSim(context.Background(), cfg, events, workers)
		if err != nil {
			t.Fatal(err)
		}
		if res.Migrations == 0 {
			t.Errorf("%d workers: the replay migrated nothing; the drift response went unexercised", workers)
		}
		if got := hashFullLog(res.Log()); got != traceV1LogHash {
			t.Errorf("%d workers: replay log hash %#x, want %#x", workers, got, traceV1LogHash)
		}
	}
}
