package cluster

import (
	"math"
	"testing"

	clworkload "repro/internal/cluster/workload"
	"repro/internal/isol"
)

// The typed limits below are checked from both sides: the largest value
// that fits the in-memory field passes, the next one fails.

// A trace event's sequence number must fit the uint32 Seq of an in-memory
// event: MaxUint32 itself is a valid sequence number.
func TestCheckEventSeqLimit(t *testing.T) {
	w := clworkload.Config{Lats: 2, Batches: 2}
	ev := traceEvent{At: 0.5, Kind: clworkload.KindJobArrive, Batch: 1, Duration: 0.1}
	for _, tc := range []struct {
		seq uint64
		ok  bool
	}{{math.MaxUint32, true}, {math.MaxUint32 + 1, false}} {
		ev.Seq = tc.seq
		if err := checkEvent(ev, w, 0); (err == nil) != tc.ok {
			t.Errorf("Seq %d: checkEvent = %v, want ok=%v", tc.seq, err, tc.ok)
		}
	}
}

// The isolation ladder's level index is an int16, so MaxInt16 levels fit
// and one more does not.
func TestIsolSimParamsLevelLimit(t *testing.T) {
	for _, tc := range []struct {
		n  int
		ok bool
	}{{math.MaxInt16, true}, {math.MaxInt16 + 1, false}} {
		p := &IsolSimParams{Levels: make([]isol.Setting, tc.n)}
		for i := range p.Levels {
			p.Levels[i] = isol.Setting{Name: "off", ThrottleFrac: 1, DegScale: 1}
		}
		if err := p.Validate(); (err == nil) != tc.ok {
			t.Errorf("%d levels: Validate = %v, want ok=%v", tc.n, err, tc.ok)
		}
	}
}

// Every named placement kind marshals, the last one included; the first
// kind past the name table is an error, not an index panic.
func TestPlacementKindMarshalLimit(t *testing.T) {
	last := PlacementKind(len(placementKindNames) - 1)
	if data, err := last.MarshalJSON(); err != nil || string(data) != `"migrate"` {
		t.Errorf("kind %d: MarshalJSON = %s, %v; want \"migrate\"", last, data, err)
	}
	if _, err := (last + 1).MarshalJSON(); err == nil {
		t.Errorf("kind %d: MarshalJSON accepted a kind with no name", last+1)
	}
}
