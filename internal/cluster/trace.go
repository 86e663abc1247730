package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	clworkload "repro/internal/cluster/workload"
)

// Trace format: line-oriented JSON. The first line is a header carrying
// the format tag, the version, and the complete SimConfig — including the
// prediction table — so a trace is self-contained: replaying it needs no
// lab, no predictor and no flags, and reproduces the original run's
// placement log bit for bit at any parallelism. Every following line is
// one exogenous event tagged with its shard. Writing is deterministic
// (fixed field order, shortest float encoding), so record → replay →
// re-record round-trips to identical bytes; the trace tests pin that.
//
// Versioning: TraceVersion bumps on any incompatible change to the header
// or event schema. Readers reject unknown versions with ErrTraceVersion
// (wrapped in a *TraceVersionError naming both sides) rather than
// guessing, and anything structurally broken surfaces as ErrTraceCorrupt.

// TraceFormat tags the header line of a cluster trace.
const TraceFormat = "smite-cluster-trace"

// TraceVersion is the current trace schema version.
const TraceVersion = 1

// ErrTraceVersion reports a trace written by an incompatible schema
// version.
var ErrTraceVersion = errors.New("cluster: unsupported trace version")

// ErrTraceCorrupt reports a structurally invalid trace.
var ErrTraceCorrupt = errors.New("cluster: corrupt trace")

// maxTraceShards bounds the shard count a trace header may name. The
// reader allocates per shard before any event arrives, and a replay
// allocates a bucket table per shard, so an absurd count in a crafted
// header would exhaust memory; real layouts use tens of cells.
const maxTraceShards = 1 << 12

// TraceVersionError carries the version mismatch detail; errors.Is
// matches it against ErrTraceVersion.
type TraceVersionError struct {
	Got, Want int
}

func (e *TraceVersionError) Error() string {
	return fmt.Sprintf("cluster: trace version %d, this build reads %d", e.Got, e.Want)
}

// Is matches ErrTraceVersion.
func (e *TraceVersionError) Is(target error) bool { return target == ErrTraceVersion }

type traceHeader struct {
	Format  string    `json:"format"`
	Version int       `json:"version"`
	Config  SimConfig `json:"config"`
	Events  int       `json:"events"`
}

// traceEvent is an event line on the wire: its shard, then the event's
// fields under their own keys in this order, each kind's unused fields
// omitted. The in-memory clworkload.Event packs the kind-specific fields
// into shared slots; toTrace and event convert, and the reader checks the
// wire values before event narrows them.
type traceEvent struct {
	Shard    int             `json:"s"`
	At       float64         `json:"t"`
	Seq      uint64          `json:"q"`
	Kind     clworkload.Kind `json:"k"`
	Lat      int             `json:"l,omitempty"`
	Batch    int             `json:"b,omitempty"`
	Duration float64         `json:"d,omitempty"`
	Rank     float64         `json:"r,omitempty"`
}

func toTrace(shard int, ev clworkload.Event) traceEvent {
	return traceEvent{Shard: shard, At: ev.At, Seq: uint64(ev.Seq), Kind: ev.Kind,
		Lat: ev.Lat(), Batch: ev.Batch(), Duration: ev.Duration(), Rank: ev.Rank()}
}

// event is the in-memory form of a line checkEvent accepted.
func (te traceEvent) event() clworkload.Event {
	ev := clworkload.Event{At: te.At, Seq: uint32(te.Seq), Kind: te.Kind}
	switch te.Kind {
	case clworkload.KindMachineUp:
		ev.App = int16(te.Lat)
	case clworkload.KindMachineDown:
		ev.Param = te.Rank
	case clworkload.KindJobArrive:
		ev.App, ev.Param = int16(te.Batch), te.Duration
	}
	return ev
}

// WriteTrace records a run's inputs: the normalised config and the
// per-shard exogenous event streams.
func WriteTrace(w io.Writer, cfg SimConfig, shards [][]clworkload.Event) error {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(shards) != cfg.Shards {
		return fmt.Errorf("cluster: %d event shards for %d sim shards", len(shards), cfg.Shards)
	}
	total := 0
	for _, ev := range shards {
		total += len(ev)
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends exactly one '\n' per value
	if err := enc.Encode(traceHeader{Format: TraceFormat, Version: TraceVersion, Config: cfg, Events: total}); err != nil {
		return err
	}
	for s, evs := range shards {
		for _, ev := range evs {
			if err := enc.Encode(toTrace(s, ev)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadTrace parses a recorded trace back into the config and per-shard
// event streams WriteTrace was given.
func ReadTrace(r io.Reader) (SimConfig, [][]clworkload.Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<26) // headers embed the prediction table
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return SimConfig{}, nil, err
		}
		return SimConfig{}, nil, fmt.Errorf("%w: empty file", ErrTraceCorrupt)
	}
	var hdr traceHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return SimConfig{}, nil, fmt.Errorf("%w: header: %v", ErrTraceCorrupt, err)
	}
	if hdr.Format != TraceFormat {
		return SimConfig{}, nil, fmt.Errorf("%w: format %q", ErrTraceCorrupt, hdr.Format)
	}
	if hdr.Version != TraceVersion {
		return SimConfig{}, nil, &TraceVersionError{Got: hdr.Version, Want: TraceVersion}
	}
	cfg := hdr.Config.withDefaults()
	if err := cfg.Validate(); err != nil {
		return SimConfig{}, nil, fmt.Errorf("%w: config: %w", ErrTraceCorrupt, err)
	}
	if cfg.Shards > maxTraceShards {
		return SimConfig{}, nil, fmt.Errorf("%w: %d shards exceed the reader's limit of %d", ErrTraceCorrupt, cfg.Shards, maxTraceShards)
	}
	shards := make([][]clworkload.Event, cfg.Shards)
	lastAt := make([]float64, cfg.Shards)
	n := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev traceEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return SimConfig{}, nil, fmt.Errorf("%w: event %d: %v", ErrTraceCorrupt, n, err)
		}
		if ev.Shard < 0 || ev.Shard >= cfg.Shards {
			return SimConfig{}, nil, fmt.Errorf("%w: event %d names shard %d of %d", ErrTraceCorrupt, n, ev.Shard, cfg.Shards)
		}
		if err := checkEvent(ev, cfg.Workload, lastAt[ev.Shard]); err != nil {
			return SimConfig{}, nil, fmt.Errorf("%w: event %d: %v", ErrTraceCorrupt, n, err)
		}
		lastAt[ev.Shard] = ev.At
		shards[ev.Shard] = append(shards[ev.Shard], ev.event())
		n++
	}
	if err := sc.Err(); err != nil {
		return SimConfig{}, nil, err
	}
	if n != hdr.Events {
		return SimConfig{}, nil, fmt.Errorf("%w: header promises %d events, file has %d", ErrTraceCorrupt, hdr.Events, n)
	}
	return cfg, shards, nil
}

// checkEvent validates one event line against the header's workload.
// RunSim indexes tables and machine lists with these fields and merges
// shard logs assuming each shard's stream is time-ordered, so a crafted
// value must fail the read instead of panicking the replay. A field of
// another kind, or a sequence number past uint32, has no slot in the
// in-memory event, so it fails too rather than being dropped.
func checkEvent(ev traceEvent, w clworkload.Config, prevAt float64) error {
	up, down, job := ev.Kind == clworkload.KindMachineUp, ev.Kind == clworkload.KindMachineDown, ev.Kind == clworkload.KindJobArrive
	switch {
	case !up && !down && !job:
		return fmt.Errorf("unknown kind %d", ev.Kind)
	case ev.Seq > math.MaxUint32:
		return fmt.Errorf("sequence number %d exceeds %d", ev.Seq, uint32(math.MaxUint32))
	case ev.Lat != 0 && !up, ev.Batch != 0 && !job, ev.Duration != 0 && !job, ev.Rank != 0 && !down:
		return fmt.Errorf("%v event carries another kind's field", ev.Kind)
	case ev.Lat < 0 || ev.Lat >= w.Lats:
		return fmt.Errorf("latency app %d outside [0,%d)", ev.Lat, w.Lats)
	case ev.Batch < 0 || ev.Batch >= w.Batches:
		return fmt.Errorf("batch app %d outside [0,%d)", ev.Batch, w.Batches)
	case !(ev.Rank >= 0 && ev.Rank < 1):
		return fmt.Errorf("rank %g outside [0,1)", ev.Rank)
	case !(ev.Duration >= 0) || math.IsInf(ev.Duration, 1):
		return fmt.Errorf("duration %g is not finite and non-negative", ev.Duration)
	case !(ev.At >= prevAt) || math.IsInf(ev.At, 1):
		return fmt.Errorf("time %g is not finite or precedes its shard's previous event at %g", ev.At, prevAt)
	}
	return nil
}
