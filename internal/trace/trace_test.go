package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim/engine"
	"repro/internal/sim/isa"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func randomUop(rng *xrand.Rand) isa.Uop {
	u := isa.Uop{Kind: isa.UopKind(rng.Intn(int(isa.NumKinds)))}
	if rng.Bool(0.5) {
		u.Dep1 = uint16(rng.Intn(64))
	}
	if rng.Bool(0.3) {
		u.Dep2 = uint16(rng.Intn(64))
	}
	switch u.Kind {
	case isa.Load, isa.Store:
		u.Addr = rng.Uint64n(1 << 30)
	case isa.Branch:
		u.BrTag = rng.Uint32() % 4096
		u.Taken = rng.Bool(0.5)
	}
	u.ICacheMiss = rng.Bool(0.01)
	u.ITLBMiss = rng.Bool(0.01)
	return u
}

// Property: encode/decode round-trips arbitrary uop sequences.
func TestRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		rng := xrand.New(seed)
		n := int(nRaw)%200 + 1
		in := make([]isa.Uop, n)
		for i := range in {
			in[i] = randomUop(rng)
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for i := range in {
			if err := w.Write(&in[i]); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		out, err := ReadAll(&buf)
		if err != nil || len(out) != n {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBadHeader(t *testing.T) {
	if _, err := ReadAll(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("short header accepted")
	}
	if _, err := ReadAll(bytes.NewReader([]byte("XXXX\x01"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadAll(bytes.NewReader([]byte("SMTR\x09"))); err == nil {
		t.Error("future version accepted")
	}
	if _, err := ReadAll(bytes.NewReader([]byte{'S', 'M', 'T', 'R', 1, 200, 0})); err == nil {
		t.Error("invalid kind accepted")
	}
}

// encodeUop hand-builds one uop record: kind byte, flags byte, then the
// given varint fields in order.
func encodeUop(kind isa.UopKind, flags byte, fields ...uint64) []byte {
	b := []byte{byte(kind), flags}
	for _, v := range fields {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// Every input Writer cannot produce is rejected with ErrCorrupt. The
// decoder used to truncate wide dependency and branch-tag values, ignore
// flag bit 7 and the taken bit off branches, read an address or branch tag
// on any kind, default a missing one to zero and accept zero dependencies
// and padded varints, all of which decode to uops that write back to other
// bytes.
func TestReadAllRejectsCorrupt(t *testing.T) {
	hdr := []byte{'S', 'M', 'T', 'R', version}
	cases := []struct {
		name string
		body []byte
	}{
		{"dep1 above uint16", encodeUop(isa.IntAdd, flagDep1, math.MaxUint16+1)},
		{"dep2 above uint16", encodeUop(isa.IntAdd, flagDep2, 1<<20)},
		{"zero dep1", encodeUop(isa.IntAdd, flagDep1, 0)},
		{"zero dep2", encodeUop(isa.IntAdd, flagDep2, 0)},
		{"brtag above uint32", encodeUop(isa.Branch, flagBranch, math.MaxUint32+1)},
		{"flag bit 7", encodeUop(isa.IntAdd, 1<<7)},
		{"addr on an ALU uop", encodeUop(isa.IntAdd, flagAddr, 64)},
		{"brtag on a load", encodeUop(isa.Load, flagAddr|flagBranch, 64, 3)},
		{"taken bit off a branch", encodeUop(isa.FPMul, flagTaken)},
		{"load without addr", encodeUop(isa.Load, 0)},
		{"branch without brtag", encodeUop(isa.Branch, 0)},
		{"padded varint", append(encodeUop(isa.Store, flagAddr), 0x81, 0x00)},
		{"varint past 64 bits", append(encodeUop(isa.Load, flagAddr), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02)},
		{"truncated varint", append(encodeUop(isa.Load, flagAddr), 0x80)},
		{"missing flags byte", []byte{byte(isa.IntAdd)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A valid uop comes first, so the bad one is not at offset 0.
			in := append(append([]byte{}, hdr...), encodeUop(isa.FPAdd, 0)...)
			in = append(in, tc.body...)
			uops, err := ReadAll(bytes.NewReader(in))
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("ReadAll = %+v, %v; want an ErrCorrupt error", uops, err)
			}
		})
	}
}

// The widest value of every field survives the round trip.
func TestRoundTripFieldMaxima(t *testing.T) {
	in := []isa.Uop{
		{Kind: isa.IntAdd, Dep1: math.MaxUint16, Dep2: 1},
		{Kind: isa.Load, Dep2: math.MaxUint16, Addr: math.MaxUint64},
		{Kind: isa.Store},
		{Kind: isa.Branch, BrTag: math.MaxUint32, Taken: true, ICacheMiss: true, ITLBMiss: true},
		{Kind: isa.Branch},
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if err := w.Write(&in[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d uops, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("uop %d: read %+v, want %+v", i, out[i], in[i])
		}
	}
}

// FuzzReadAll: ReadAll either rejects its input with ErrCorrupt or
// accepts a trace that Writer re-encodes to the identical bytes.
func FuzzReadAll(f *testing.F) {
	rng := xrand.New(7)
	var seed bytes.Buffer
	w, err := NewWriter(&seed)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		u := randomUop(rng)
		if err := w.Write(&u); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		uops, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("ReadAll = %v, want an ErrCorrupt error", err)
			}
			return
		}
		var out bytes.Buffer
		w, err := NewWriter(&out)
		if err != nil {
			t.Fatal(err)
		}
		for i := range uops {
			if err := w.Write(&uops[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted trace re-encodes to other bytes:\n in: %x\nout: %x", data, out.Bytes())
		}
	})
}

func TestCaptureFromWorkload(t *testing.T) {
	spec, err := workload.ByName("445.gobmk")
	if err != nil {
		t.Fatal(err)
	}
	uops := Capture(workload.NewGen(spec, 42), 5000)
	if len(uops) != 5000 {
		t.Fatalf("captured %d", len(uops))
	}
	// Capture is deterministic per seed.
	again := Capture(workload.NewGen(spec, 42), 5000)
	for i := range uops {
		if uops[i] != again[i] {
			t.Fatal("capture not deterministic")
		}
	}
}

func TestLoopedReplayWraps(t *testing.T) {
	uops := []isa.Uop{{Kind: isa.FPMul}, {Kind: isa.FPAdd}}
	s := NewStream(uops, true)
	var u isa.Uop
	for i := 0; i < 10; i++ {
		u = isa.Uop{}
		s.Next(&u)
		want := uops[i%2].Kind
		if u.Kind != want {
			t.Fatalf("replay %d: %v, want %v", i, u.Kind, want)
		}
	}
}

func TestUnloopedReplayPadsWithNops(t *testing.T) {
	s := NewStream([]isa.Uop{{Kind: isa.FPMul}}, false)
	var u isa.Uop
	s.Next(&u)
	u = isa.Uop{}
	s.Next(&u)
	if u.Kind != isa.Nop {
		t.Errorf("past-end uop = %v, want NOP", u.Kind)
	}
}

// A replayed trace drives the simulator just like the generator it was
// captured from: same IPC on the same machine.
func TestReplayMatchesGeneratorIPC(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in short mode")
	}
	cfg := isa.IvyBridge()
	cfg.Cores = 2
	spec, _ := workload.ByName("456.hmmer")

	run := func(s engine.Stream) float64 {
		chip := engine.MustNew(cfg)
		chip.Assign(0, 0, s)
		chip.Prewarm(20000)
		chip.Run(5000)
		chip.ResetCounters()
		chip.Run(15000)
		return chip.Counters(0, 0).IPC()
	}
	genIPC := run(workload.NewGen(spec, 42))

	// Capture enough uops to cover prewarm + the measured window, loop it.
	trace := Capture(workload.NewGen(spec, 42), 150_000)
	st := NewStream(trace, true)
	st.DeclareFootprint(spec.FootprintBytes)
	replayIPC := run(st)
	if diff := replayIPC - genIPC; diff > 0.05*genIPC || diff < -0.05*genIPC {
		t.Errorf("replay IPC %.3f differs from generator IPC %.3f", replayIPC, genIPC)
	}
}

func TestWriterCount(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	u := isa.Uop{Kind: isa.IntAdd}
	for i := 0; i < 7; i++ {
		if err := w.Write(&u); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 7 {
		t.Errorf("count = %d", w.Count())
	}
}
