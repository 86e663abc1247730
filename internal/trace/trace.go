// Package trace records and replays micro-op streams in a compact binary
// format.
//
// The workload models are generative; traces make them portable: capture a
// window of any stream (a workload, a Ruler, or a hand-built generator),
// store it, and replay it bit-exactly on any machine configuration. Looped
// replay turns a finite capture into the stationary infinite stream the
// measurement windows expect — the trace-driven analogue of the paper's
// long-running WSC applications.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/sim/isa"
)

// magic identifies trace files; version gates the encoding.
var magic = [4]byte{'S', 'M', 'T', 'R'}

const version = 1

// Flag bits of the per-uop header byte.
const (
	flagDep1 = 1 << iota
	flagDep2
	flagAddr
	flagBranch
	flagTaken
	flagICache
	flagITLB

	// flagsKnown is every bit the writer may set.
	flagsKnown = flagITLB<<1 - 1
)

// ErrCorrupt marks input that Writer cannot have produced: a bad header, a
// truncated uop, an unknown kind or flag bit, a field the uop's kind never
// carries, a zero dependency, a non-shortest varint or a value wider than
// its Uop field. ReadAll wraps it in every such error, so a trace it
// accepts writes back to the same bytes.
var ErrCorrupt = errors.New("trace: corrupt trace")

// Writer encodes micro-ops to an output stream.
type Writer struct {
	w     *bufio.Writer
	count uint64
	buf   [binary.MaxVarintLen64]byte
}

// NewWriter starts a trace on w, writing the header immediately.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	if err := bw.WriteByte(version); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw}, nil
}

func (t *Writer) varint(v uint64) error {
	n := binary.PutUvarint(t.buf[:], v)
	_, err := t.w.Write(t.buf[:n])
	return err
}

// Write appends one micro-op.
func (t *Writer) Write(u *isa.Uop) error {
	if err := t.w.WriteByte(byte(u.Kind)); err != nil {
		return fmt.Errorf("trace: writing uop: %w", err)
	}
	var flags byte
	if u.Dep1 != 0 {
		flags |= flagDep1
	}
	if u.Dep2 != 0 {
		flags |= flagDep2
	}
	if u.Kind == isa.Load || u.Kind == isa.Store {
		flags |= flagAddr
	}
	if u.Kind == isa.Branch {
		flags |= flagBranch
		if u.Taken {
			flags |= flagTaken
		}
	}
	if u.ICacheMiss {
		flags |= flagICache
	}
	if u.ITLBMiss {
		flags |= flagITLB
	}
	if err := t.w.WriteByte(flags); err != nil {
		return fmt.Errorf("trace: writing uop: %w", err)
	}
	if flags&flagDep1 != 0 {
		if err := t.varint(uint64(u.Dep1)); err != nil {
			return err
		}
	}
	if flags&flagDep2 != 0 {
		if err := t.varint(uint64(u.Dep2)); err != nil {
			return err
		}
	}
	if flags&flagAddr != 0 {
		if err := t.varint(u.Addr); err != nil {
			return err
		}
	}
	if flags&flagBranch != 0 {
		if err := t.varint(uint64(u.BrTag)); err != nil {
			return err
		}
	}
	t.count++
	return nil
}

// Count returns the number of uops written.
func (t *Writer) Count() uint64 { return t.count }

// Flush pushes buffered bytes to the underlying writer.
func (t *Writer) Flush() error { return t.w.Flush() }

// ReadAll decodes a whole trace. Malformed input yields an error wrapping
// ErrCorrupt; an error of r itself is wrapped instead.
func ReadAll(r io.Reader) ([]isa.Uop, error) {
	br := bufio.NewReader(r)
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, readErr("header", err)
	}
	if [4]byte{hdr[0], hdr[1], hdr[2], hdr[3]} != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[:4])
	}
	if hdr[4] != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, hdr[4])
	}
	var out []isa.Uop
	for {
		kindB, err := br.ReadByte()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, readErr(fmt.Sprintf("uop %d", len(out)), err)
		}
		if kindB >= byte(isa.NumKinds) {
			return nil, fmt.Errorf("%w: uop %d has invalid kind %d", ErrCorrupt, len(out), kindB)
		}
		flags, err := br.ReadByte()
		if err != nil {
			return nil, readErr(fmt.Sprintf("uop %d flags", len(out)), err)
		}
		u := isa.Uop{Kind: isa.UopKind(kindB)}
		// The writer sets the address flag exactly on loads and stores, the
		// branch flag exactly on branches and the taken bit only beside it.
		mem := u.Kind == isa.Load || u.Kind == isa.Store
		branch := u.Kind == isa.Branch
		if flags&^flagsKnown != 0 || (flags&flagAddr != 0) != mem ||
			(flags&flagBranch != 0) != branch || (!branch && flags&flagTaken != 0) {
			return nil, fmt.Errorf("%w: uop %d: flags %#02x do not fit kind %v", ErrCorrupt, len(out), flags, u.Kind)
		}
		field := func(name string, min, max uint64) (uint64, error) {
			v, err := uvarint(br, min, max)
			if err != nil {
				return 0, readErr(fmt.Sprintf("uop %d %s", len(out), name), err)
			}
			return v, nil
		}
		if flags&flagDep1 != 0 {
			v, err := field("dep1", 1, math.MaxUint16)
			if err != nil {
				return nil, err
			}
			u.Dep1 = uint16(v)
		}
		if flags&flagDep2 != 0 {
			v, err := field("dep2", 1, math.MaxUint16)
			if err != nil {
				return nil, err
			}
			u.Dep2 = uint16(v)
		}
		if mem {
			if u.Addr, err = field("addr", 0, math.MaxUint64); err != nil {
				return nil, err
			}
		}
		if branch {
			v, err := field("brtag", 0, math.MaxUint32)
			if err != nil {
				return nil, err
			}
			u.BrTag = uint32(v)
			u.Taken = flags&flagTaken != 0
		}
		u.ICacheMiss = flags&flagICache != 0
		u.ITLBMiss = flags&flagITLB != 0
		out = append(out, u)
	}
}

// uvarint reads one varint in the shortest form binary.PutUvarint writes,
// requiring min <= v <= max. Any other encoding is ErrCorrupt.
func uvarint(br io.ByteReader, min, max uint64) (uint64, error) {
	var v uint64
	for i := 0; ; i++ {
		b, err := br.ReadByte()
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return 0, err
		}
		if i == binary.MaxVarintLen64-1 && b > 1 {
			return 0, fmt.Errorf("%w: varint overflows 64 bits", ErrCorrupt)
		}
		v |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			switch {
			case b == 0 && i > 0:
				return 0, fmt.Errorf("%w: varint not in shortest form", ErrCorrupt)
			case v < min || v > max:
				return 0, fmt.Errorf("%w: %d outside [%d, %d]", ErrCorrupt, v, min, max)
			}
			return v, nil
		}
	}
}

// readErr labels a read failure at what: input that ends early is
// ErrCorrupt, any other reader error passes through wrapped.
func readErr(what string, err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: %s truncated", ErrCorrupt, what)
	}
	return fmt.Errorf("trace: reading %s: %w", what, err)
}

// Source is anything producing micro-ops (engine.Stream-shaped).
type Source interface {
	Next(u *isa.Uop)
}

// Capture records n micro-ops from a source.
func Capture(s Source, n int) []isa.Uop {
	out := make([]isa.Uop, n)
	for i := range out {
		out[i] = isa.Uop{}
		s.Next(&out[i])
	}
	return out
}

// Stream replays a captured trace; when Loop is set it wraps around
// forever, otherwise it pads with Nops after the end.
type Stream struct {
	uops []isa.Uop
	pos  int
	loop bool
	// footprint optionally declares resident regions for cache prewarm.
	footprint []uint64
}

// NewStream builds a replay stream.
func NewStream(uops []isa.Uop, loop bool) *Stream {
	return &Stream{uops: uops, loop: loop}
}

// DeclareFootprint attaches resident-region sizes for the engine's
// functional prewarm (traces carry no generative locality model, so the
// recorder supplies it).
func (s *Stream) DeclareFootprint(sizes ...uint64) { s.footprint = sizes }

// PrewarmFootprint implements engine.FootprintDeclarer.
func (s *Stream) PrewarmFootprint() []uint64 { return s.footprint }

// Next implements engine.Stream.
func (s *Stream) Next(u *isa.Uop) {
	if len(s.uops) == 0 || (!s.loop && s.pos >= len(s.uops)) {
		u.Kind = isa.Nop
		return
	}
	*u = s.uops[s.pos%len(s.uops)]
	s.pos++
}

// Len returns the trace length.
func (s *Stream) Len() int { return len(s.uops) }
