package cluster

import (
	"sort"
	"testing"

	"repro/internal/xrand"
)

func TestIheapOrdering(t *testing.T) {
	h := newIheap()
	r := xrand.New(3)
	type key struct {
		at  float64
		seq uint64
	}
	keys := make(map[int64]key)
	for i := int64(0); i < 500; i++ {
		k := key{at: float64(r.Intn(50)), seq: r.Uint64() % 8}
		keys[i] = k
		h.Push(k.at, k.seq, i)
	}
	want := make([]int64, 0, len(keys))
	for hdl := range keys {
		want = append(want, hdl)
	}
	sort.Slice(want, func(i, j int) bool {
		a, b := keys[want[i]], keys[want[j]]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		return want[i] < want[j]
	})
	for i, hdl := range want {
		if h.Min().handle != hdl {
			t.Fatalf("pop %d: Min = %d, want %d", i, h.Min().handle, hdl)
		}
		if got := h.Pop().handle; got != hdl {
			t.Fatalf("pop %d: got %d, want %d", i, got, hdl)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("heap not drained: %d left", h.Len())
	}
}

// TestIheapRemove removes random handles mid-stream and checks the
// remaining pops stay sorted and complete.
func TestIheapRemove(t *testing.T) {
	h := newIheap()
	r := xrand.New(17)
	const n = 400
	at := make(map[int64]float64, n)
	for i := int64(0); i < n; i++ {
		at[i] = r.Float64() * 100
		h.Push(at[i], 0, i)
	}
	removed := make(map[int64]bool)
	for i := int64(0); i < n; i += 3 {
		if !h.Remove(i) {
			t.Fatalf("Remove(%d) reported absent", i)
		}
		removed[i] = true
	}
	if h.Remove(0) {
		t.Fatal("double Remove succeeded")
	}
	last := -1.0
	seen := 0
	for h.Len() > 0 {
		e := h.Pop()
		if removed[e.handle] {
			t.Fatalf("popped removed handle %d", e.handle)
		}
		if e.at < last {
			t.Fatalf("out of order: %g after %g", e.at, last)
		}
		last = e.at
		seen++
	}
	if want := n - len(removed); seen != want {
		t.Fatalf("popped %d entries, want %d", seen, want)
	}
}

func TestIheapHandleReusePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate handle did not panic")
		}
	}()
	h := newIheap()
	h.Push(1, 0, 7)
	h.Push(2, 0, 7)
}

// TestIheapReuseAfterRelease: a handle may be pushed again once Remove or
// Pop has released it, and the re-pushed entry orders by its new key.
func TestIheapReuseAfterRelease(t *testing.T) {
	h := newIheap()
	h.Push(5, 0, 1)
	h.Push(3, 0, 2)
	if !h.Remove(1) {
		t.Fatal("Remove(1) reported absent")
	}
	h.Push(1, 0, 1) // re-push after Remove
	if got := h.Pop(); got.handle != 1 || got.at != 1 {
		t.Fatalf("Pop = %+v, want handle 1 at 1", got)
	}
	h.Push(0, 0, 1) // re-push after Pop
	if got := h.Min(); got.handle != 1 || got.at != 0 {
		t.Fatalf("Min = %+v, want handle 1 at 0", got)
	}
	if h.Len() != 2 {
		t.Fatalf("Len = %d, want 2", h.Len())
	}
}

// TestIheapRemoveAbsent: Remove reports false, and leaves the heap alone,
// for handles that were never pushed, are negative, lie past every pushed
// handle, or are live in another heap sharing the index.
func TestIheapRemoveAbsent(t *testing.T) {
	hs := sharedIheaps(2)
	a, b := &hs[0], &hs[1]
	a.Push(1, 0, 0)
	a.Push(2, 0, 4)
	b.Push(3, 0, 2)
	for _, hdl := range []int64{1, 3, -1, -1 << 40, 5, 1 << 40, 2} {
		if a.Remove(hdl) {
			t.Errorf("Remove(%d) on heap a reported present", hdl)
		}
	}
	if a.Len() != 2 || b.Len() != 1 {
		t.Fatalf("Len = %d/%d after absent removes, want 2/1", a.Len(), b.Len())
	}
	if !b.Remove(2) || b.Len() != 0 {
		t.Fatal("Remove(2) on heap b failed")
	}
	if a.Pop().handle != 0 || a.Pop().handle != 4 {
		t.Fatal("heap a lost its order")
	}
}

func TestIheapSharedHandleReusePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("handle live in a sibling heap did not panic")
		}
	}()
	hs := sharedIheaps(2)
	hs[0].Push(0, 0, 3)
	hs[1].Push(0, 0, 3)
}

func TestIheapNegativeHandlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative handle did not panic")
		}
	}()
	newIheap().Push(0, 0, -1)
}

// TestIheapDifferential interleaves seeded Push/Pop/Remove operations
// against a sorted-slice reference: after every operation the heap's
// length and minimum match the reference, and every Remove agrees on
// presence.
func TestIheapDifferential(t *testing.T) {
	const ops, handles = 20_000, 256
	r := xrand.New(41)
	h := newIheap()
	var ref []heapEntry // sorted by (at, seq, handle), independently of less
	refLess := func(a, b heapEntry) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		return a.handle < b.handle
	}
	find := func(hdl int64) int {
		for i, e := range ref {
			if e.handle == hdl {
				return i
			}
		}
		return -1
	}
	for op := 0; op < ops; op++ {
		switch k := r.Intn(10); {
		case k < 5: // Push a handle that is not live
			hdl := int64(r.Intn(handles))
			if find(hdl) >= 0 {
				continue
			}
			e := heapEntry{at: float64(r.Intn(64)), seq: r.Uint64() % 4, handle: hdl}
			h.Push(e.at, e.seq, e.handle)
			i := sort.Search(len(ref), func(i int) bool { return refLess(e, ref[i]) })
			ref = append(ref, heapEntry{})
			copy(ref[i+1:], ref[i:])
			ref[i] = e
		case k < 7: // Pop
			if len(ref) == 0 {
				continue
			}
			if got := h.Pop(); got != ref[0] {
				t.Fatalf("op %d: Pop = %+v, want %+v", op, got, ref[0])
			}
			ref = ref[1:]
		default: // Remove, live or not, in or out of range
			hdl := int64(r.Intn(handles+8)) - 4
			i := find(hdl)
			if got := h.Remove(hdl); got != (i >= 0) {
				t.Fatalf("op %d: Remove(%d) = %v, want %v", op, hdl, got, i >= 0)
			}
			if i >= 0 {
				ref = append(ref[:i], ref[i+1:]...)
			}
		}
		if h.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, h.Len(), len(ref))
		}
		if len(ref) > 0 && h.Min() != ref[0] {
			t.Fatalf("op %d: Min = %+v, want %+v", op, h.Min(), ref[0])
		}
	}
}
