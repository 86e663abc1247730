package cluster

import "slices"

// iheap is an indexed min-heap: entries are ordered by (at, seq, handle)
// and addressable by handle, so the simulator can cancel a decommissioned
// machine's pending departure events in O(log n) instead of tombstoning
// them. Each shard owns one iheap as its event queue; the placement
// buckets reuse the same structure with at = seq = 0, which degenerates
// the ordering to "lowest handle first" — exactly the deterministic
// lowest-machine-id tie-break placement needs.
//
// Handles are small non-negative integers (departure handles count up from
// 0 per shard, bucket handles are local machine ids), so the handle →
// position index is a dense slice rather than a map. Several heaps may
// share one index when a handle lives in at most one of them at a time:
// every machine sits in exactly one occupancy bucket, so a shard's buckets
// share a single index of O(machines) entries instead of one per bucket.
//
// Handles must be unique among the live entries of every heap sharing an
// index; Push panics on reuse because a duplicate would silently corrupt
// the position index.
type iheap struct {
	items []heapEntry
	idx   *heapIndex
}

// heapIndex maps a handle to its position in the items of whichever heap
// holds it; −1 marks a handle that is in no heap.
type heapIndex struct {
	pos []int32
}

type heapEntry struct {
	at     float64
	seq    uint64
	handle int64
}

func (e heapEntry) less(o heapEntry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.seq != o.seq {
		return e.seq < o.seq
	}
	return e.handle < o.handle
}

// newIheap returns an empty heap with its own index.
func newIheap() *iheap { return &iheap{idx: &heapIndex{}} }

// sharedIheaps returns n empty heaps sharing one index, for handles that
// live in at most one of them at a time.
func sharedIheaps(n int) []iheap {
	idx := &heapIndex{}
	hs := make([]iheap, n)
	for i := range hs {
		hs[i].idx = idx
	}
	return hs
}

// Len returns the number of live entries.
func (h *iheap) Len() int { return len(h.items) }

// Min returns the smallest entry without removing it; Len must be > 0.
func (h *iheap) Min() heapEntry { return h.items[0] }

// Push inserts an entry; handle must be non-negative and not live.
func (h *iheap) Push(at float64, seq uint64, handle int64) {
	if handle < 0 {
		panic("cluster: iheap handle is negative")
	}
	pos := h.idx.pos
	if n := int(handle) + 1; n > len(pos) {
		old := len(pos)
		pos = slices.Grow(pos, n-old)[:n]
		for i := old; i < n; i++ {
			pos[i] = -1
		}
		h.idx.pos = pos
	}
	if pos[handle] >= 0 {
		panic("cluster: iheap handle reused while live")
	}
	h.items = append(h.items, heapEntry{at: at, seq: seq, handle: handle})
	pos[handle] = int32(len(h.items) - 1)
	h.up(len(h.items) - 1)
}

// Pop removes and returns the smallest entry; Len must be > 0.
func (h *iheap) Pop() heapEntry {
	top := h.items[0]
	h.removeAt(0)
	return top
}

// Remove deletes the entry with the given handle, reporting whether it
// was present in this heap.
func (h *iheap) Remove(handle int64) bool {
	if handle < 0 || handle >= int64(len(h.idx.pos)) {
		return false
	}
	i := int(h.idx.pos[handle])
	if i < 0 || i >= len(h.items) || h.items[i].handle != handle {
		return false // absent, or live in another heap sharing the index
	}
	h.removeAt(i)
	return true
}

func (h *iheap) removeAt(i int) {
	pos := h.idx.pos
	last := len(h.items) - 1
	pos[h.items[i].handle] = -1
	if i != last {
		h.items[i] = h.items[last]
		pos[h.items[i].handle] = int32(i)
	}
	h.items = h.items[:last]
	if i < len(h.items) {
		if !h.down(i) {
			h.up(i)
		}
	}
}

func (h *iheap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.items[i].less(h.items[parent]) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

// down sifts items[i] toward the leaves, reporting whether it moved.
func (h *iheap) down(i int) bool {
	moved := false
	for {
		l, r := 2*i+1, 2*i+2
		if l >= len(h.items) {
			return moved
		}
		c := l
		if r < len(h.items) && h.items[r].less(h.items[l]) {
			c = r
		}
		if !h.items[c].less(h.items[i]) {
			return moved
		}
		h.swap(i, c)
		i = c
		moved = true
	}
}

func (h *iheap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.idx.pos[h.items[i].handle] = int32(i)
	h.idx.pos[h.items[j].handle] = int32(j)
}
