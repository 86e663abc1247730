package cluster

import "math/bits"

// This file holds the two structures a shard's event loop runs on: the
// occupancy buckets admission scans (idSet) and the pending-departure
// queue merged with the exogenous stream (departures).

// idSet is one occupancy bucket: a dense bitset of the local machine ids
// in it, grown lazily to the largest id it has held, plus its member
// count. Its minimum is the lowest machine id — the placement tie-break.
type idSet struct {
	words []uint64
	n     int32 // members
	lo    int32 // no member lives in a word below lo
}

// add inserts id, reporting whether the set was empty; it panics if id is
// already a member, since a machine sits in one bucket at a time.
func (b *idSet) add(id int32) (first bool) {
	w := int(id >> 6)
	if w >= len(b.words) {
		b.words = append(b.words, make([]uint64, w+1-len(b.words))...)
	}
	bit := uint64(1) << (id & 63)
	if b.words[w]&bit != 0 {
		panic("cluster: machine already in its occupancy bucket")
	}
	b.words[w] |= bit
	if int32(w) < b.lo {
		b.lo = int32(w)
	}
	b.n++
	return b.n == 1
}

// remove deletes id, reporting whether the set is now empty; it panics if
// id is not a member.
func (b *idSet) remove(id int32) (emptied bool) {
	w := int(id >> 6)
	bit := uint64(1) << (id & 63)
	if w >= len(b.words) || b.words[w]&bit == 0 {
		panic("cluster: machine not in its occupancy bucket")
	}
	b.words[w] &^= bit
	b.n--
	return b.n == 0
}

// min returns the lowest member; the set must not be empty.
func (b *idSet) min() int32 {
	for w := b.lo; ; w++ {
		if x := b.words[w]; x != 0 {
			b.lo = w
			return w<<6 | int32(bits.TrailingZeros64(x))
		}
	}
}

// departure is one pending job departure, 16 bytes.
type departure struct {
	at     float64
	handle int64
}

func (d departure) before(o departure) bool {
	return d.at < o.at || (d.at == o.at && d.handle < o.handle)
}

// departures is a 4-ary min-heap of pending departures ordered by
// (at, handle). Handles count up in placement order, so equal-time
// departures fire in the order their jobs were placed. A decommission does
// not dig its machine's departures out: releasing the handle (owner −1)
// cancels the entry, and live drops it once it reaches the head.
type departures []departure

func (q *departures) push(at float64, handle int64) {
	e := departure{at, handle}
	*q = append(*q, e)
	d, i := *q, len(*q)-1
	for ; i > 0 && e.before(d[(i-1)/4]); i = (i - 1) / 4 {
		d[i] = d[(i-1)/4]
	}
	d[i] = e
}

// pop removes and returns the head; the queue must not be empty.
func (q *departures) pop() departure {
	d := *q
	top, last := d[0], d[len(d)-1]
	d = d[:len(d)-1]
	i := 0
	for c := 1; c < len(d); c = 4*i + 1 {
		m := c
		for j := c + 1; j < min(c+4, len(d)); j++ {
			if d[j].before(d[m]) {
				m = j
			}
		}
		if !d[m].before(last) {
			break
		}
		d[i], i = d[m], m
	}
	if i < len(d) {
		d[i] = last
	}
	*q = d
	return top
}

// live drops released departures off the head and reports whether a live
// one remains there, at (*q)[0]. Dropped entries are not events: their
// jobs were evicted and already accounted.
func (q *departures) live(owner []int32) bool {
	for len(*q) > 0 && owner[(*q)[0].handle] < 0 {
		q.pop()
	}
	return len(*q) > 0
}
