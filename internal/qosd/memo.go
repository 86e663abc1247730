package qosd

import "sync"

// memoCapacity bounds the prediction memo. A full memo is cleared rather
// than evicted entry by entry: refilling it costs one closed-form
// evaluation per key. At capacity it measures about 126 bytes per entry
// (key, value and map overhead, Go 1.24 on amd64; the key's strings are
// the registry's own), so it never holds more than about 2 MB, whatever
// the traffic.
const memoCapacity = 1 << 14

// memoKey identifies one engine-tier prediction within a registry
// generation. threads == 0 is the full-occupancy pair prediction.
type memoKey struct {
	victim, aggressor  string
	instances, threads int
}

// predMemo holds the engine-tier answers of one registry generation.
//
// The value it saves is model.Smite.PredictPartial, a closed form that
// costs about as much as one map lookup, so the memo buys no speed. It is
// kept because its hit, miss and entry counts are wire contract: the
// /metrics prediction_cache block and the qosd_prediction_cache_*
// OpenMetrics gauges report them. It never simulates, so it needs no
// single flight; a mutex guards the map and the counters.
type predMemo struct {
	mu           sync.Mutex
	gen          uint64
	entries      map[memoKey]float64
	hits, misses uint64
}

func newPredMemo() *predMemo {
	return &predMemo{entries: make(map[memoKey]float64)}
}

// lookup returns the memoized answer for k under generation gen and
// counts a hit or a miss. A newer generation than the memo's drops every
// entry and becomes the memo's generation; an older one (a snapshot taken
// before an upload that landed mid-request) always misses.
func (p *predMemo) lookup(gen uint64, k memoKey) (float64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if gen > p.gen {
		clear(p.entries)
		p.gen = gen
	}
	if gen == p.gen {
		if deg, ok := p.entries[k]; ok {
			p.hits++
			return deg, true
		}
	}
	p.misses++
	return 0, false
}

// store records deg for k if gen is still the memo's generation, so an
// answer computed from a superseded snapshot is never served to a later
// request. A full memo is cleared first.
func (p *predMemo) store(gen uint64, k memoKey, deg float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if gen != p.gen {
		return
	}
	if len(p.entries) >= memoCapacity {
		clear(p.entries)
	}
	p.entries[k] = deg
}

// Stats snapshots the counters in the /metrics shape.
func (p *predMemo) Stats() CacheMetrics {
	p.mu.Lock()
	defer p.mu.Unlock()
	return CacheMetrics{Hits: p.hits, Misses: p.misses, Entries: len(p.entries)}
}
