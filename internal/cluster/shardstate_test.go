package cluster

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	clworkload "repro/internal/cluster/workload"
	"repro/internal/isol"
	"repro/internal/xrand"
)

// refDeparturesLess orders the reference queue by (at, handle),
// independently of departure.before.
func refDeparturesLess(a, b departure) int {
	if a.at != b.at {
		if a.at < b.at {
			return -1
		}
		return 1
	}
	return int(a.handle - b.handle)
}

// TestDepartureQueueOrdering pops a queue of dense equal-time ties in
// (at, handle) order.
func TestDepartureQueueOrdering(t *testing.T) {
	var q departures
	r := xrand.New(3)
	var want []departure
	for h := int64(0); h < 500; h++ {
		d := departure{at: float64(r.Intn(50)), handle: h}
		q.push(d.at, d.handle)
		want = append(want, d)
	}
	slices.SortFunc(want, refDeparturesLess)
	for i, w := range want {
		if q[0] != w {
			t.Fatalf("pop %d: head = %+v, want %+v", i, q[0], w)
		}
		if got := q.pop(); got != w {
			t.Fatalf("pop %d: got %+v, want %+v", i, got, w)
		}
	}
	if len(q) != 0 {
		t.Fatalf("queue not drained: %d left", len(q))
	}
}

// TestDepartureQueueDifferential drives the queue with random pushes,
// pops and cancellations (a released owner slot, as a decommission
// leaves it) against a sorted reference of the live departures.
func TestDepartureQueueDifferential(t *testing.T) {
	const ops = 20_000
	r := xrand.New(41)
	var q departures
	var owner []int32
	var ref []departure // live departures, sorted
	for op := 0; op < ops; op++ {
		switch k := r.Intn(10); {
		case k < 5: // push: handles count up, times tie densely
			d := departure{at: float64(r.Intn(64)), handle: int64(len(owner))}
			owner = append(owner, 0)
			q.push(d.at, d.handle)
			i, _ := slices.BinarySearchFunc(ref, d, refDeparturesLess)
			ref = slices.Insert(ref, i, d)
		case k < 7: // pop the live head, as the shard loop does
			if !q.live(owner) {
				if len(ref) != 0 {
					t.Fatalf("op %d: no live head, reference has %d", op, len(ref))
				}
				continue
			}
			got := q.pop()
			if got != ref[0] {
				t.Fatalf("op %d: pop = %+v, want %+v", op, got, ref[0])
			}
			owner[got.handle] = -1
			ref = ref[1:]
		default: // cancel a live departure, often the head
			if len(ref) == 0 {
				continue
			}
			i := 0
			if r.Intn(2) == 0 {
				i = r.Intn(len(ref))
			}
			owner[ref[i].handle] = -1
			ref = slices.Delete(ref, i, i+1)
		}
		if live := q.live(owner); live != (len(ref) > 0) || (live && q[0] != ref[0]) {
			t.Fatalf("op %d: live head %v (%+v), reference %d live", op, live, q, len(ref))
		}
	}
}

// TestIDSetDifferential drives one bucket with random adds and removes
// against a reference set, over ids spanning several words and a range
// that grows as MachineUp events append machines.
func TestIDSetDifferential(t *testing.T) {
	r := xrand.New(5)
	var b idSet
	ref := map[int32]bool{}
	hi := 1
	for op := 0; op < 20_000; op++ {
		if r.Intn(50) == 0 && hi < 600 {
			hi += 1 + r.Intn(40) // new machines come up
		}
		id := int32(r.Intn(hi))
		if ref[id] {
			if emptied := b.remove(id); emptied != (len(ref) == 1) {
				t.Fatalf("op %d: remove(%d) emptied = %v with %d members", op, id, emptied, len(ref))
			}
			delete(ref, id)
		} else {
			if first := b.add(id); first != (len(ref) == 0) {
				t.Fatalf("op %d: add(%d) first = %v with %d members", op, id, first, len(ref))
			}
			ref[id] = true
		}
		if int(b.n) != len(ref) {
			t.Fatalf("op %d: n = %d, want %d", op, b.n, len(ref))
		}
		if len(ref) > 0 {
			want := int32(math.MaxInt32)
			for m := range ref {
				want = min(want, m)
			}
			if got := b.min(); got != want {
				t.Fatalf("op %d: min = %d, want %d", op, got, want)
			}
		}
	}
	if hi < 256 {
		t.Fatalf("ids reached only %d, want several words", hi)
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

// A machine sits in one bucket at a time: adding a member or removing a
// non-member would corrupt the count and the row masks, so both panic.
func TestIDSetMisusePanics(t *testing.T) {
	var b idSet
	b.add(70)
	mustPanic(t, "add of a member", func() { b.add(70) })
	mustPanic(t, "remove of an absent id in range", func() { b.remove(69) })
	mustPanic(t, "remove of an id past the words", func() { b.remove(200) })
	if b.n != 1 || b.min() != 70 {
		t.Fatalf("set changed by rejected calls: n %d", b.n)
	}
}

// scanWorld builds an empty shard over hand-made tables of the given
// shape: nGens generations, nLevels isolation levels.
func scanWorld(r *xrand.Rand, nGens, nLevels, nLat, nBatch, maxInst int) *shardSim {
	w := &simWorld{}
	if nLevels > 1 {
		w.levels = make([]isol.Setting, nLevels)
	}
	for range nGens {
		pt := &PredTable{MaxInstances: maxInst, PredQoS: make([]float64, nLat*nBatch*maxInst)}
		for i := range nLat {
			pt.LatencyApps = append(pt.LatencyApps, fmt.Sprintf("l%d", i))
		}
		for i := range nBatch {
			pt.BatchApps = append(pt.BatchApps, fmt.Sprintf("b%d", i))
		}
		for i := range pt.PredQoS {
			pt.PredQoS[i] = float64(r.Intn(4)) / 4
		}
		w.tables = append(w.tables, pt)
	}
	cfg := &SimConfig{Workload: clworkload.Config{Lats: nLat, Batches: nBatch}, Shards: 1}
	return newShardSim(cfg, w, 0)
}

// randomState draws a machine state: empty, or up to maxInst instances of
// one batch app at some level.
func randomState(r *xrand.Rand, s *shardSim, m *simMachine) {
	m.batch, m.n, m.level = -1, 0, 0
	if r.Intn(4) > 0 {
		m.batch, m.n = int16(r.Intn(s.nBatch)), int16(1+r.Intn(s.maxInst))
		m.level = int16(r.Intn(s.nLevels))
	}
}

// bruteScan is the bucket scan written out over the machines themselves:
// every (generation, level, lat, occupancy) state in scan order, the
// lowest machine id in it, strict < on the score.
func bruteScan(s *shardSim, b int, gates [][]gate) int32 {
	type key struct{ gen, level, lat, batch, n int16 }
	lowest := map[key]int32{}
	for i := len(s.machines) - 1; i >= 0; i-- {
		m := s.machines[i]
		lowest[key{m.gen, m.level, m.lat, m.batch, m.n}] = int32(i)
	}
	best, bestScore := int32(-1), math.Inf(1)
	for gen := 0; gen < s.nGens; gen++ {
		t := s.w.tables[gen]
		for level := 0; level < s.nLevels; level++ {
			g := gates[gen][level]
			for lat := 0; lat < s.nLat; lat++ {
				for n := 0; n < s.maxInst; n++ {
					k := key{int16(gen), int16(level), int16(lat), int16(b), int16(n)}
					if n == 0 {
						if level > 0 {
							continue
						}
						k.batch = -1
					}
					id, ok := lowest[k]
					cell := t.Cell(lat, b, n+1)
					if !ok || !g.admit[cell] {
						continue
					}
					sc := g.slack[cell]
					if s.w.alloc != nil {
						sc = s.w.alloc(sc, n+1, predDegOf(t, cell))
					}
					if sc < bestScore {
						best, bestScore = id, sc
					}
				}
			}
		}
	}
	return best
}

// TestScanMatchesBruteForce holds the masked bucket scan to a brute-force
// scan of the machines on random shard states, under every allocation
// policy, on tables whose rows fit one mask word and on tables with
// MaxInstances ≥ 64, whose rows span two and three.
func TestScanMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct{ gens, levels, lat, batch, maxInst int }{
		{1, 1, 3, 4, 6},
		{2, 3, 2, 3, 6},
		{1, 1, 2, 2, 63},
		{1, 2, 2, 2, 64},
		{2, 2, 2, 2, 130},
	} {
		t.Run(fmt.Sprintf("%dx%dx%dx%dx%d", tc.gens, tc.levels, tc.lat, tc.batch, tc.maxInst), func(t *testing.T) {
			r := xrand.New(uint64(tc.maxInst*31 + tc.gens))
			s := scanWorld(r, tc.gens, tc.levels, tc.lat, tc.batch, tc.maxInst)
			gates := make([][]gate, tc.gens)
			for gen := range gates {
				for range tc.levels {
					cells := len(s.w.tables[gen].PredQoS)
					g := gate{admit: make([]bool, cells), slack: make([]float64, cells)}
					for i := range g.admit {
						g.admit[i] = r.Intn(4) > 0
						g.slack[i] = float64(r.Intn(5)) / 10 // dense ties
					}
					gates[gen] = append(gates[gen], g)
				}
			}
			for local := range int32(300) {
				m := simMachine{lat: int16(r.Intn(tc.lat)), gen: int16(r.Intn(tc.gens))}
				randomState(r, s, &m)
				s.machines = append(s.machines, m)
				s.occupy(local)
			}
			for round := 0; round < 40; round++ {
				for range 25 {
					local := int32(r.Intn(len(s.machines)))
					s.vacate(local)
					randomState(r, s, &s.machines[local])
					s.occupy(local)
				}
				for _, p := range append([]AllocPolicy{{Name: "default"}}, AllocPolicies()...) {
					s.w.alloc = p.Score
					for b := 0; b < tc.batch; b++ {
						if got, want := s.scan(b, gates), bruteScan(s, b, gates); got != want {
							t.Fatalf("round %d, alloc %s, batch %d: scan picked %d, brute force %d", round, p.Name, b, got, want)
						}
					}
				}
			}
		})
	}
}

// tieConfig is a one-shard fleet of one-instance machines on which every
// placement is admissible, for hand-built event streams.
func tieConfig(machines int) SimConfig {
	return SimConfig{
		Workload: clworkload.Config{Machines: machines, Horizon: 1, Lats: 1, Batches: 1, ArrivalRate: 1, MeanDuration: 1},
		Shards:   1, Policy: PolicySMiTe, Target: 0.5,
		ThreadsPerServer: 1, ContextsPerServer: 2,
		Table: &PredTable{
			LatencyApps: []string{"l"}, BatchApps: []string{"b"}, MaxInstances: 1,
			PredQoS: []float64{1}, ActualQoS: []float64{1},
		},
	}
}

func arrive(at, dur float64, seq uint32) clworkload.Event {
	return clworkload.Event{At: at, Param: dur, Seq: seq, Kind: clworkload.KindJobArrive}
}

// A departure and an arrival at the same instant: the departure fires
// first, so the arrival finds the capacity it freed. In the second case a
// decommission has cancelled the departure at the head of the queue,
// which ties with a live one behind it; the cancelled entry is dropped
// unaccounted and the live one still fires first.
func TestDepartureBeforeArrivalAtTie(t *testing.T) {
	for _, tc := range []struct {
		name      string
		machines  int
		events    []clworkload.Event
		processed int   // events the loop counts
		evicted   int   // jobs killed by the decommission
		admitted  int64 // global machine taking the tying arrival
	}{
		{"full machine", 1, []clworkload.Event{arrive(0.1, 0.4, 0), arrive(0.5, 1, 1)}, 3, 0, 0},
		{"cancelled head", 2, []clworkload.Event{
			arrive(0.1, 0.4, 0), arrive(0.2, 0.3, 1),
			{At: 0.3, Param: 0, Seq: 2, Kind: clworkload.KindMachineDown},
			arrive(0.5, 1, 3),
		}, 5, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunSim(context.Background(), tieConfig(tc.machines), [][]clworkload.Event{tc.events}, 1)
			if err != nil {
				t.Fatal(err)
			}
			log := res.Log()
			last := log[len(log)-1]
			if res.Rejected != 0 || last.At != 0.5 || last.Machine != tc.admitted {
				t.Fatalf("arrival at the departure's instant went to machine %d (rejected %d), want %d", last.Machine, res.Rejected, tc.admitted)
			}
			if res.Events != tc.processed || res.Departed != 1 || res.Evicted != tc.evicted {
				t.Fatalf("events %d, departed %d, evicted %d; want %d, 1, %d", res.Events, res.Departed, res.Evicted, tc.processed, tc.evicted)
			}
		})
	}
}
