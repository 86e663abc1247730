package simcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestHitMiss(t *testing.T) {
	ctx := context.Background()
	c := New[int]()
	k := KeyOf("a")
	calls := 0
	compute := func(context.Context) (int, error) { calls++; return 42, nil }

	v, hit, err := c.DoContext(ctx, k, compute)
	if err != nil || hit || v != 42 {
		t.Fatalf("first DoContext = (%d, hit=%v, %v), want (42, false, nil)", v, hit, err)
	}
	v, hit, err = c.DoContext(ctx, k, compute)
	if err != nil || !hit || v != 42 {
		t.Fatalf("second DoContext = (%d, hit=%v, %v), want (42, true, nil)", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want {Hits:1 Misses:1 Entries:1}", st)
	}
}

func TestDistinctKeysDistinctValues(t *testing.T) {
	ctx := context.Background()
	c := New[string]()
	for i := 0; i < 10; i++ {
		i := i
		v, hit, err := c.DoContext(ctx, KeyOf("item", i), func(context.Context) (string, error) {
			return fmt.Sprint("v", i), nil
		})
		if err != nil || hit || v != fmt.Sprint("v", i) {
			t.Fatalf("DoContext(%d) = (%q, hit=%v, %v)", i, v, hit, err)
		}
	}
	if st := c.Stats(); st.Entries != 10 || st.Misses != 10 {
		t.Fatalf("stats = %+v, want 10 entries / 10 misses", st)
	}
}

func TestSingleFlight(t *testing.T) {
	ctx := context.Background()
	c := New[int]()
	k := KeyOf("shared")
	var calls atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	const waiters = 8
	var wg sync.WaitGroup
	results := make([]int, waiters)
	// The leader blocks inside compute until release is closed, proving the
	// other goroutines waited on its flight rather than computing.
	go func() {
		v, _, err := c.DoContext(ctx, k, func(context.Context) (int, error) {
			close(started)
			<-release
			calls.Add(1)
			return 7, nil
		})
		if err != nil || v != 7 {
			t.Errorf("leader DoContext = (%d, %v)", v, err)
		}
	}()
	<-started
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.DoContext(ctx, k, func(context.Context) (int, error) {
				calls.Add(1)
				return -1, nil // must never run
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i, v := range results {
		if v != 7 {
			t.Fatalf("waiter %d got %d, want 7", i, v)
		}
	}
}

func TestErrorNotCached(t *testing.T) {
	ctx := context.Background()
	c := New[int]()
	k := KeyOf("flaky")
	boom := errors.New("boom")
	calls := 0

	_, _, err := c.DoContext(ctx, k, func(context.Context) (int, error) { calls++; return 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("DoContext error = %v, want boom", err)
	}
	v, hit, err := c.DoContext(ctx, k, func(context.Context) (int, error) { calls++; return 5, nil })
	if err != nil || hit || v != 5 {
		t.Fatalf("retry DoContext = (%d, hit=%v, %v), want (5, false, nil)", v, hit, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (failure must not be stored)", st.Entries)
	}
}

func TestPanicReleasesWaiters(t *testing.T) {
	ctx := context.Background()
	c := New[int]()
	k := KeyOf("panicky")

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		_, _, _ = c.DoContext(ctx, k, func(context.Context) (int, error) { panic("die") })
	}()
	// The key must be computable again afterwards.
	v, hit, err := c.DoContext(ctx, k, func(context.Context) (int, error) { return 9, nil })
	if err != nil || hit || v != 9 {
		t.Fatalf("DoContext after panic = (%d, hit=%v, %v), want (9, false, nil)", v, hit, err)
	}
}

func TestGet(t *testing.T) {
	ctx := context.Background()
	c := New[int]()
	k := KeyOf("g")
	if _, ok := c.Get(k); ok {
		t.Fatal("Get on empty cache reported ok")
	}
	_, _, _ = c.DoContext(ctx, k, func(context.Context) (int, error) { return 3, nil })
	if v, ok := c.Get(k); !ok || v != 3 {
		t.Fatalf("Get = (%d, %v), want (3, true)", v, ok)
	}
}

func TestKeyOfSensitivity(t *testing.T) {
	type opts struct {
		Warmup  uint64
		Measure uint64
		seed    uint64 // unexported fields must participate too
	}
	base := KeyOf("run", opts{Warmup: 100, Measure: 200, seed: 1}, "SMT", 0.5)
	variants := []Key{
		KeyOf("run", opts{Warmup: 101, Measure: 200, seed: 1}, "SMT", 0.5),
		KeyOf("run", opts{Warmup: 100, Measure: 201, seed: 1}, "SMT", 0.5),
		KeyOf("run", opts{Warmup: 100, Measure: 200, seed: 2}, "SMT", 0.5),
		KeyOf("run", opts{Warmup: 100, Measure: 200, seed: 1}, "CMP", 0.5),
		KeyOf("run", opts{Warmup: 100, Measure: 200, seed: 1}, "SMT", 0.75),
	}
	for i, v := range variants {
		if v == base {
			t.Errorf("variant %d collided with base key", i)
		}
	}
	if again := KeyOf("run", opts{Warmup: 100, Measure: 200, seed: 1}, "SMT", 0.5); again != base {
		t.Error("identical parts produced different keys")
	}
	// Part boundaries must matter: ("ab","c") vs ("a","bc").
	if KeyOf("ab", "c") == KeyOf("a", "bc") {
		t.Error("part-boundary collision")
	}
}

// TestConcurrentMixed hammers one cache from many goroutines across
// overlapping keys; run under -race this validates the synchronisation.
func TestConcurrentMixed(t *testing.T) {
	ctx := context.Background()
	c := New[int]()
	const (
		goroutines = 16
		iterations = 200
		keys       = 23
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				id := (g*iterations + i*7) % keys
				v, _, err := c.DoContext(ctx, KeyOf("k", id), func(context.Context) (int, error) {
					if id%5 == 4 {
						return 0, errors.New("transient")
					}
					return id * 3, nil
				})
				if err == nil && v != id*3 {
					t.Errorf("key %d -> %d, want %d", id, v, id*3)
					return
				}
				c.Get(KeyOf("k", id))
				c.Stats()
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != goroutines*iterations {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, goroutines*iterations)
	}
}
