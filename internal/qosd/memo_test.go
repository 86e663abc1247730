package qosd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"repro/smite"
)

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// Registry generations come and go for the life of a daemon (every upload
// and model swap is one), so the memo must hold only the current one's
// entries and the live heap must not grow with the number of bumps.
func TestMemoBoundedAcrossGenerations(t *testing.T) {
	const bumps = 10_000
	s, _ := newTestServer(t, Config{})
	ctx := context.Background()
	type query struct {
		aggressor          string
		instances, threads int
	}
	queries := []query{{"429.mcf", 0, 0}, {"444.namd", 0, 0}, {"429.mcf", 1, 2}, {"429.mcf", 2, 4}}
	bystander := []smite.Characterization{{App: "bystander", SoloIPC: 1}}
	var heapAt100 uint64
	for i := 1; i <= bumps; i++ {
		s.reg.AddProfiles(bystander)
		for _, q := range queries {
			if _, err := s.predict(ctx, "web-search", q.aggressor, q.instances, q.threads); err != nil {
				t.Fatalf("bump %d: predict %+v: %v", i, q, err)
			}
		}
		if n := s.memo.Stats().Entries; n > len(queries) {
			t.Fatalf("bump %d: memo holds %d entries, the generation has %d distinct keys", i, n, len(queries))
		}
		switch i {
		case 100:
			heapAt100 = liveHeap()
		case bumps:
			const margin = 1 << 20
			if h := liveHeap(); h > heapAt100+margin {
				t.Errorf("live heap grew from %d B at bump 100 to %d B at bump %d (margin %d B)", heapAt100, h, bumps, margin)
			}
		}
	}
}

// Within one generation a client can mint keys at will by varying the
// occupancy, so the memo clears itself at capacity; answers stay exact.
func TestMemoBoundedWithinGeneration(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ctx := context.Background()
	chars, m := testChars(), testModel()
	maxThreads := 1
	for maxThreads*(maxThreads+1)/2 <= memoCapacity {
		maxThreads++
	}
	for threads := 1; threads <= maxThreads; threads++ {
		for instances := 1; instances <= threads; instances++ {
			want := m.PredictPartial(chars[0], chars[1], instances, threads)
			// Twice: a miss that stores, then a hit on the stored answer.
			for rep := 0; rep < 2; rep++ {
				got, err := s.predict(ctx, "web-search", "429.mcf", instances, threads)
				if err != nil {
					t.Fatalf("predict %d/%d: %v", instances, threads, err)
				}
				if got.deg != want {
					t.Fatalf("predict %d/%d (ask %d) = %v, want %v", instances, threads, rep+1, got.deg, want)
				}
			}
			if n := s.memo.Stats().Entries; n > memoCapacity {
				t.Fatalf("memo holds %d entries, capacity %d", n, memoCapacity)
			}
		}
	}
	if st := s.memo.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Errorf("memo stats %+v: want both hits and misses", st)
	}
}

// A request whose snapshot predates the memo's generation (an upload
// landed mid-request) must not store its answer where a request of the
// newer generation would hit it.
func TestMemoDropsStaleGenerationAnswers(t *testing.T) {
	p := newPredMemo()
	k := memoKey{victim: "web-search", aggressor: "429.mcf"}
	if _, hit := p.lookup(3, k); hit {
		t.Fatal("empty memo hit")
	}
	p.store(3, k, 0.3)
	if _, hit := p.lookup(2, k); hit {
		t.Error("generation-2 lookup hit a generation-3 entry")
	}
	p.store(2, k, 0.2)
	if deg, hit := p.lookup(3, k); !hit || deg != 0.3 {
		t.Errorf("generation-3 lookup = %v, %v after a stale store; want 0.3, true", deg, hit)
	}
	if _, hit := p.lookup(4, k); hit {
		t.Error("generation-4 lookup hit a generation-3 entry")
	}
	if st := p.Stats(); st != (CacheMetrics{Hits: 1, Misses: 3, Entries: 0}) {
		t.Errorf("stats %+v, want 1 hit, 3 misses, 0 entries", st)
	}
}

// Uploads racing predictions must never let an answer computed under one
// generation be served under another: every response's degradation is the
// one its reported generation implies.
func TestMemoNeverServesAcrossGenerations(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	m, chars := testModel(), testChars()
	cold := chars[1]
	hot := cold
	for d := range hot.Con {
		hot.Con[d] *= 2
	}
	// The registry is at generation 2 (profiles, then model) with the cold
	// aggressor; the uploader then alternates hot, cold, hot, ..., so odd
	// generations serve the hot profile and even ones the cold.
	if _, _, _, gen, err := s.reg.snapshot("web-search", "429.mcf"); err != nil || gen != 2 {
		t.Fatalf("setup generation = %d (%v), want 2", gen, err)
	}
	requests := []PredictRequest{
		{Victim: "web-search", Aggressor: "429.mcf"},
		{Victim: "web-search", Aggressor: "429.mcf", Instances: 2, Threads: 6},
	}

	// Every fourth answer a predictor hands the uploader one upload, so a
	// generation lives long enough for several requests to share it, yet
	// changes while others are in flight.
	tick, stop := make(chan struct{}), make(chan struct{})
	uploaded := make(chan int)
	go func() {
		for n := 0; ; n++ {
			select {
			case <-stop:
				uploaded <- n
				return
			case <-tick:
			}
			next := hot
			if n%2 == 1 {
				next = cold
			}
			s.reg.AddProfiles([]smite.Characterization{next})
		}
	}()

	h := s.Handler()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				req := requests[(w+i)%len(requests)]
				body, _ := json.Marshal(req) // strings and ints always encode
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
				var got PredictResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != http.StatusOK || err != nil {
					t.Errorf("predict = %d (%v): %s", rec.Code, err, rec.Body)
					return
				}
				agg := cold
				if got.Generation%2 == 1 {
					agg = hot
				}
				if want := m.PredictPartial(chars[0], agg, req.Instances, req.Threads); got.Degradation != want {
					t.Errorf("generation %d served %v for %+v, want %v", got.Generation, got.Degradation, req, want)
					return
				}
				if i%4 == 0 {
					tick <- struct{}{}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	t.Logf("%d uploads raced the predictions", <-uploaded)
}
