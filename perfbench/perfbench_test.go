package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if v, ok := percentile(samples(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 beyond", v, ok)
	}
	if _, ok := percentile(samples(999), 0.99); ok {
		t.Error("p99 of 999 samples reported, but only 9 lie beyond it")
	}
	if v, ok := percentile(samples(100), 0.5); !ok || v != 50 {
		t.Errorf("p50 of 1..100 = %v, %v; want 50", v, ok)
	}
	// A failed request is +Inf and lands beyond every finite limit.
	s := samples(2000)
	for i := 1970; i < 2000; i++ {
		s[i] = math.Inf(1)
	}
	if v, ok := percentile(s, 0.99); !ok || !math.IsInf(v, 1) {
		t.Errorf("p99 with 1.5%% failures = %v, %v; want +Inf", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestCovered(t *testing.T) {
	ms := time.Millisecond
	ivs := [][2]time.Duration{{2 * ms, 5 * ms}, {4 * ms, 6 * ms}, {8 * ms, 12 * ms}}
	if got := covered(ivs, 0, 10*ms); got != 6*ms {
		t.Errorf("covered = %v, want 6ms (overlaps counted once, clipped at the parent's end)", got)
	}
}

// TestSameSeedSameInputs pins that every workload's inputs are a pure
// function of the seed.
func TestSameSeedSameInputs(t *testing.T) {
	gens := map[string]func(seed uint64) (any, error){
		"characterize": func(seed uint64) (any, error) { return characterizeInputs(seed, false), nil },
		"serve":        func(seed uint64) (any, error) { return serveInputsFor(seed) },
		"fleet":        func(seed uint64) (any, error) { return fleetInputsFor(seed, false) },
	}
	for name, gen := range gens {
		enc := func(seed uint64) []byte {
			in, err := gen(seed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			b, err := json.Marshal(in)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return b
		}
		if a, b := enc(7), enc(7); !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs on two calls", name)
		}
		if bytes.Equal(enc(7), enc(8)) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
	}
}

// TestSmoke runs every workload untraced at smoke-test size, and one traced
// run, which covers every pipeline, and checks that every operation passed
// and every catalogued metric of the mode was reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	runs := []options{{workload: "serve", trace: true}}
	for _, name := range layerOrder {
		runs = append(runs, options{workload: name})
	}
	for _, o := range runs {
		o.seed, o.seconds, o.out, o.small = 3, 3, t.TempDir(), true
		res, err := execute(context.Background(), o, io.Discard)
		if err != nil {
			t.Fatalf("%s (trace %v): %v", o.workload, o.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s (trace %v): correct %v, %d of %d failed", o.workload, o.trace, res.Correct, res.Failed, res.Attempted)
		}
		if got, want := len(res.Metrics), len(metricsFor(o.trace)); got != want {
			t.Errorf("%s (trace %v): %d metrics, want %d", o.workload, o.trace, got, want)
		}
	}
}

// TestCatalogueMatchesDocs keeps BENCHMARK.json and README.md in step
// with the metrics the benchmark reports.
func TestCatalogueMatchesDocs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, group := range []struct {
		perLayer bool
		metrics  []struct{ Name, Unit, Better string }
	}{{false, bench.EndToEnd}, {true, bench.PerLayer}} {
		for _, m := range group.metrics {
			d, ok := catalogue[m.Name]
			if !ok || d.perLayer != group.perLayer || d.unit != m.Unit || d.better != m.Better {
				t.Errorf("BENCHMARK.json metric %s (%s, %s) does not match the catalogue entry %+v", m.Name, m.Unit, m.Better, d)
			}
			listed = append(listed, m.Name)
		}
	}
	if len(listed) != len(catalogue) {
		t.Errorf("BENCHMARK.json lists %d metrics, the catalogue has %d", len(listed), len(catalogue))
	}
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range catalogue {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !strings.Contains(string(readme), "`"+name+"`") {
			t.Errorf("README.md does not describe %s", name)
		}
	}
}
