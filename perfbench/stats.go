package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported tail
// percentile; with fewer, the percentile says more about one outlier than
// about the tail.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of sorted samples, and
// ok=false when fewer than minBeyond samples lie beyond it (so p99 needs at
// least 1000 samples). +Inf samples, which stand for failed requests, sort
// last and count as beyond every finite limit.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// median returns the median of xs (the mean of the middle two for an even
// count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// nsPerOp times fn over n calls, five times, and returns the median ns per
// call: the microbenchmark behind the per-layer *_ns metrics.
func nsPerOp(n int, fn func()) float64 {
	var runs []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		runs = append(runs, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(runs)
}

// minIterations is the fewest timed passes a workload makes, whatever the
// time budget, so the reported median is never a single sample.
const minIterations = 3

// setupReps is how many times a workload's set-up is timed; setup_s is the
// median. A set-up shorter than setupRepMin is repeated within one timing
// and averaged, so a microsecond set-up is not timer noise, and the timings
// span about a second, so one burst of host noise does not set the median.
const (
	setupReps   = 9
	setupRepMin = 100 * time.Millisecond
)

// timeSetup times fn setupReps times, each from a collected heap, and
// returns the median seconds per call.
func timeSetup(fn func() error) (float64, error) {
	var per []float64
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		calls := 0
		t0 := time.Now()
		for calls == 0 || time.Since(t0) < setupRepMin {
			if err := fn(); err != nil {
				return 0, fmt.Errorf("set-up: %w", err)
			}
			calls++
		}
		per = append(per, time.Since(t0).Seconds()/float64(calls))
	}
	return median(per), nil
}
