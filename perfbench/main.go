// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one seeded workload against the public functions of each
// layer, checks every output against a direct library call or an invariant,
// counts the operations it attempted and the ones that failed, and prints
// the metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload characterize --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off on the named workload's pipeline. With --trace 1 they are the
// per-layer ones: one traced run covers every layer, so whichever workload
// is named, every pipeline's phases run once untraced and once under the
// internal/obs/trace tracer, and the run writes a Chrome trace and a
// per-layer JSON file under --out. See README.md for the workloads, the
// metrics and which layer moves which.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs/trace"
)

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	// small shrinks every workload to smoke-test size (tests only).
	small bool
}

// pipeline is one workload: run measures the end-to-end metrics on it, and
// layers measures the metrics of the layers it exercises, under the tracer.
type pipeline struct {
	run, layers func(ctx context.Context, r *runner) error
}

var (
	// workloads maps a workload name onto its pipeline.
	workloads = map[string]pipeline{
		"characterize": {runCharacterize, characterizeLayers},
		"serve":        {runServe, serveLayers},
		"fleet":        {runFleet, fleetLayers},
	}
	// layerOrder is the order in which a traced run measures the pipelines.
	layerOrder = []string{"characterize", "serve", "fleet"}
)

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: characterize, serve or fleet")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 30, "measurement time in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench-out"), "directory for the Chrome trace and per-layer JSON of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want characterize, serve or fleet)\n", o.workload)
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	if !(o.seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive, got %g\n", o.seconds)
		return 2
	}
	o.trace = traceFlag == 1
	res, err := execute(context.Background(), o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// execute runs one workload and assembles its result. Everything it prints
// goes before the result line.
func execute(ctx context.Context, o options, stdout io.Writer) (result, error) {
	r := &runner{opts: o, workers: runtime.GOMAXPROCS(0), metrics: map[string]float64{}}
	r.env = collectEnv()
	if o.trace {
		r.tracer = trace.New()
		for _, name := range layerOrder {
			if err := workloads[name].layers(ctx, r); err != nil {
				return result{}, fmt.Errorf("%s layers: %w", name, err)
			}
		}
	} else if err := workloads[o.workload].run(ctx, r); err != nil {
		return result{}, err
	}
	if err := r.checkMetrics(); err != nil {
		return result{}, err
	}
	r.printReport(stdout)
	if o.trace {
		if err := r.writeTraceFiles(stdout); err != nil {
			return result{}, err
		}
	}
	res := result{
		Correct:   r.ops.failed.Load() == 0,
		Attempted: r.ops.attempted.Load(),
		Failed:    r.ops.failed.Load(),
		Metrics:   make(map[string]metricValue, len(r.metrics)),
	}
	if res.Attempted == 0 {
		return result{}, errors.New("no operation was attempted")
	}
	for name, v := range r.metrics {
		res.Metrics[name] = metricValue{Value: v, Unit: catalogue[name].unit}
	}
	return res, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner carries one invocation's state through a workload.
type runner struct {
	opts    options
	workers int // load goroutines, simulation workers and RunSim workers
	tracer  *trace.Tracer
	env     envInfo
	ops     tally
	metrics map[string]float64
	// notes are workload-specific facts recorded beside the validity
	// fields (sample counts, generator lateness, stage breakdowns).
	notes map[string]any
}

// measureFor is the measurement budget.
func (r *runner) measureFor() time.Duration {
	return time.Duration(r.opts.seconds * float64(time.Second))
}

// timePasses calls pass, each time from a collected heap, until the
// measurement budget is spent and at least minIterations times. It records
// wall_s and cpu_s, the median host and process CPU seconds of one pass,
// and notes every pass's host time.
func (r *runner) timePasses(pass func(i int) error) error {
	var walls, cpus []float64
	start := time.Now()
	for len(walls) < minIterations || time.Since(start).Seconds()+walls[len(walls)-1]/2 < r.measureFor().Seconds() {
		runtime.GC() // each pass starts from the same heap, not the last pass's garbage
		t0, c0 := time.Now(), cpuTime()
		if err := pass(len(walls)); err != nil {
			return err
		}
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, (cpuTime() - c0).Seconds())
	}
	r.set("wall_s", median(walls))
	r.set("cpu_s", median(cpus))
	r.note("pass_wall_s", walls)
	return nil
}

// set records a metric; the name must be in the catalogue.
func (r *runner) set(name string, v float64) {
	if _, ok := catalogue[name]; !ok {
		panic("perfbench: metric " + name + " is not in the catalogue")
	}
	r.metrics[name] = v
}

// note records a workload fact for the report and the per-layer JSON.
func (r *runner) note(key string, v any) {
	if r.notes == nil {
		r.notes = map[string]any{}
	}
	r.notes[key] = v
}

// checkMetrics verifies the run produced exactly the catalogue's metrics of
// its mode, each finite.
func (r *runner) checkMetrics() error {
	want := metricsFor(r.opts.trace)
	var missing []string
	for _, name := range want {
		v, ok := r.metrics[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		if !finite(v) {
			return fmt.Errorf("metric %s is not finite (%v)", name, v)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if len(r.metrics) != len(want) {
		return fmt.Errorf("measured %d metrics, the catalogue assigns %d", len(r.metrics), len(want))
	}
	return nil
}

// printReport prints the validity fields, the notes and a readable metric
// table, all before the result line.
func (r *runner) printReport(w io.Writer) {
	env, _ := json.Marshal(r.env)
	fmt.Fprintf(w, "env %s\n", env)
	if len(r.notes) > 0 {
		notes, _ := json.Marshal(r.notes)
		fmt.Fprintf(w, "notes %s\n", notes)
	}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := catalogue[name]
		fmt.Fprintf(w, "%-36s %16.6g %-9s %s is better\n", name, r.metrics[name], d.unit, d.better)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", r.ops.attempted.Load(), r.ops.failed.Load())
	for _, msg := range r.ops.firstFailures() {
		fmt.Fprintf(w, "failed: %s\n", msg)
	}
}

// tally counts operations attempted and failed. A failed output check is a
// failed operation.
type tally struct {
	attempted, failed atomic.Int64

	mu       sync.Mutex
	failures []string
}

// maxFailures bounds the failure messages kept for the report.
const maxFailures = 10

// check counts one operation, failed unless ok.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted.Add(1)
	if !ok {
		t.fail(format, args...)
	}
	return ok
}

// add counts n operations that all succeeded.
func (t *tally) add(n int) { t.attempted.Add(int64(n)) }

func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.failures) < maxFailures {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) firstFailures() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.failures...)
}
