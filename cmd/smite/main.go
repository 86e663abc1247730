// Command smite is the command-line front end to the SMiTe methodology:
// list the stock application models, characterize an application with the
// Ruler suite, and predict (or actually measure) co-location degradations.
//
// Usage:
//
//	smite list
//	smite characterize -app 444.namd [-machine ivb|snb] [-placement smt|cmp] [-fast]
//	smite predict -victim web-search -aggressor 470.lbm [-fast]
//	smite measure -victim 444.namd -aggressor 429.mcf [-fast] [-timeline-out t.json]
//	smite fit [-apps 429.mcf,470.lbm,...] -out set.json [-store dir] [-train] [-fast]
//	smite surrogate -set set.json [-victim web-search -aggressor 470.lbm]
//	smite isol -victim web-search -aggressor 470.lbm [-ways 0,2,8] [-throttle 64]
//	smite version
//
// Every simulation subcommand accepts -trace-out to dump a Chrome trace of
// the run's internal stages; measure additionally accepts -timeline-out for
// a cycle-sampled contention timeline of the co-located pair. Both files
// load in chrome://tracing or Perfetto.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"repro/internal/obs/timeline"
	"repro/internal/obs/trace"
	"repro/internal/profile"
	"repro/internal/version"
	"repro/smite"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// Ctrl-C cancels in-flight simulation work instead of leaving a long
	// characterization running to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch os.Args[1] {
	case "list":
		err = list()
	case "characterize":
		err = characterize(ctx, os.Args[2:])
	case "predict":
		err = predict(ctx, os.Args[2:])
	case "measure":
		err = measure(ctx, os.Args[2:])
	case "fit":
		err = fit(ctx, os.Args[2:])
	case "surrogate":
		err = surrogateCmd(os.Args[2:])
	case "isol":
		err = isolCmd(ctx, os.Args[2:], os.Stdout)
	case "version", "-version", "--version":
		printVersion(os.Stdout)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "smite: %v\n", err)
		os.Exit(1)
	}
}

func printVersion(w io.Writer) { version.Fprint(w, "smite") }

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  smite list
  smite characterize -app <name> [-machine ivb|snb] [-placement smt|cmp] [-fast]
  smite predict -victim <name> -aggressor <name> [-fast]
  smite measure -victim <name> -aggressor <name> [-fast] [-timeline-out <file>]
  smite fit [-apps a,b,...] -out <set.json> [-store <dir>] [-train] [-fast]
  smite surrogate -set <set.json> [-victim <name> -aggressor <name>]
  smite isol -victim <name> -aggressor <name> [-ways 0,2,8] [-throttle <cycles>] [-json <file>]
  smite version

simulation subcommands also accept -trace-out <file> (Chrome trace of the
run's stages; open in chrome://tracing)`)
}

func list() error {
	fmt.Println("SPEC CPU2006:")
	for _, s := range smite.SPECWorkloads() {
		fmt.Printf("  %-16s %s\n", s.Name, s.Suite)
	}
	fmt.Println("CloudSuite (latency-sensitive):")
	for _, s := range smite.CloudWorkloads() {
		fmt.Printf("  %-16s %d threads, %g QPS/thread\n", s.Name, s.ThreadCount(), s.ServiceRate)
	}
	return nil
}

func commonFlags(fs *flag.FlagSet) (machine *string, placement *string, fast *bool, traceOut *string) {
	machine = fs.String("machine", "ivb", "machine: ivb (i7-3770) or snb (Xeon E5-2420)")
	placement = fs.String("placement", "smt", "placement: smt or cmp")
	fast = fs.Bool("fast", false, "use reduced measurement windows")
	traceOut = fs.String("trace-out", "", "write a Chrome trace of the run's stages to this file")
	return
}

// traceTo attaches a span tracer to ctx when path is set. The returned
// finish renders the collected spans as Chrome-trace JSON to path; with no
// path it is a no-op and the run is completely untraced.
func traceTo(ctx context.Context, path string) (context.Context, func() error) {
	if path == "" {
		return ctx, func() error { return nil }
	}
	tr := trace.New()
	return trace.NewContext(ctx, tr), func() error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := tr.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote trace to %s\n", path)
		return nil
	}
}

func machineOptions(machine string, fast bool) (smite.Machine, smite.Options, error) {
	opts := smite.DefaultOptions()
	if fast {
		opts = smite.FastOptions()
	}
	m := smite.IvyBridge
	if machine == "snb" {
		m = smite.SandyBridgeEN
	} else if machine != "ivb" {
		return m, opts, fmt.Errorf("unknown machine %q", machine)
	}
	return m, opts, nil
}

func newSystem(machine string, fast bool, parallelism int) (*smite.System, error) {
	m, opts, err := machineOptions(machine, fast)
	if err != nil {
		return nil, err
	}
	opts.Parallelism = parallelism
	return smite.New(m.Config(), smite.WithOptions(opts))
}

func parsePlacement(s string) (smite.Placement, error) {
	switch s {
	case "smt":
		return smite.SMT, nil
	case "cmp":
		return smite.CMP, nil
	}
	return smite.SMT, fmt.Errorf("unknown placement %q", s)
}

func characterize(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("characterize", flag.ExitOnError)
	app := fs.String("app", "", "application name")
	machine, placementS, fast, traceOut := commonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *app == "" {
		return fmt.Errorf("characterize: -app is required")
	}
	ctx, finishTrace := traceTo(ctx, *traceOut)
	spec, err := smite.WorkloadByName(*app)
	if err != nil {
		return err
	}
	sys, err := newSystem(*machine, *fast, 0)
	if err != nil {
		return err
	}
	placement, err := parsePlacement(*placementS)
	if err != nil {
		return err
	}
	ch, err := sys.CharacterizeContext(ctx, spec, placement)
	if err != nil {
		return err
	}
	fmt.Printf("%s on %s (%v placement): solo IPC %.3f\n", ch.App, sys.Machine().Name, placement, ch.SoloIPC)
	fmt.Printf("%-16s %12s %12s\n", "dimension", "sensitivity", "contentiousness")
	for d := smite.Dimension(0); d < smite.NumDimensions; d++ {
		fmt.Printf("%-16s %11.2f%% %11.2f%%\n", d, ch.Sen[d]*100, ch.Con[d]*100)
	}
	return finishTrace()
}

// trainModel trains on the paper's even-numbered SPEC training set.
func trainModel(ctx context.Context, sys *smite.System, placement smite.Placement) (smite.Model, error) {
	train, _ := smite.TrainTestSplit()
	m, _, err := sys.TrainFromSetsContext(ctx, train, placement)
	return m, err
}

func predict(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	victim := fs.String("victim", "", "latency-sensitive / victim application")
	aggressor := fs.String("aggressor", "", "co-located batch / aggressor application")
	machine, placementS, fast, traceOut := commonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *victim == "" || *aggressor == "" {
		return fmt.Errorf("predict: -victim and -aggressor are required")
	}
	ctx, finishTrace := traceTo(ctx, *traceOut)
	v, err := smite.WorkloadByName(*victim)
	if err != nil {
		return err
	}
	a, err := smite.WorkloadByName(*aggressor)
	if err != nil {
		return err
	}
	sys, err := newSystem(*machine, *fast, 0)
	if err != nil {
		return err
	}
	placement, err := parsePlacement(*placementS)
	if err != nil {
		return err
	}
	fmt.Println("training the prediction model on the even-numbered SPEC set...")
	m, err := trainModel(ctx, sys, placement)
	if err != nil {
		return err
	}
	chV, err := sys.CharacterizeContext(ctx, v, placement)
	if err != nil {
		return err
	}
	chA, err := sys.CharacterizeContext(ctx, a, placement)
	if err != nil {
		return err
	}
	deg := m.PredictPair(chV, chA)
	fmt.Printf("predicted degradation of %s next to %s (%v): %.2f%%\n", v.Name, a.Name, placement, deg*100)
	for _, target := range []float64{0.95, 0.90, 0.85} {
		verdict := "UNSAFE"
		if m.SafeColocation(chV, chA, target) {
			verdict = "safe"
		}
		fmt.Printf("  QoS target %.0f%%: %s\n", target*100, verdict)
	}
	return finishTrace()
}

func measure(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("measure", flag.ExitOnError)
	victim := fs.String("victim", "", "victim application")
	aggressor := fs.String("aggressor", "", "aggressor application")
	timelineOut := fs.String("timeline-out", "", "write a cycle-sampled contention timeline of the co-located run to this file (Chrome-trace JSON)")
	parallelism := fs.Int("parallelism", 0, "simulation parallelism (0 = one worker per CPU)")
	machine, placementS, fast, traceOut := commonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *victim == "" || *aggressor == "" {
		return fmt.Errorf("measure: -victim and -aggressor are required")
	}
	ctx, finishTrace := traceTo(ctx, *traceOut)
	v, err := smite.WorkloadByName(*victim)
	if err != nil {
		return err
	}
	a, err := smite.WorkloadByName(*aggressor)
	if err != nil {
		return err
	}
	sys, err := newSystem(*machine, *fast, *parallelism)
	if err != nil {
		return err
	}
	placement, err := parsePlacement(*placementS)
	if err != nil {
		return err
	}
	pm, err := sys.MeasurePairContext(ctx, v, a, placement)
	if err != nil {
		return err
	}
	fmt.Printf("measured co-location (%v) on %s:\n", placement, sys.Machine().Name)
	fmt.Printf("  %-16s degrades %6.2f%%\n", pm.A, pm.DegA*100)
	fmt.Printf("  %-16s degrades %6.2f%%\n", pm.B, pm.DegB*100)
	if *timelineOut != "" {
		if err := writeTimeline(ctx, *machine, *fast, v, a, placement, *timelineOut); err != nil {
			return err
		}
		fmt.Printf("wrote contention timeline to %s\n", *timelineOut)
	}
	return finishTrace()
}

// fit builds a surrogate set: sample every application's (dimension,
// intensity) grid through the engine, fit closed-form curves with recorded
// error bounds, and write the set to -out. With -store, fits warm-start
// from (and are written back to) a content-addressed profile store, so a
// re-run with unchanged inputs touches no simulation at all.
func fit(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("fit", flag.ExitOnError)
	apps := fs.String("apps", "", "comma-separated application names (default: the even-numbered SPEC training set)")
	out := fs.String("out", "surrogate.json", "write the fitted surrogate set to this file")
	storeDir := fs.String("store", "", "content-addressed profile store directory for warm starts (created if missing)")
	train := fs.Bool("train", false, "also measure pair ground truths and embed the Equation 3 model (needs >= 4 apps)")
	parallelism := fs.Int("parallelism", 0, "simulation parallelism (0 = one worker per CPU)")
	machine, placementS, fast, traceOut := commonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, finishTrace := traceTo(ctx, *traceOut)
	var specs []*smite.Spec
	if *apps == "" {
		specs, _ = smite.TrainTestSplit()
	} else {
		for _, name := range strings.Split(*apps, ",") {
			spec, err := smite.WorkloadByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			specs = append(specs, spec)
		}
	}
	sys, err := newSystem(*machine, *fast, *parallelism)
	if err != nil {
		return err
	}
	placement, err := parsePlacement(*placementS)
	if err != nil {
		return err
	}
	var set *smite.Surrogate
	if *storeDir != "" {
		store, err := smite.OpenProfileStore(*storeDir)
		if err != nil {
			return err
		}
		var stats smite.FitStats
		set, stats, err = sys.FitWithStore(ctx, store, specs, placement, smite.FitOptions{})
		if err != nil {
			return err
		}
		fmt.Printf("profile store %s: %d warm, %d fitted\n", *storeDir, stats.Hits, stats.Misses)
	} else {
		set, err = sys.Fit(ctx, specs, placement, smite.FitOptions{})
		if err != nil {
			return err
		}
	}
	if *train {
		fmt.Printf("measuring %d pair ground truths for the embedded Equation 3 model...\n", len(specs)*(len(specs)-1)/2)
		if err := sys.TrainSurrogate(ctx, set, specs); err != nil {
			return err
		}
	}
	if err := smite.SaveSurrogate(*out, set); err != nil {
		return err
	}
	fmt.Printf("fitted %d models on %s (%v placement):\n", len(set.Models), set.Machine, placement)
	for _, spec := range specs {
		m := set.Models[spec.Name]
		fmt.Printf("  %-16s solo IPC %.3f, max curve error %.4f\n", m.App, m.SoloIPC, m.Bound())
	}
	fmt.Printf("wrote surrogate set to %s\n", *out)
	return finishTrace()
}

// surrogateCmd inspects a fitted set or answers a prediction from it —
// pure file I/O plus closed-form evaluation, no simulation.
func surrogateCmd(args []string) error {
	fs := flag.NewFlagSet("surrogate", flag.ExitOnError)
	setPath := fs.String("set", "", "surrogate set file written by smite fit")
	victim := fs.String("victim", "", "victim application (with -aggressor: predict instead of inspect)")
	aggressor := fs.String("aggressor", "", "aggressor application")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *setPath == "" {
		return fmt.Errorf("surrogate: -set is required")
	}
	set, err := smite.LoadSurrogate(*setPath)
	if err != nil {
		return err
	}
	if (*victim == "") != (*aggressor == "") {
		return fmt.Errorf("surrogate: -victim and -aggressor go together")
	}
	if *victim != "" {
		pred, err := set.Predict(*victim, *aggressor)
		if err != nil {
			return err
		}
		fmt.Printf("predicted degradation of %s next to %s: %.2f%% (error bound %.2f%%)\n",
			*victim, *aggressor, pred.Degradation*100, pred.Bound*100)
		return nil
	}
	fmt.Printf("surrogate set on %s (%v placement): %d models, Equation 3 embedded: %v\n",
		set.Machine, set.Placement, len(set.Models), set.Eq3 != nil)
	names := make([]string, 0, len(set.Models))
	for name := range set.Models {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := set.Models[name]
		fmt.Printf("  %-16s solo IPC %.3f, max curve error %.4f\n", m.App, m.SoloIPC, m.Bound())
	}
	return nil
}

// writeTimeline re-runs the co-located pair with a timeline recorder
// attached and renders the cycle-sampled counters as Chrome-trace JSON.
// The sampled run is a single sequential simulation — bit-identical to the
// measurement (the recorder is read-only) and independent of -parallelism,
// so the written file is deterministic across runs and worker counts.
func writeTimeline(ctx context.Context, machine string, fast bool, v, a *smite.Spec, placement smite.Placement, path string) error {
	m, opts, err := machineOptions(machine, fast)
	if err != nil {
		return err
	}
	rec := timeline.New()
	opts.Sampler = rec
	if _, err := profile.ColocateContext(ctx, m.Config(), profile.App(v), profile.App(a), placement, opts); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
