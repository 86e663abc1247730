// Command clustersim runs the warehouse-scale scale-out study standalone:
// it builds the CloudSuite co-location degradation table on the simulated
// Sandy Bridge-EN fleet, then schedules batch work onto the latency
// servers' idle SMT contexts under the SMiTe, Oracle and Random policies
// and reports utilisation gains, QoS violations and the TCO impact.
//
// With -sim (or -replay) it instead runs the warehouse-scale
// discrete-event simulator: temporal job arrivals, machine churn and
// incremental contention-aware placement over a synthetic co-location
// world, with record/replay traces that reproduce a run bit for bit.
//
// Usage:
//
//	clustersim [-scale full|test] [-qos avg|tail] [-targets 0.95,0.90,0.85] [-servers 1000]
//	clustersim -sim [-machines 1000] [-duration 1] [-churn 0.02] [-policy smite]
//	           [-trace-out run.trace] [-summary-json -]
//	clustersim -replay run.trace [-parallelism 8]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/tco"
	"repro/internal/version"
)

func main() {
	// The degradation table is hours of simulation at -scale full; Ctrl-C
	// cancels the in-flight cells instead of orphaning them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintf(os.Stderr, "clustersim: %v\n", err)
		}
		os.Exit(2)
	}
}

// run parses args and executes the study, writing the report to w. Flag
// and validation errors return non-nil (the FlagSet prints usage).
func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("clustersim", flag.ContinueOnError)
	scaleFlag := fs.String("scale", "test", "experiment scale: full or test")
	qosFlag := fs.String("qos", "avg", "QoS definition: avg (average performance) or tail (90th-percentile latency)")
	targetsFlag := fs.String("targets", "0.95,0.90,0.85", "comma-separated QoS targets to detail (subset of 0.95,0.90,0.85)")
	serversFlag := fs.Int("servers", 0, "servers per latency application (0 = scale default)")
	versionFlag := fs.Bool("version", false, "print the build version and exit")

	simFlag := fs.Bool("sim", false, "run the warehouse-scale discrete-event simulator instead of the static study")
	sim := bindSimFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *versionFlag {
		version.Fprint(w, "clustersim")
		return nil
	}

	if *simFlag || sim.replay != "" {
		return runClusterSim(ctx, sim, *qosFlag, w)
	}

	var scale experiments.Scale
	switch *scaleFlag {
	case "full":
		scale = experiments.FullScale()
	case "test":
		scale = experiments.TestScale()
	default:
		fs.Usage()
		return fmt.Errorf("unknown scale %q", *scaleFlag)
	}
	if *serversFlag > 0 {
		scale.ServersPerApp = *serversFlag
	}

	var targets []float64
	for _, t := range strings.Split(*targetsFlag, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(t), 64)
		if err != nil || v <= 0 || v > 1 {
			fs.Usage()
			return fmt.Errorf("bad target %q", t)
		}
		targets = append(targets, v)
	}

	if *qosFlag != "avg" && *qosFlag != "tail" {
		fs.Usage()
		return fmt.Errorf("unknown qos %q", *qosFlag)
	}

	kind := cluster.QoSAvg
	if *qosFlag == "tail" {
		kind = cluster.QoSTail
	}

	lab := experiments.NewLab(scale)
	fmt.Fprintln(w, "building the co-location degradation table (this measures every latency×batch×instances cell)...")
	res, err := lab.ScaleOutStudyContext(ctx, kind)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, res.String())

	// Per-target policy detail.
	for _, target := range res.Targets {
		if !slices.Contains(targets, target) {
			continue
		}
		fmt.Fprintf(w, "target %.0f%%:\n", target*100)
		for _, pol := range []cluster.PolicyKind{cluster.PolicySMiTe, cluster.PolicyOracle, cluster.PolicyRandom} {
			r := res.Cells[target][pol]
			fmt.Fprintf(w, "  %-7s util %.1f%% -> %.1f%% (gain %.2f%%), mean instances %.2f, violations %.2f%% of co-located (worst %.2f%%)\n",
				pol, r.BaselineUtilization*100, r.Utilization*100, r.UtilizationGain*100,
				r.MeanInstances, r.ViolationFrac*100, r.ViolationMax*100)
		}
	}

	params := tco.Google2014()
	fmt.Fprintf(w, "\nTCO model: $%.0f/server, %.0fW at PUE %.2f, $%.2f/kWh, %g-year horizon => $%.0f/server/year\n",
		params.ServerCapex, params.ServerPowerWatts, params.PUE, params.ElectricityPerKWh,
		params.HorizonYears, params.PerServerPerYear())
	return nil
}
