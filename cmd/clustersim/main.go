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
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/qosd"
	"repro/internal/tco"
	"repro/internal/version"
	"repro/smite"
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
	serverFlag := fs.Bool("server", false, "route SMiTe predictions through an embedded smited daemon over HTTP instead of in-process")
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
	var res experiments.ScaleOutResult
	var err error
	if *serverFlag {
		res, err = scaleOutViaDaemon(ctx, lab, kind, w)
	} else {
		res, err = lab.ScaleOutStudyContext(ctx, kind, nil)
	}
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

// scaleOutViaDaemon reruns the scale-out study with the SMiTe policy's
// predictions served by a live smited daemon instead of in-process calls:
// an embedded qosd server comes up on an ephemeral port, the study's
// profiles travel to it in the persisted-profile wire format, every
// (latency, batch, instances) cell is scored through POST /v1/batch, and
// the cluster study consumes those served numbers as the predicted side
// of a degradation table. Because the daemon
// evaluates the same model over JSON-round-tripped (hence bit-exact)
// float64 profiles, the decisions are bit-identical to the in-process
// path.
func scaleOutViaDaemon(ctx context.Context, lab *experiments.Lab, qos cluster.QoSKind, w io.Writer) (experiments.ScaleOutResult, error) {
	sa, err := lab.ServingArtifactsContext(ctx)
	if err != nil {
		return experiments.ScaleOutResult{}, err
	}

	reg := qosd.NewRegistry()
	srv := qosd.NewServer(reg, qosd.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return experiments.ScaleOutResult{}, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()

	// The model reaches the registry through its persisted form, the same
	// bytes `smited -model` would read from disk.
	var buf bytes.Buffer
	if err := smite.SaveModel(&buf, smite.NewModel(sa.Model.Coef, sa.Model.Intercept)); err != nil {
		return experiments.ScaleOutResult{}, err
	}
	if err := reg.LoadModel(&buf); err != nil {
		return experiments.ScaleOutResult{}, err
	}

	// Profiles go over the wire: the batch applications' contentiousness
	// profiles under their own names, and each latency application's
	// partial-occupancy sensitivity profiles under the lat#n convention.
	c := qosd.NewClient("http://"+ln.Addr().String(), nil)
	var chars []smite.Characterization
	for _, b := range sa.BatchApps {
		chars = append(chars, sa.Chars[b])
	}
	for _, lat := range sa.LatApps {
		for n := 1; n <= sa.MaxInstances; n++ {
			ch := sa.SenByCount[lat][n-1]
			ch.App = qosd.PartialProfileName(lat, n)
			chars = append(chars, ch)
		}
	}
	if _, err := c.UploadProfiles(ctx, chars); err != nil {
		return experiments.ScaleOutResult{}, err
	}

	// Prefetch the full decision surface, one batch request per
	// (latency app, instance count).
	served := cluster.NewTable(sa.LatApps, sa.BatchApps, sa.MaxInstances)
	fetched := 0
	for _, lat := range sa.LatApps {
		for n := 1; n <= sa.MaxInstances; n++ {
			cands := make([]qosd.BatchCandidate, len(sa.BatchApps))
			for i, b := range sa.BatchApps {
				cands[i] = qosd.BatchCandidate{Aggressor: b, Instances: n}
			}
			resp, err := c.Batch(ctx, qosd.BatchRequest{
				Victim:     qosd.PartialProfileName(lat, n),
				Threads:    sa.Threads,
				Candidates: cands,
			})
			if err != nil {
				return experiments.ScaleOutResult{}, err
			}
			fetched += len(resp.Results)
			for _, r := range resp.Results {
				served.Set(lat, r.Aggressor, n, cluster.Entry{Predicted: r.Degradation})
			}
		}
	}
	fmt.Fprintf(w, "SMiTe predictions served by embedded smited at %s (%d profiles uploaded, %d cells fetched)\n",
		ln.Addr(), len(chars), fetched)

	res, err := lab.ScaleOutStudyContext(ctx, qos, &cluster.TablePredictor{Table: served})
	if shutdownErr := hs.Shutdown(context.Background()); err == nil && shutdownErr != nil {
		err = shutdownErr
	}
	return res, err
}
