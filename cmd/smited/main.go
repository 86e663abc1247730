// Command smited is the SMiTe QoS-prediction daemon: it loads persisted
// application profiles and a trained Equation 3 model, then serves
// placement decisions over HTTP/JSON so a cluster scheduler can ask
// "what happens if I co-locate these?" without ever touching the
// simulator or training pipeline at decision time.
//
// Usage:
//
//	smited -profiles profiles.json -model model.json -addr :8080
//
// Endpoints: POST /v1/predict, /v1/colocate, /v1/batch, /v1/profiles;
// POST /v1/characterize with -simulate (in-process Ruler-sweep
// simulation, cancelled when the request's deadline fires);
// GET /healthz, /metrics; /debug/pprof/ with -pprof; and, with -trace,
// per-request span tracing for requests carrying ?trace=1 plus
// GET /debug/trace/last serving the most recent render. The daemon
// shuts down gracefully on SIGINT/SIGTERM, draining in-flight requests
// for up to -drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/qosd"
	"repro/internal/slo"
	"repro/internal/version"
	"repro/smite"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintf(os.Stderr, "smited: %v\n", err)
		}
		os.Exit(2)
	}
}

// FlagError reports a flag value that fails validation; main exits 2 on
// it, and tests assert the flag name through errors.As.
type FlagError struct {
	Flag   string
	Value  string
	Reason string
}

func (e *FlagError) Error() string {
	return fmt.Sprintf("invalid -%s value %q: %s", e.Flag, e.Value, e.Reason)
}

// config is the parsed command line.
type config struct {
	addr         string
	profiles     stringList
	model        string
	surrogate    string
	surThreshold float64
	maxInFlight  int
	timeout      time.Duration
	drain        time.Duration
	pprof        bool
	trace        bool
	quiet        bool
	simulate     bool
	machine      string
	fast         bool
	parallelism  int
	version      bool
	sloConfig    string
	sloHeadroom  float64
	slo          *qosd.SLOConfig
}

// stringList lets -profiles repeat.
type stringList []string

func (l *stringList) String() string     { return fmt.Sprint([]string(*l)) }
func (l *stringList) Set(v string) error { *l = append(*l, v); return nil }

// run parses args, builds the daemon and serves until ctx is cancelled
// (the signal path in main). Flag and validation errors return non-nil.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	if cfg.version {
		version.Fprint(stdout, "smited")
		return nil
	}
	a, err := newApp(cfg, stdout, stderr)
	if err != nil {
		return err
	}
	return a.Run(ctx)
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("smited", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.Var(&cfg.profiles, "profiles", "persisted profile file (smite.SaveProfiles format; repeatable)")
	fs.StringVar(&cfg.model, "model", "", "persisted model file (smite.SaveModel format)")
	fs.StringVar(&cfg.surrogate, "surrogate", "", "fitted surrogate set file (smite fit format); enables the microsecond surrogate tier on /v1/predict")
	fs.Float64Var(&cfg.surThreshold, "surrogate-threshold", 0, "largest surrogate error bound to serve before falling back to the engine tier (0 = default)")
	fs.IntVar(&cfg.maxInFlight, "max-inflight", 64, "maximum concurrently-served requests")
	fs.DurationVar(&cfg.timeout, "timeout", 5*time.Second, "per-request timeout (including queueing)")
	fs.DurationVar(&cfg.drain, "drain", 10*time.Second, "graceful-shutdown drain window")
	fs.BoolVar(&cfg.pprof, "pprof", false, "serve net/http/pprof under /debug/pprof/")
	fs.BoolVar(&cfg.trace, "trace", false, "trace requests carrying ?trace=1 and serve the render at GET /debug/trace/last")
	fs.BoolVar(&cfg.quiet, "quiet", false, "disable per-request logging")
	fs.BoolVar(&cfg.simulate, "simulate", false, "enable POST /v1/characterize with an in-process simulation system")
	fs.StringVar(&cfg.machine, "machine", "ivb", "simulation machine with -simulate: ivb or snb")
	fs.BoolVar(&cfg.fast, "fast", false, "use the shortened measurement windows with -simulate")
	fs.IntVar(&cfg.parallelism, "parallelism", 0, "characterization worker count with -simulate (0 = GOMAXPROCS)")
	fs.StringVar(&cfg.sloConfig, "slo-config", "", "SLO classes as name:budget[:percentile],... (budgets are Go durations); enables POST /v1/admit")
	fs.Float64Var(&cfg.sloHeadroom, "slo-headroom", 0.1, "admission headroom in [0,1) with -slo-config; budgets shrink to budget*(1-headroom) for admission")
	fs.BoolVar(&cfg.version, "version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.version {
		return cfg, nil
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return cfg, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if cfg.addr == "" {
		return cfg, errors.New("-addr must not be empty")
	}
	if cfg.maxInFlight <= 0 {
		return cfg, fmt.Errorf("-max-inflight must be positive, got %d", cfg.maxInFlight)
	}
	if cfg.timeout <= 0 {
		return cfg, fmt.Errorf("-timeout must be positive, got %v", cfg.timeout)
	}
	if cfg.drain <= 0 {
		return cfg, fmt.Errorf("-drain must be positive, got %v", cfg.drain)
	}
	if cfg.machine != "ivb" && cfg.machine != "snb" {
		return cfg, fmt.Errorf("-machine must be ivb or snb, got %q", cfg.machine)
	}
	if cfg.parallelism < 0 {
		return cfg, fmt.Errorf("-parallelism must be non-negative, got %d", cfg.parallelism)
	}
	if !(cfg.surThreshold >= 0) {
		return cfg, fmt.Errorf("-surrogate-threshold must be non-negative, got %g", cfg.surThreshold)
	}
	if cfg.surThreshold > 0 && cfg.surrogate == "" {
		return cfg, errors.New("-surrogate-threshold is set but no -surrogate file is given")
	}
	if cfg.sloConfig != "" {
		classes, err := slo.ParseSLOClasses(cfg.sloConfig)
		if err != nil {
			return cfg, &FlagError{Flag: "slo-config", Value: cfg.sloConfig, Reason: err.Error()}
		}
		if err := slo.CheckHeadroom(cfg.sloHeadroom); err != nil {
			return cfg, &FlagError{Flag: "slo-headroom", Value: fmt.Sprint(cfg.sloHeadroom), Reason: err.Error()}
		}
		cfg.slo = &qosd.SLOConfig{Classes: classes, Headroom: cfg.sloHeadroom}
	}
	return cfg, nil
}

// app is the assembled daemon: registry loaded from disk, qosd server,
// http server. Tests drive it directly to reach the bound address.
type app struct {
	cfg      config
	stdout   io.Writer
	logger   *slog.Logger
	reg      *qosd.Registry
	srv      *http.Server
	ln       net.Listener
	serveErr chan error
}

// newApp loads the configured profile and model files into a registry and
// wires up the server. Load failures are fatal at startup (a daemon
// serving from a half-loaded registry would hand out wrong placements).
func newApp(cfg config, stdout, stderr io.Writer) (*app, error) {
	logger := slog.New(slog.NewTextHandler(stderr, nil))
	reg := qosd.NewRegistry()
	for _, path := range cfg.profiles {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("opening profiles: %w", err)
		}
		n, err := reg.LoadProfiles(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("loading profiles from %s: %w", path, err)
		}
		logger.Info("profiles loaded", "path", path, "count", n)
	}
	if cfg.model != "" {
		f, err := os.Open(cfg.model)
		if err != nil {
			return nil, fmt.Errorf("opening model: %w", err)
		}
		err = reg.LoadModel(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("loading model from %s: %w", cfg.model, err)
		}
		logger.Info("model loaded", "path", cfg.model)
	}
	qcfg := qosd.Config{
		MaxInFlight:        cfg.maxInFlight,
		RequestTimeout:     cfg.timeout,
		EnablePprof:        cfg.pprof,
		EnableTrace:        cfg.trace,
		SurrogateThreshold: cfg.surThreshold,
		SLO:                cfg.slo,
	}
	if cfg.slo != nil {
		logger.Info("SLO admission enabled", "classes", len(cfg.slo.Classes), "headroom", cfg.sloHeadroom)
	}
	if cfg.surrogate != "" {
		set, err := smite.LoadSurrogate(cfg.surrogate)
		if err != nil {
			return nil, fmt.Errorf("loading surrogate set from %s: %w", cfg.surrogate, err)
		}
		qcfg.Surrogate = set
		logger.Info("surrogate tier enabled", "path", cfg.surrogate,
			"models", len(set.Models), "threshold", cfg.surThreshold)
	}
	if !cfg.quiet {
		qcfg.Logger = logger
	}
	if cfg.simulate {
		machine := smite.IvyBridge
		if cfg.machine == "snb" {
			machine = smite.SandyBridgeEN
		}
		opts := smite.DefaultOptions()
		if cfg.fast {
			opts = smite.FastOptions()
		}
		opts.Parallelism = cfg.parallelism
		sys, err := smite.New(machine.Config(), smite.WithOptions(opts))
		if err != nil {
			return nil, fmt.Errorf("building simulation system: %w", err)
		}
		qcfg.System = sys
		logger.Info("simulation enabled", "machine", cfg.machine, "fast", cfg.fast,
			"parallelism", cfg.parallelism)
	}
	server := qosd.NewServer(reg, qcfg)
	return &app{
		cfg:    cfg,
		stdout: stdout,
		logger: logger,
		reg:    reg,
		srv:    &http.Server{Handler: server.Handler()},
	}, nil
}

// Start binds the listener and begins serving in the background.
func (a *app) Start() error {
	ln, err := net.Listen("tcp", a.cfg.addr)
	if err != nil {
		return err
	}
	a.ln = ln
	a.serveErr = make(chan error, 1)
	go func() {
		if err := a.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			a.serveErr <- err
		}
	}()
	return nil
}

// Addr returns the bound address (useful with -addr :0).
func (a *app) Addr() net.Addr { return a.ln.Addr() }

// Run serves until ctx is cancelled, then drains in-flight requests for
// up to the configured window before closing.
func (a *app) Run(ctx context.Context) error {
	if err := a.Start(); err != nil {
		return err
	}
	// The listening line goes to stdout so scripts (and the smoke test)
	// can discover the bound port when -addr ends in :0.
	fmt.Fprintf(a.stdout, "smited listening on %s\n", a.Addr())
	a.logger.Info("listening", "addr", a.Addr().String(),
		"profiles", a.reg.Len(), "max_inflight", a.cfg.maxInFlight)

	select {
	case err := <-a.serveErr:
		return fmt.Errorf("serving: %w", err)
	case <-ctx.Done():
	}
	return a.Shutdown()
}

// Shutdown drains gracefully, falling back to a hard close if the drain
// window expires.
func (a *app) Shutdown() error {
	a.logger.Info("shutting down", "drain", a.cfg.drain)
	ctx, cancel := context.WithTimeout(context.Background(), a.cfg.drain)
	defer cancel()
	if err := a.srv.Shutdown(ctx); err != nil {
		a.srv.Close()
		return fmt.Errorf("drain window expired: %w", err)
	}
	a.logger.Info("drained")
	return nil
}
