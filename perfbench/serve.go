package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs/trace"
	"repro/internal/qosd"
	"repro/internal/queueing"
	"repro/internal/service"
	"repro/internal/simcache"
	"repro/internal/surrogate"
	"repro/internal/xrand"
	"repro/smite"
)

// Open-loop rates and the size of the request pool.
const (
	loRPS    = 2000
	hiRPS    = 8000
	poolSize = 4096
	// partialThreads is the thread count of partial-occupancy requests;
	// each cloud application has Sen(n) profiles for n = 1..3.
	partialThreads = 4
	surThreshold   = 0.05
	sloHeadroom    = 0.1
)

// requestKinds and their shares of the traffic mix.
var requestMix = []struct {
	kind  string
	share float64
}{
	{"predict", 0.50},
	{"predict_partial", 0.15},
	{"admit", 0.20},
	{"colocate", 0.10},
	{"batch", 0.04},
	{"profiles", 0.01},
}

// handlerKinds maps request kinds onto the qosd.handler_us.* metric they
// feed; both predict shapes hit the same handler.
var handlerKinds = map[string]string{
	"predict": "predict", "predict_partial": "predict", "admit": "admit",
	"colocate": "colocate", "batch": "batch", "profiles": "profiles",
}

// serveInputs is everything the serve workload hands the program: the
// registry contents, the surrogate set and the request pool the load
// generator cycles through.
type serveInputs struct {
	Profiles  []smite.Characterization     `json:"profiles"`
	Coef      [smite.NumDimensions]float64 `json:"coef"`
	Intercept float64                      `json:"intercept"`
	Surrogate *smite.Surrogate             `json:"surrogate"`
	Requests  []serveRequest               `json:"requests"`
}

// serveRequest is one request of the pool.
type serveRequest struct {
	Kind string          `json:"kind"`
	Path string          `json:"path"`
	Body json.RawMessage `json:"body"`
}

// zipf samples ranks 0..n-1 with probability ∝ 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipf{cdf: cdf}
}

func (z zipf) sample(r *xrand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, r.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// serveInputsFor generates the population, model, surrogate set and
// request pool from the seed.
func serveInputsFor(seed uint64) (serveInputs, error) {
	rng := xrand.New(mix64(seed, 0x5E7E))
	var apps []string
	for _, s := range append(smite.SPECWorkloads(), smite.CloudWorkloads()...) {
		apps = append(apps, s.Name)
	}
	var in serveInputs
	base := map[string]smite.Characterization{}
	for _, app := range apps {
		c := smite.Characterization{App: app, Placement: smite.SMT, SoloIPC: 0.4 + 1.6*rng.Float64()}
		for d := range c.Sen {
			c.Sen[d] = 0.02 + 0.5*rng.Float64()
			c.Con[d] = 0.02 + 0.6*rng.Float64()
		}
		base[app] = c
		in.Profiles = append(in.Profiles, c)
	}
	// Partial-occupancy Sen(n) profiles of the cloud applications.
	var cloud []string
	for _, s := range smite.CloudWorkloads() {
		cloud = append(cloud, s.Name)
		for n := 1; n < partialThreads; n++ {
			c := base[s.Name]
			c.App = qosd.PartialProfileName(s.Name, n)
			for d := range c.Sen {
				c.Sen[d] *= (0.4 + 0.6*float64(n)/partialThreads) * (0.9 + 0.2*rng.Float64())
			}
			in.Profiles = append(in.Profiles, c)
		}
	}
	for d := range in.Coef {
		in.Coef[d] = 0.2 + 0.4*rng.Float64()
	}
	in.Intercept = 0.005 + 0.01*rng.Float64()

	// Surrogate curves for two applications in three; error bounds spread
	// so that some pairs clear the threshold and others fall back.
	set := &surrogate.Set{Machine: "synthetic", Placement: smite.SMT, Models: map[string]*surrogate.Model{}}
	for i, app := range apps {
		if i%3 == 2 {
			continue
		}
		c := base[app]
		m := &surrogate.Model{App: app, Placement: smite.SMT, SoloIPC: c.SoloIPC, Intensities: []float64{0.25, 0.5, 1}}
		e := 0.005 + 0.045*rng.Float64()
		for d := range m.Sen {
			m.Sen[d] = surrogate.Curve{Coef: [3]float64{c.Sen[d] * (0.95 + 0.1*rng.Float64())}, MaxAbsErr: e, MeanAbsErr: e / 2}
			m.Con[d] = surrogate.Curve{Coef: [3]float64{0, c.Con[d] * (0.95 + 0.1*rng.Float64())}, MaxAbsErr: e, MeanAbsErr: e / 2}
		}
		set.Models[app] = m
	}
	in.Surrogate = set

	// Zipf-skewed pairs over a seeded ordering of the population, so the
	// memo sees repeats and the hot pairs change with the seed.
	order := rng.Perm(len(apps))
	z := newZipf(len(apps), 1.1)
	pick := func() string { return apps[order[z.sample(rng)]] }
	pair := func() (string, string) {
		v := pick()
		for {
			if a := pick(); a != v {
				return v, a
			}
		}
	}
	classes := qosd.DefaultSLOClasses()
	for len(in.Requests) < poolSize {
		u := rng.Float64()
		kind := requestMix[len(requestMix)-1].kind
		for _, m := range requestMix {
			if u < m.share {
				kind = m.kind
				break
			}
			u -= m.share
		}
		var path string
		var body any
		switch kind {
		case "predict":
			v, a := pair()
			path, body = "/v1/predict", qosd.PredictRequest{Victim: v, Aggressor: a}
		case "predict_partial":
			n := 1 + rng.Intn(partialThreads-1)
			v := qosd.PartialProfileName(cloud[rng.Intn(len(cloud))], n)
			path, body = "/v1/predict", qosd.PredictRequest{Victim: v, Aggressor: pick(), Instances: n, Threads: partialThreads}
		case "admit":
			v, a := pair()
			path, body = "/v1/admit", qosd.AdmitRequest{Victim: v, Aggressor: a,
				Class: classes[rng.Intn(len(classes))].Name,
				Queue: qosd.QueueSpec{Mu: 1000, Lambda: 300 + 600*rng.Float64()}}
		case "colocate":
			v, a := pair()
			path, body = "/v1/colocate", qosd.ColocateRequest{Victim: v, Aggressor: a, QoSTarget: 0.9,
				Queue: &qosd.QueueSpec{Mu: 1000, Lambda: 300 + 600*rng.Float64(), Percentile: 0.95}}
		case "batch":
			req := qosd.BatchRequest{Victim: pick(), QoSTarget: 0.9}
			for len(req.Candidates) < 8 {
				if a := pick(); a != req.Victim {
					req.Candidates = append(req.Candidates, qosd.BatchCandidate{Aggressor: a})
				}
			}
			path, body = "/v1/batch", req
		case "profiles":
			// Re-upload identical profiles: the values never change, but
			// every upload bumps the registry generation.
			var up []smite.Characterization
			for k := 1 + rng.Intn(3); k > 0; k-- {
				up = append(up, in.Profiles[rng.Intn(len(in.Profiles))])
			}
			var buf bytes.Buffer
			if err := smite.SaveProfiles(&buf, up); err != nil {
				return in, err
			}
			in.Requests = append(in.Requests, serveRequest{Kind: kind, Path: "/v1/profiles", Body: buf.Bytes()})
			continue
		}
		b, err := json.Marshal(body)
		if err != nil {
			return in, err
		}
		in.Requests = append(in.Requests, serveRequest{Kind: kind, Path: path, Body: b})
	}
	return in, nil
}

// oracle answers every pool request by direct library calls, the way the
// daemon must: the surrogate tier when both applications have curves and
// the bound is within the threshold, else Model.PredictPartial on the
// registry profiles.
type oracle struct {
	model    smite.Model
	set      *smite.Surrogate
	profiles map[string]smite.Characterization
	slo      qosd.SLOConfig
}

func newOracle(in serveInputs) *oracle {
	o := &oracle{
		model:    smite.NewModel(in.Coef, in.Intercept),
		set:      in.Surrogate,
		profiles: map[string]smite.Characterization{},
		slo:      qosd.SLOConfig{Classes: qosd.DefaultSLOClasses(), Headroom: sloHeadroom},
	}
	for _, c := range in.Profiles {
		o.profiles[c.App] = c
	}
	return o
}

type tiered struct {
	deg, bound float64
	tier       string
}

func (o *oracle) predict(v, a string, instances, threads int) tiered {
	if threads == 0 {
		if p, err := o.model.PredictSurrogate(o.set, v, a); err == nil && p.Bound <= surThreshold {
			return tiered{deg: sanitize(p.Degradation), bound: p.Bound, tier: qosd.TierSurrogate}
		}
	}
	return tiered{deg: sanitize(o.model.PredictPartial(o.profiles[v], o.profiles[a], instances, threads)), tier: qosd.TierEngine}
}

func sanitize(d float64) float64 {
	if !finite(d) {
		return 1
	}
	return d
}

// verdict is what checking one response yields beyond pass/fail.
type verdict struct {
	surrogate, predict bool // full-occupancy predict answered by the surrogate tier
	admit, rejected    bool
}

// check compares one response with the oracle's answer, bit for bit.
func (o *oracle) check(req serveRequest, status int, body []byte) (verdict, error) {
	var v verdict
	if status != http.StatusOK {
		return v, fmt.Errorf("%s: status %d: %s", req.Path, status, bytes.TrimSpace(body))
	}
	switch req.Kind {
	case "predict", "predict_partial":
		var q qosd.PredictRequest
		var got qosd.PredictResponse
		if err := decodeBoth(req.Body, &q, body, &got); err != nil {
			return v, err
		}
		want := o.predict(q.Victim, q.Aggressor, q.Instances, q.Threads)
		if got.Degradation != want.deg || got.Tier != want.tier || got.ErrorBound != want.bound ||
			got.Victim != q.Victim || got.Aggressor != q.Aggressor || got.Generation == 0 {
			return v, fmt.Errorf("predict %s|%s: got %+v, want %+v", q.Victim, q.Aggressor, got, want)
		}
		v.predict = req.Kind == "predict"
		v.surrogate = got.Tier == qosd.TierSurrogate
	case "admit":
		var q qosd.AdmitRequest
		var got qosd.AdmitResponse
		if err := decodeBoth(req.Body, &q, body, &got); err != nil {
			return v, err
		}
		p := o.predict(q.Victim, q.Aggressor, q.Instances, q.Threads)
		class, _ := o.slo.Class(q.Class)
		d := qosd.EvaluateAdmission(p.deg, p.bound, q.Queue.Mu, q.Queue.Lambda, class, o.slo.Headroom)
		ok := got.Admitted == d.Admitted && got.Reason == d.Reason && got.Degradation == p.deg &&
			got.EffectiveDegradation == d.EffectiveDegradation && got.Tier == p.tier &&
			got.ErrorBound == p.bound && got.EffectiveBudget == d.EffectiveBudget &&
			got.Saturated == d.Saturated && (d.Saturated || (got.TailLatency != nil && *got.TailLatency == d.Tail))
		if ok && !d.Admitted {
			want := qosd.SuggestIsolation(p.deg, p.bound, q.Queue.Mu, q.Queue.Lambda, class, o.slo.Headroom, nil)
			ok = (want == nil) == (got.IsolationRemedy == nil) &&
				(want == nil || (want.Level == got.IsolationRemedy.Level &&
					want.EffectiveDegradation == got.IsolationRemedy.EffectiveDegradation &&
					want.TailLatency == got.IsolationRemedy.TailLatency))
		}
		if !ok {
			return v, fmt.Errorf("admit %s|%s %s: got %+v, want %+v (tier %s)", q.Victim, q.Aggressor, q.Class, got, d, p.tier)
		}
		v.admit, v.rejected = true, !d.Admitted
	case "colocate":
		var q qosd.ColocateRequest
		var got qosd.ColocateResponse
		if err := decodeBoth(req.Body, &q, body, &got); err != nil {
			return v, err
		}
		deg := o.predict(q.Victim, q.Aggressor, q.Instances, q.Threads).deg
		tail := queueing.DegradedPercentile(q.Queue.Percentile, q.Queue.Mu, q.Queue.Lambda, deg)
		sat := math.IsInf(tail, 1)
		ok := got.Degradation == deg && got.QoS == service.AvgQoS(deg) && got.Safe == (1-deg >= q.QoSTarget) &&
			got.Saturated == sat && (sat || (got.TailLatency != nil && *got.TailLatency == tail))
		if !ok {
			return v, fmt.Errorf("colocate %s|%s: got %+v, want deg %v tail %v", q.Victim, q.Aggressor, got, deg, tail)
		}
	case "batch":
		var q qosd.BatchRequest
		var got qosd.BatchResponse
		if err := decodeBoth(req.Body, &q, body, &got); err != nil {
			return v, err
		}
		if len(got.Results) != len(q.Candidates) {
			return v, fmt.Errorf("batch %s: %d results for %d candidates", q.Victim, len(got.Results), len(q.Candidates))
		}
		for i, c := range q.Candidates {
			deg := o.predict(q.Victim, c.Aggressor, c.Instances, q.Threads).deg
			r := got.Results[i]
			if r.Aggressor != c.Aggressor || r.Degradation != deg || r.Safe == nil || *r.Safe != (1-deg >= q.QoSTarget) {
				return v, fmt.Errorf("batch %s candidate %d: got %+v, want deg %v", q.Victim, i, r, deg)
			}
		}
	case "profiles":
		chars, err := smite.LoadProfiles(bytes.NewReader(req.Body))
		if err != nil {
			return v, err
		}
		var got qosd.ProfilesResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return v, err
		}
		if got.Added != len(chars) || got.Total != len(o.profiles) {
			return v, fmt.Errorf("profiles: got %+v, want added %d total %d", got, len(chars), len(o.profiles))
		}
	}
	return v, nil
}

func decodeBoth(reqBody []byte, req any, respBody []byte, resp any) error {
	if err := json.Unmarshal(reqBody, req); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if err := json.Unmarshal(respBody, resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	return nil
}

// echoPath answers a fixed body without entering qosd: the transport-only
// round trip the traced run compares the handler decomposition with.
const echoPath = "/perfbench/echo"

var echoBody = []byte(`{"victim":"429.mcf","aggressor":"444.namd","degradation":0.1234567890123,"tier":"engine","generation":1}` + "\n")

// daemon is one in-process qosd server on a loopback listener plus the
// client the load generator drives it with.
type daemon struct {
	handler http.Handler
	ts      *httptest.Server
	client  *http.Client
}

func startDaemon(in serveInputs, conns int) *daemon {
	reg := qosd.NewRegistry()
	reg.AddProfiles(in.Profiles)
	reg.SetModel(smite.NewModel(in.Coef, in.Intercept))
	srv := qosd.NewServer(reg, qosd.Config{
		Surrogate:          in.Surrogate,
		SurrogateThreshold: surThreshold,
		SLO:                &qosd.SLOConfig{Classes: qosd.DefaultSLOClasses(), Headroom: sloHeadroom},
	})
	h := srv.Handler()
	mux := http.NewServeMux()
	mux.HandleFunc(echoPath, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(echoBody)
	})
	mux.Handle("/", h)
	ts := httptest.NewServer(mux)
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
	return &daemon{handler: h, ts: ts, client: client}
}

func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.ts.Close()
}

// do sends one request and returns its status and body.
func (d *daemon) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// sample is one open-loop request: when it was due, when it was sent and
// when its response had been read, relative to the phase start.
type sample struct {
	due, sent, done time.Duration
	idx             int // pool index; -1 for echo requests
	status          int
	body            []byte
	err             error
}

// phaseResult summarises one open-loop phase.
type phaseResult struct {
	n, failed        int
	lat              []float64 // seconds, sorted; failures are +Inf
	late             []float64 // send − due, seconds, sorted
	surrogate, preds int
	rejected, admits int
}

// openLoop sends rate·dur requests at fixed spacing from r.workers sender
// goroutines, each with its own connection, timing every request from its
// due time. Requests cycle through the pool from offset; echo sends the
// transport-only request instead. Every response is checked after the
// phase, and a failed check is a failed request.
func (s *serveRun) openLoop(ctx context.Context, rate float64, dur time.Duration, echo bool) phaseResult {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	interval := time.Duration(float64(time.Second) / rate)
	samples := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	offset := s.offset
	s.offset += n
	for w := 0; w < s.r.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wctx := trace.WithTrack(ctx, fmt.Sprintf("sender-%d", w))
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(i) * interval
				sleepUntil(start.Add(due))
				sm := &samples[i]
				sm.due = due
				sm.sent = time.Since(start)
				path, body, kind := echoPath, echoBody, "echo"
				sm.idx = -1
				if !echo {
					sm.idx = (offset + i) % len(s.in.Requests)
					req := s.in.Requests[sm.idx]
					path, body, kind = req.Path, req.Body, req.Kind
				}
				rctx, sp := trace.Start(wctx, "serve.request", trace.String("kind", kind))
				method := http.MethodPost
				if echo {
					method = http.MethodGet
				}
				sm.status, sm.body, sm.err = s.d.do(rctx, method, path, body)
				sm.done = time.Since(start)
				sp.End()
			}
		}(w)
	}
	wg.Wait()

	pr := phaseResult{n: n}
	for i := range samples {
		sm := &samples[i]
		lat := (sm.done - sm.due).Seconds()
		ok := sm.err == nil
		if ok && echo {
			ok = sm.status == http.StatusOK && bytes.Equal(sm.body, echoBody)
		} else if ok {
			v, err := s.oracle.check(s.in.Requests[sm.idx], sm.status, sm.body)
			if err != nil {
				sm.err = err
				ok = false
			}
			if v.predict {
				pr.preds++
				if v.surrogate {
					pr.surrogate++
				}
			}
			if v.admit {
				pr.admits++
				if v.rejected {
					pr.rejected++
				}
			}
		}
		if !s.r.ops.check(ok, "request %d (%s): %v", i, kindOf(s.in, sm.idx), sm.err) {
			pr.failed++
			lat = math.Inf(1)
		}
		pr.lat = append(pr.lat, lat)
		pr.late = append(pr.late, (sm.sent - sm.due).Seconds())
		sm.body = nil
	}
	sort.Float64s(pr.lat)
	sort.Float64s(pr.late)
	return pr
}

func kindOf(in serveInputs, idx int) string {
	if idx < 0 {
		return "echo"
	}
	return in.Requests[idx].Kind
}

// phaseSlices is how many alternating slices the lo and hi phases are
// split into.
const phaseSlices = 8

// merge pools another slice of the same rate into p.
func (p *phaseResult) merge(q phaseResult) {
	p.n += q.n
	p.failed += q.failed
	p.lat = append(p.lat, q.lat...)
	p.late = append(p.late, q.late...)
	sort.Float64s(p.lat)
	sort.Float64s(p.late)
	p.surrogate += q.surrogate
	p.preds += q.preds
	p.rejected += q.rejected
	p.admits += q.admits
}

// serveRun is one serve invocation's state.
type serveRun struct {
	r      *runner
	in     serveInputs
	oracle *oracle
	d      *daemon
	offset int // next pool index, so phases continue through the pool
}

// serveSizes are the phases derived from the time budget: a warm-up, the
// two open-loop rates, and a number of closed-loop passes fixed by the
// budget rather than timed, so that every run serves the same requests
// whatever the host's speed. The prediction memo grows with every request
// served, and the heap and the pass time grow with it.
type serveSizes struct {
	warm, lo, hi time.Duration
	passes       int
}

func serveSizesFor(total time.Duration) serveSizes {
	return serveSizes{
		warm:   total / 40,
		lo:     total / 4,
		hi:     total / 5,
		passes: max(phaseSlices, int(total.Seconds()*8/3)),
	}
}

// newServeRun generates the inputs, starts the daemon and warms its
// connections: the serve set-up.
func newServeRun(ctx context.Context, r *runner) (*serveRun, error) {
	in, err := serveInputsFor(r.opts.seed)
	if err != nil {
		return nil, err
	}
	s := &serveRun{r: r, in: in, oracle: newOracle(in), d: startDaemon(in, r.workers)}
	if err := warmDaemon(ctx, s.d, in, r.workers); err != nil {
		s.d.close()
		return nil, err
	}
	return s, nil
}

func runServe(ctx context.Context, r *runner) error {
	setup, err := timeSetup(func() error {
		s, err := newServeRun(ctx, r)
		if err == nil {
			s.d.close()
		}
		return err
	})
	if err != nil {
		return err
	}
	s, err := newServeRun(ctx, r)
	if err != nil {
		return err
	}
	defer s.d.close()
	r.set("setup_s", setup)

	// The phases alternate in short slices, so a burst of host noise lands
	// in one slice of each rather than in all of one.
	sizes := serveSizesFor(r.measureFor())
	heap := startHeapPeak()
	s.openLoop(ctx, loRPS, sizes.warm, false)
	s.closedLoop(ctx)
	var lo, hi phaseResult
	var walls, cpus []float64
	for i := 0; i < phaseSlices; i++ {
		lo.merge(s.openLoop(ctx, loRPS, sizes.lo/phaseSlices, false))
		hi.merge(s.openLoop(ctx, hiRPS, sizes.hi/phaseSlices, false))
		for j := 0; j < sizes.passes/phaseSlices; j++ {
			wall, cpu := s.closedLoop(ctx)
			walls = append(walls, wall.Seconds())
			cpus = append(cpus, cpu.Seconds())
		}
	}
	r.set("heap_mb", heap.Stop())
	r.set("wall_s", median(walls))
	r.set("cpu_s", median(cpus))
	r.note("closed_loop_passes", len(walls))
	r.note("closed_loop_rps", float64(len(s.in.Requests))/median(walls))

	for _, ph := range []struct {
		name string
		p    phaseResult
	}{{"lo", lo}, {"hi", hi}} {
		// The open-loop latencies are recorded beside the result, not
		// gated: on a virtual machine whose vCPUs stall for milliseconds
		// many times a second, p90 and p99 measure the stalls, and at lo,
		// where the vCPUs idle between requests, the median is mostly their
		// wake-up latency (README.md).
		for _, q := range []float64{0.5, 0.9, 0.99} {
			v, ok := percentile(ph.p.lat, q)
			if !ok {
				return fmt.Errorf("phase %s: %d samples are too few for p%g", ph.name, ph.p.n, 100*q)
			}
			r.note(fmt.Sprintf("p%g_ms.%s", 100*q, ph.name), v*1e3)
		}
		lateP99, _ := percentile(ph.p.late, 0.99)
		r.note("samples."+ph.name, ph.p.n)
		r.note("generator_late_p99_ms."+ph.name, lateP99*1e3)
	}
	return nil
}

// closedLoop sends every pool request once from r.workers goroutines, each
// with its own connection and sending its next request as soon as its last
// one is answered, and returns the pass's host and process CPU time. Every
// response is checked after the pass; a failed check is a failed request.
func (s *serveRun) closedLoop(ctx context.Context) (wall, cpu time.Duration) {
	type reply struct {
		status int
		body   []byte
		err    error
	}
	replies := make([]reply, len(s.in.Requests))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0, c0 := time.Now(), cpuTime()
	for w := 0; w < s.r.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(replies) {
					return
				}
				req := s.in.Requests[i]
				rp := &replies[i]
				rp.status, rp.body, rp.err = s.d.do(ctx, http.MethodPost, req.Path, req.Body)
			}
		}()
	}
	wg.Wait()
	wall, cpu = time.Since(t0), cpuTime()-c0
	for i, rp := range replies {
		err := rp.err
		if err == nil {
			_, err = s.oracle.check(s.in.Requests[i], rp.status, rp.body)
		}
		s.r.ops.check(err == nil, "closed-loop request %d (%s): %v", i, s.in.Requests[i].Kind, err)
	}
	return wall, cpu
}

// warmDaemon sends a few of every request kind over the client's
// connections, so connection set-up is part of set-up.
func warmDaemon(ctx context.Context, d *daemon, in serveInputs, conns int) error {
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 64; i += conns {
				req := in.Requests[i]
				status, _, err := d.do(ctx, http.MethodPost, req.Path, req.Body)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("warm-up %s: status %d", req.Path, status)
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// serveLayers is serve's share of the traced run.
func serveLayers(ctx context.Context, r *runner) error {
	s, err := newServeRun(ctx, r)
	if err != nil {
		return err
	}
	defer s.d.close()
	sizes := serveSizesFor(r.measureFor())
	s.openLoop(ctx, loRPS, sizes.warm, false)
	untraced := s.openLoop(ctx, loRPS, sizes.lo, false)
	tctx := r.tracedCtx(ctx)
	lctx, sp := trace.Start(tctx, "serve.lo")
	traced := s.openLoop(lctx, loRPS, sizes.lo, false)
	sp.End()
	r.set("trace.overhead_s.serve", sum(traced.lat)-sum(untraced.lat))
	r.set("qosd.tier_surrogate_share", float64(untraced.surrogate)/float64(untraced.preds))
	r.set("qosd.admit_reject_share", float64(untraced.rejected)/float64(untraced.admits))

	_, sp = trace.Start(tctx, "serve.metrics")
	status, body, err := s.d.do(ctx, http.MethodGet, "/metrics", nil)
	sp.End()
	var m qosd.MetricsResponse
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &m)
	}
	if !r.ops.check(err == nil && status == http.StatusOK, "GET /metrics: status %d: %v", status, err) {
		return fmt.Errorf("GET /metrics failed")
	}
	pc := m.PredictionCache
	r.set("qosd.memo_hit_ratio", float64(pc.Hits)/float64(pc.Hits+pc.Misses))
	r.set("qosd.memo_entries", float64(pc.Entries))

	// Transport alone: the echo route, open loop at the same rate.
	_, sp = trace.Start(tctx, "serve.echo")
	echo := s.openLoop(ctx, loRPS, sizes.lo/2, true)
	sp.End()

	// The handler alone: in-process ServeHTTP on a recorder.
	_, sp = trace.Start(tctx, "serve.handler")
	handlerP50, allocs, bytesPer := s.handlerOnly()
	sp.End()
	var mixP50 float64
	for _, m := range requestMix {
		mixP50 += m.share * handlerP50[handlerKinds[m.kind]]
	}
	for kind, v := range handlerP50 {
		r.set("qosd.handler_us."+kind, v*1e6)
	}
	r.set("qosd.allocs_per_req", allocs)
	r.set("qosd.bytes_per_req", bytesPer)
	clientP50, _ := percentile(untraced.lat, 0.5)
	echoP50, _ := percentile(echo.lat, 0.5)
	r.set("qosd.transport_us", (clientP50-mixP50)*1e6)
	share := (mixP50 + echoP50) / clientP50
	r.set("trace.decomp_share.serve", share)
	r.set("trace.decomp_ok.serve", boolMetric(math.Abs(share-1) <= stageTolerance))
	r.note("serve.client_p50_us.lo", clientP50*1e6)
	r.note("serve.echo_p50_us", echoP50*1e6)
	r.note("serve.handler_mix_p50_us", mixP50*1e6)

	// Direct library calls on the request path.
	_, sp = trace.Start(tctx, "serve.library")
	s.libraryCosts()
	sp.End()
	return nil
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// handlerOnly serves every pool request through the daemon's handler
// stack in process, on a recorder, checking each response, and returns
// each handler's p50 in seconds. A second pass over prebuilt requests
// counts the allocations and bytes of ServeHTTP alone. Uploads go last:
// each one bumps the registry generation and cold-starts the memo.
func (s *serveRun) handlerOnly() (p50 map[string]float64, allocs, bytesPer float64) {
	var order []int
	for _, uploads := range []bool{false, true} {
		for i, req := range s.in.Requests {
			if (req.Kind == "profiles") == uploads {
				order = append(order, i)
			}
		}
	}
	newReq := func(req serveRequest) *http.Request {
		return httptest.NewRequest(http.MethodPost, req.Path, bytes.NewReader(req.Body))
	}
	times := map[string][]float64{}
	for _, i := range order {
		req := s.in.Requests[i]
		hr, rec := newReq(req), httptest.NewRecorder()
		t := time.Now()
		s.d.handler.ServeHTTP(rec, hr)
		el := time.Since(t)
		kind := handlerKinds[req.Kind]
		times[kind] = append(times[kind], el.Seconds())
		_, err := s.oracle.check(req, rec.Code, rec.Body.Bytes())
		s.r.ops.check(err == nil, "handler %s: %v", req.Kind, err)
	}
	p50 = map[string]float64{}
	for kind, ts := range times {
		p50[kind] = median(ts)
	}

	reqs := make([]*http.Request, len(order))
	recs := make([]*httptest.ResponseRecorder, len(order))
	for j, i := range order {
		reqs[j], recs[j] = newReq(s.in.Requests[i]), httptest.NewRecorder()
	}
	var before, after runtimeMem
	before.read()
	for j := range reqs {
		s.d.handler.ServeHTTP(recs[j], reqs[j])
	}
	after.read()
	n := float64(len(order))
	return p50, float64(after.mallocs-before.mallocs) / n, float64(after.bytes-before.bytes) / n
}

// libraryCosts times the direct library calls behind a request.
func (s *serveRun) libraryCosts() {
	r := s.r
	o := s.oracle
	const n = 200_000
	var gen uint64
	var sink simcache.Key
	r.set("simcache.keyof_ns", nsPerOp(n/4, func() {
		gen++
		sink = simcache.KeyOf("qosd/predict/v2", gen, "429.mcf", "444.namd", 0, 0)
	}))
	_ = sink
	v, a := o.profiles["429.mcf"], o.profiles["444.namd"]
	var deg float64
	r.set("model.predict_partial_ns", nsPerOp(n, func() { deg += o.model.PredictPartial(v, a, 2, 4) }))
	var surApps []string
	for app := range o.set.Models {
		surApps = append(surApps, app)
	}
	sort.Strings(surApps)
	r.set("surrogate.predict_ns", nsPerOp(n, func() {
		p, _ := o.model.PredictSurrogate(o.set, surApps[0], surApps[1])
		deg += p.Degradation
	}))
	class := qosd.DefaultSLOClasses()[0]
	r.set("qosd.evaluate_admission_ns", nsPerOp(n, func() {
		d := qosd.EvaluateAdmission(0.2, 0.01, 1000, 600, class, sloHeadroom)
		deg += d.Tail
	}))
	r.ops.check(finite(deg), "library calls returned a non-finite value")
}
