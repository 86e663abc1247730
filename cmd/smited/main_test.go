package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/qosd"
	"repro/internal/slo"
	"repro/internal/surrogate"
	"repro/smite"
)

// writeArtifacts persists a small profile set and model to disk, the same
// files a real deployment hands to -profiles and -model.
func writeArtifacts(t *testing.T) (profilesPath, modelPath string, chars []smite.Characterization, m smite.Model) {
	t.Helper()
	dir := t.TempDir()
	victim := smite.Characterization{App: "web-search", SoloIPC: 1.2}
	aggr := smite.Characterization{App: "429.mcf", SoloIPC: 0.5}
	for d := range victim.Sen {
		victim.Sen[d] = 0.04 * float64(d+1)
		aggr.Con[d] = 0.09 * float64(d+1)
	}
	chars = []smite.Characterization{victim, aggr}

	var coef [smite.NumDimensions]float64
	for d := range coef {
		coef[d] = 0.15
	}
	m = smite.NewModel(coef, 0.02)

	profilesPath = filepath.Join(dir, "profiles.json")
	pf, err := os.Create(profilesPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := smite.SaveProfiles(pf, chars); err != nil {
		t.Fatal(err)
	}
	pf.Close()

	modelPath = filepath.Join(dir, "model.json")
	mf, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := smite.SaveModel(mf, m); err != nil {
		t.Fatal(err)
	}
	mf.Close()
	return profilesPath, modelPath, chars, m
}

func TestFlagValidation(t *testing.T) {
	profiles, model, _, _ := writeArtifacts(t)
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"unknown flag", []string{"-no-such-flag"}, "flag provided but not defined"},
		{"positional args", []string{"stray"}, "unexpected arguments"},
		{"empty addr", []string{"-addr", ""}, "-addr must not be empty"},
		{"zero max-inflight", []string{"-max-inflight", "0"}, "-max-inflight must be positive"},
		{"negative timeout", []string{"-timeout", "-1s"}, "-timeout must be positive"},
		{"zero drain", []string{"-drain", "0s"}, "-drain must be positive"},
		{"missing profiles file", []string{"-profiles", filepath.Join(dir, "nope.json")}, "opening profiles"},
		{"corrupt profiles file", []string{"-profiles", garbage}, "loading profiles"},
		{"missing model file", []string{"-profiles", profiles, "-model", filepath.Join(dir, "nope.json")}, "opening model"},
		{"corrupt model file", []string{"-profiles", profiles, "-model", garbage}, "loading model"},
		{"negative surrogate threshold", []string{"-surrogate", garbage, "-surrogate-threshold", "-0.1"}, "-surrogate-threshold must be non-negative"},
		{"NaN surrogate threshold", []string{"-surrogate", garbage, "-surrogate-threshold", "NaN"}, "-surrogate-threshold must be non-negative"},
		{"surrogate threshold without file", []string{"-profiles", profiles, "-surrogate-threshold", "0.1"}, "no -surrogate file"},
		{"missing surrogate file", []string{"-profiles", profiles, "-surrogate", filepath.Join(dir, "nope.json")}, "loading surrogate"},
		{"corrupt surrogate file", []string{"-profiles", profiles, "-surrogate", garbage}, "loading surrogate"},
		{"malformed slo class", []string{"-profiles", profiles, "-slo-config", "critical:bogus"}, "invalid -slo-config"},
		{"empty slo class name", []string{"-profiles", profiles, "-slo-config", ":20ms"}, "invalid -slo-config"},
		{"duplicate slo class", []string{"-profiles", profiles, "-slo-config", "a:20ms,a:40ms"}, "invalid -slo-config"},
		{"slo percentile out of range", []string{"-profiles", profiles, "-slo-config", "a:20ms:2"}, "invalid -slo-config"},
		{"slo headroom out of range", []string{"-profiles", profiles, "-slo-config", "a:20ms", "-slo-headroom", "1"}, "invalid -slo-headroom"},
		{"NaN slo headroom", []string{"-profiles", profiles, "-slo-config", "a:20ms", "-slo-headroom", "NaN"}, "invalid -slo-headroom"},
	}
	_ = model
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(context.Background(), tc.args, io.Discard, io.Discard)
			if err == nil {
				t.Fatal("run accepted bad flags")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestSurrogateTierEndToEnd boots the daemon with a fitted surrogate set
// alongside the registry artifacts and checks that /v1/predict answers
// from the surrogate tier (with its bound on the wire) for fitted pairs
// and falls back to the engine tier for unfitted ones.
func TestSurrogateTierEndToEnd(t *testing.T) {
	profiles, model, chars, m := writeArtifacts(t)

	// Curves that reproduce the registry characterizations exactly at full
	// intensity, each with a small recorded error.
	set := &smite.Surrogate{Machine: "test", Models: map[string]*smite.SurrogateModel{}}
	for _, ch := range chars {
		sm := &smite.SurrogateModel{App: ch.App, SoloIPC: ch.SoloIPC}
		for d := range sm.Sen {
			sm.Sen[d] = surrogate.Curve{Coef: [3]float64{ch.Sen[d]}, MaxAbsErr: 0.001}
			sm.Con[d] = surrogate.Curve{Coef: [3]float64{ch.Con[d]}, MaxAbsErr: 0.001}
		}
		set.Models[ch.App] = sm
	}
	surPath := filepath.Join(t.TempDir(), "surrogate.json")
	if err := smite.SaveSurrogate(surPath, set); err != nil {
		t.Fatal(err)
	}

	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-quiet",
		"-profiles", profiles, "-model", model, "-surrogate", surPath}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	a, err := newApp(cfg, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	defer a.Shutdown()
	c := qosd.NewClient("http://"+a.Addr().String(), http.DefaultClient)

	got, err := c.Predict(context.Background(), qosd.PredictRequest{Victim: "web-search", Aggressor: "429.mcf"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Tier != qosd.TierSurrogate {
		t.Fatalf("tier = %q, want %q", got.Tier, qosd.TierSurrogate)
	}
	want, err := m.PredictSurrogate(set, "web-search", "429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	if got.Degradation != want.Degradation || got.ErrorBound != want.Bound {
		t.Errorf("served (%v, %v), want (%v, %v)", got.Degradation, got.ErrorBound, want.Degradation, want.Bound)
	}

	// Partial occupancy always takes the engine tier.
	eng, err := c.Predict(context.Background(), qosd.PredictRequest{
		Victim: "web-search", Aggressor: "429.mcf", Instances: 1, Threads: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Tier != qosd.TierEngine || eng.ErrorBound != 0 {
		t.Errorf("partial occupancy got tier %q bound %v, want engine tier with no bound", eng.Tier, eng.ErrorBound)
	}
}

// syncBuffer is a concurrency-safe writer the smoke test polls for the
// daemon's listening line.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenLine = regexp.MustCompile(`smited listening on (\S+)`)

// TestEndToEndSmoke runs the daemon exactly as main does — through run()
// with real flags and real files — against an ephemeral port, exercises
// /healthz and /v1/predict, then cancels the context (the SIGTERM path)
// and expects a clean exit.
func TestEndToEndSmoke(t *testing.T) {
	profiles, model, chars, m := writeArtifacts(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var out syncBuffer
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-profiles", profiles,
			"-model", model,
			"-quiet",
		}, &out, io.Discard)
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; output: %q", out.String())
		}
		if match := listenLine.FindStringSubmatch(out.String()); match != nil {
			addr = match[1]
		} else {
			select {
			case err := <-errCh:
				t.Fatalf("daemon exited early: %v", err)
			case <-time.After(10 * time.Millisecond):
			}
		}
	}

	c := qosd.NewClient("http://"+addr, nil)
	h, err := c.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Profiles != 2 || !h.ModelLoaded {
		t.Errorf("health %+v, want ok with 2 profiles and a model", h)
	}

	got, err := c.Predict(ctx, qosd.PredictRequest{Victim: "web-search", Aggressor: "429.mcf"})
	if err != nil {
		t.Fatal(err)
	}
	// Disk → daemon → HTTP → client must reproduce the in-process
	// prediction bit for bit.
	if want := m.PredictPair(chars[0], chars[1]); got.Degradation != want {
		t.Errorf("served degradation %v != in-process %v", got.Degradation, want)
	}

	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Errorf("shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after cancellation")
	}
}

// TestGracefulShutdownDrains verifies the drain semantics: a request in
// flight when shutdown begins is allowed to finish and answered normally;
// only then does Shutdown return. The in-flight request is a raw TCP
// connection holding its request half-written, so the server is
// provably mid-request when the drain starts.
func TestGracefulShutdownDrains(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-quiet", "-drain", "10s"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	a, err := newApp(cfg, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	active := make(chan struct{}, 4)
	a.srv.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateActive {
			active <- struct{}{}
		}
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", a.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Complete headers, withheld body: the handler is now parked inside
	// the JSON decode waiting for the two body bytes, so the request is
	// provably in flight when the drain starts.
	if _, err := io.WriteString(conn,
		"POST /v1/predict HTTP/1.1\r\nHost: smited\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-active:
	case <-time.After(10 * time.Second):
		t.Fatal("connection never became active")
	}

	done := make(chan error, 1)
	go func() { done <- a.Shutdown() }()

	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v with a request still in flight", err)
	case <-time.After(300 * time.Millisecond):
		// Still draining, as it should be.
	}

	// Complete the request; the draining server must still answer it
	// (400 invalid_argument — the empty predict body fails validation,
	// which is fine: the point is the request gets a real answer).
	if _, err := io.WriteString(conn, "{}"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no response from draining server: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("draining server answered %d, want 400", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)

	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Shutdown returned %v after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after the last request finished")
	}
}

func TestVersionFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-version"}, &out, io.Discard); err != nil {
		t.Fatalf("run -version: %v", err)
	}
	if !strings.HasPrefix(out.String(), "smited ") || !strings.Contains(out.String(), "go1") {
		t.Errorf("version output = %q", out.String())
	}
}

// With -trace, a ?trace=1 request leaves its Chrome render behind at
// /debug/trace/last; without it the route does not exist.
func TestTraceFlagEndToEnd(t *testing.T) {
	profiles, model, _, _ := writeArtifacts(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var out syncBuffer
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-profiles", profiles,
			"-model", model,
			"-quiet",
			"-trace",
		}, &out, io.Discard)
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; output: %q", out.String())
		}
		if match := listenLine.FindStringSubmatch(out.String()); match != nil {
			addr = match[1]
		} else {
			select {
			case err := <-errCh:
				t.Fatalf("daemon exited early: %v", err)
			case <-time.After(10 * time.Millisecond):
			}
		}
	}

	body := strings.NewReader(`{"victim":"web-search","aggressor":"429.mcf"}`)
	resp, err := http.Post("http://"+addr+"/v1/predict?trace=1", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced predict = %d", resp.StatusCode)
	}

	resp, err = http.Get("http://" + addr + "/debug/trace/last")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace/last = %d: %s", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), "qosd.predict") {
		t.Errorf("trace render missing qosd.predict span:\n%s", b)
	}

	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Errorf("shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after cancellation")
	}
}

// TestSLOFlagErrorsAreTyped pins that malformed SLO flags surface as
// *FlagError (main exits 2 on any error; the type is what separates
// flag mistakes from runtime failures in scripts and tests).
func TestSLOFlagErrorsAreTyped(t *testing.T) {
	for _, args := range [][]string{
		{"-slo-config", "critical:bogus"},
		{"-slo-config", "a:20ms", "-slo-headroom", "-0.5"},
	} {
		_, err := parseFlags(args, io.Discard)
		if err == nil {
			t.Fatalf("args %v accepted", args)
		}
		var fe *FlagError
		if !errors.As(err, &fe) {
			t.Errorf("args %v: error %v is not a *FlagError", args, err)
		}
	}
}

// TestSLOAdmitEndToEnd boots the daemon with -slo-config and drives
// POST /v1/admit through the typed client: the served decision must match
// the in-process admission math on the served prediction, a co-location
// whose inflated tail exceeds the class budget must be rejected, and a
// daemon without -slo-config must answer 501.
func TestSLOAdmitEndToEnd(t *testing.T) {
	profiles, model, _, _ := writeArtifacts(t)
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-quiet",
		"-profiles", profiles, "-model", model,
		"-slo-config", "critical:20ms:0.95,standard:60ms:0.95,sheddable:150ms:0.90",
		"-slo-headroom", "0.1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	a, err := newApp(cfg, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	defer a.Shutdown()
	c := qosd.NewClient("http://"+a.Addr().String(), http.DefaultClient)
	ctx := context.Background()

	queue := qosd.QueueSpec{Mu: 1000, Lambda: 600}
	pred, err := c.Predict(ctx, qosd.PredictRequest{Victim: "web-search", Aggressor: "429.mcf"})
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{"critical", "standard", "sheddable"} {
		got, err := c.Admit(ctx, qosd.AdmitRequest{
			Victim: "web-search", Aggressor: "429.mcf", Class: class, Queue: queue,
		})
		if err != nil {
			t.Fatalf("class %s: %v", class, err)
		}
		wantClass, ok := cfg.slo.Class(class)
		if !ok {
			t.Fatalf("class %s missing from parsed config", class)
		}
		want := slo.EvaluateAdmission(pred.Degradation, pred.ErrorBound,
			queue.Mu, queue.Lambda, wantClass, cfg.slo.Headroom)
		if got.Admitted != want.Admitted || got.Reason != string(want.Reason) {
			t.Errorf("class %s: served (%v, %s), in-process math says (%v, %s)",
				class, got.Admitted, got.Reason, want.Admitted, want.Reason)
		}
		if got.Admitted {
			if got.TailLatency == nil {
				t.Errorf("class %s: admitted with no tail estimate", class)
			} else if *got.TailLatency > got.EffectiveBudget {
				t.Errorf("class %s: admitted with tail %g over effective budget %g",
					class, *got.TailLatency, got.EffectiveBudget)
			}
		}
	}

	// A queue this loaded cannot fit a 20ms p95 budget at the predicted
	// degradation: the admission gate must reject, never admit-and-hope.
	tight, err := c.Admit(ctx, qosd.AdmitRequest{
		Victim: "web-search", Aggressor: "429.mcf", Class: "critical",
		Queue: qosd.QueueSpec{Mu: 1000, Lambda: 995},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Admitted {
		t.Errorf("near-saturated queue admitted: %+v", tight)
	}

	// Unknown class is a 404 with its own code.
	_, err = c.Admit(ctx, qosd.AdmitRequest{
		Victim: "web-search", Aggressor: "429.mcf", Class: "bronze", Queue: queue,
	})
	var ae *qosd.APIError
	if !errors.As(err, &ae) || ae.Code != qosd.CodeUnknownClass {
		t.Errorf("unknown class error = %v, want code %s", err, qosd.CodeUnknownClass)
	}
}

// TestAdmitDisabledWithoutSLOConfig pins the 501 path: a daemon started
// without -slo-config mounts /v1/admit but refuses to serve it.
func TestAdmitDisabledWithoutSLOConfig(t *testing.T) {
	profiles, model, _, _ := writeArtifacts(t)
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-quiet",
		"-profiles", profiles, "-model", model}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	a, err := newApp(cfg, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	defer a.Shutdown()
	c := qosd.NewClient("http://"+a.Addr().String(), http.DefaultClient)
	_, err = c.Admit(context.Background(), qosd.AdmitRequest{
		Victim: "web-search", Aggressor: "429.mcf", Class: "critical",
		Queue: qosd.QueueSpec{Mu: 1000, Lambda: 600},
	})
	var ae *qosd.APIError
	if !errors.As(err, &ae) || ae.Code != qosd.CodeSLODisabled {
		t.Errorf("admit without SLO config = %v, want code %s", err, qosd.CodeSLODisabled)
	}
}
