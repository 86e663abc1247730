package qosd

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/smite"
)

// fastSystem builds a simulation System on the shortened windows.
func fastSystem(t *testing.T) *smite.System {
	t.Helper()
	sys, err := smite.New(smite.IvyBridge.Config(), smite.WithOptions(smite.FastOptions()))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// A daemon started without -simulate answers /v1/characterize with 501.
func TestCharacterizeDisabledWithoutSystem(t *testing.T) {
	_, c := newTestServer(t, Config{})
	_, err := c.Characterize(context.Background(), CharacterizeRequest{App: "444.namd"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != CodeSimulationDisabled || apiErr.Status != 501 {
		t.Fatalf("got %v, want %s/501", err, CodeSimulationDisabled)
	}
}

// The endpoint validates its arguments before touching the simulator.
func TestCharacterizeValidation(t *testing.T) {
	_, c := newTestServer(t, Config{System: fastSystem(t)})
	cases := []struct {
		name     string
		req      CharacterizeRequest
		wantCode string
		wantHTTP int
	}{
		{"unknown app", CharacterizeRequest{App: "no-such-app"}, CodeUnknownProfile, 404},
		{"empty app", CharacterizeRequest{}, CodeUnknownProfile, 404},
		{"bad placement", CharacterizeRequest{App: "444.namd", Placement: "sideways"}, CodeInvalidArgument, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Characterize(context.Background(), tc.req)
			var apiErr *APIError
			if !errors.As(err, &apiErr) {
				t.Fatalf("got %v, want *APIError", err)
			}
			if apiErr.Code != tc.wantCode || apiErr.Status != tc.wantHTTP {
				t.Errorf("got %s/%d, want %s/%d", apiErr.Code, apiErr.Status, tc.wantCode, tc.wantHTTP)
			}
		})
	}
}

// A characterization with register=true becomes immediately predictable:
// the profile lands in the registry and /v1/predict can use it.
func TestCharacterizeRegistersProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated Ruler sweep in short mode")
	}
	s, c := newTestServer(t, Config{System: fastSystem(t), RequestTimeout: 5 * time.Minute})
	resp, err := c.Characterize(context.Background(), CharacterizeRequest{
		App: "470.lbm", Placement: "smt", Register: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.App != "470.lbm" || resp.Placement != "SMT" {
		t.Errorf("response header %q/%q, want 470.lbm/SMT", resp.App, resp.Placement)
	}
	if resp.Profile.App != "470.lbm" || resp.Profile.SoloIPC <= 0 {
		t.Errorf("profile %+v lacks app name or positive solo IPC", resp.Profile)
	}
	if !resp.Registered || resp.Total != 4 {
		t.Errorf("registered=%v total=%d, want true/4", resp.Registered, resp.Total)
	}
	if _, ok := s.Registry().Profile("470.lbm"); !ok {
		t.Error("registry has no 470.lbm profile after register=true")
	}
	if _, err := c.Predict(context.Background(), PredictRequest{
		Victim: "470.lbm", Aggressor: "429.mcf",
	}); err != nil {
		t.Errorf("predict with the freshly-registered victim: %v", err)
	}
}

// The tentpole guarantee: a request deadline far shorter than the sweep's
// wall-clock aborts the in-flight simulation instead of burning the worker
// budget. The measurement windows below take minutes uncancelled, so the
// elapsed-time bound proves the simulation actually stopped.
func TestCharacterizeTimeoutCancelsSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("cancellation timing in short mode")
	}
	opts := smite.FastOptions()
	opts.WarmupCycles = 10_000_000
	opts.MeasureCycles = 100_000_000
	sys, err := smite.New(smite.IvyBridge.Config(), smite.WithOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	_, c := newTestServer(t, Config{System: sys, RequestTimeout: 50 * time.Millisecond})

	start := time.Now()
	_, err = c.Characterize(context.Background(), CharacterizeRequest{App: "429.mcf"})
	elapsed := time.Since(start)

	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != CodeDeadlineExceeded || apiErr.Status != 504 {
		t.Fatalf("got %v, want %s/504", err, CodeDeadlineExceeded)
	}
	if elapsed > 10*time.Second {
		t.Errorf("cancelled request took %v; the simulation kept running past the deadline", elapsed)
	}
}
