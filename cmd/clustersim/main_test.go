package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// Bad invocations must be rejected with an error (main turns any error into
// a non-zero exit after the FlagSet prints usage).
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"undefined flag", []string{"-bogus"}},
		{"no -server flag", []string{"-server"}},
		{"unknown scale", []string{"-scale", "huge"}},
		{"unknown qos", []string{"-qos", "p50"}},
		{"malformed target", []string{"-targets", "0.95,banana"}},
		{"target out of range", []string{"-targets", "1.5"}},
		{"negative target", []string{"-targets", "-0.9"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(context.Background(), tc.args, &out); err == nil {
				t.Error("invalid invocation accepted")
			}
		})
	}
}

// TestScaleOutSmoke runs the whole study at test scale; the experiments
// package covers the physics, this pins the CLI wiring and report shape.
func TestScaleOutSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-out study in short mode")
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-scale", "test", "-servers", "20"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"target 95%:", "SMiTe", "Oracle", "Random", "TCO model"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestVersionFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-version"}, &buf); err != nil {
		t.Fatalf("run -version: %v", err)
	}
	if !strings.HasPrefix(buf.String(), "clustersim ") || !strings.Contains(buf.String(), "go1") {
		t.Errorf("version output = %q", buf.String())
	}
}
