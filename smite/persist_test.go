package smite

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/surrogate"
)

func sampleModel() Model {
	var inner model.Smite
	for d := range inner.Coef {
		inner.Coef[d] = float64(d) * 0.1
	}
	inner.Intercept = -0.02
	return Model{inner: inner}
}

func TestModelRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveModel(&buf, sampleModel()); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	wc, wi := sampleModel().Coefficients()
	gc, gi := got.Coefficients()
	if wc != gc || wi != gi {
		t.Errorf("round trip changed the model: %v/%g vs %v/%g", gc, gi, wc, wi)
	}
}

func TestProfilesRoundTrip(t *testing.T) {
	chars := []Characterization{
		{App: "a", SoloIPC: 1.5},
		{App: "b", SoloIPC: 0.4},
	}
	chars[0].Sen[DimFPAdd] = 0.4
	chars[1].Con[DimL3] = 0.6
	var buf bytes.Buffer
	if err := SaveProfiles(&buf, chars); err != nil {
		t.Fatal(err)
	}
	got, err := LoadProfiles(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Sen != chars[0].Sen || got[1].Con != chars[1].Con {
		t.Errorf("round trip changed the profiles: %+v", got)
	}
}

func TestLoadRejectsWrongDimensions(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveModel(&buf, sampleModel()); err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(buf.String(), "FP_MUL(P0)", "SOMETHING_ELSE", 1)
	if _, err := LoadModel(strings.NewReader(tampered)); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("dimension rename: got %v, want ErrDimensionMismatch", err)
	}
	tampered = strings.Replace(buf.String(), `"version": 1`, `"version": 9`, 1)
	if _, err := LoadModel(strings.NewReader(tampered)); !errors.Is(err, ErrVersionSkew) {
		t.Errorf("unknown version: got %v, want ErrVersionSkew", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadModel(strings.NewReader("not json")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("garbage model: got %v, want ErrCorrupt", err)
	}
	if _, err := LoadProfiles(strings.NewReader("{}")); !errors.Is(err, ErrVersionSkew) {
		t.Errorf("empty profile file (version 0): got %v, want ErrVersionSkew", err)
	}
}

// The serving daemon maps each load-failure class to HTTP 422 with a
// distinguishing error code, so every class must be errors.Is-matchable
// on both the profile and the model path. These are exactly the failure
// paths a POST /v1/profiles upload exercises.
func TestLoadFailureTyping(t *testing.T) {
	var profBuf bytes.Buffer
	if err := SaveProfiles(&profBuf, []Characterization{{App: "a", SoloIPC: 1}}); err != nil {
		t.Fatal(err)
	}
	prof := profBuf.String()
	var modBuf bytes.Buffer
	if err := SaveModel(&modBuf, sampleModel()); err != nil {
		t.Fatal(err)
	}
	mod := modBuf.String()
	dir := t.TempDir()
	if err := SaveSurrogate(dir+"/set.json", &Surrogate{Models: map[string]*SurrogateModel{"a": {App: "a"}}}); err != nil {
		t.Fatal(err)
	}
	surBytes, err := os.ReadFile(dir + "/set.json")
	if err != nil {
		t.Fatal(err)
	}
	sur := string(surBytes)
	loadSurrogateErr := func(s string) error {
		path := dir + "/tampered.json"
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadSurrogate(path)
		return err
	}

	cases := []struct {
		name  string
		input string
		load  func(string) error
		want  error
	}{
		{"profiles/truncated", prof[:len(prof)/2], loadProfilesErr, ErrCorrupt},
		{"profiles/not-json", "]", loadProfilesErr, ErrCorrupt},
		{"profiles/version-skew", strings.Replace(prof, `"version": 1`, `"version": 2`, 1), loadProfilesErr, ErrVersionSkew},
		{"profiles/dimension-dropped", strings.Replace(prof, `    "FP_MUL(P0)",`+"\n", "", 1), loadProfilesErr, ErrDimensionMismatch},
		{"profiles/dimension-reordered", swapFirstDims(t, prof), loadProfilesErr, ErrDimensionMismatch},
		{"model/truncated", mod[:len(mod)/3], loadModelErr, ErrCorrupt},
		{"model/version-skew", strings.Replace(mod, `"version": 1`, `"version": 7`, 1), loadModelErr, ErrVersionSkew},
		{"model/dimension-dropped", strings.Replace(mod, `    "FP_MUL(P0)",`+"\n", "", 1), loadModelErr, ErrDimensionMismatch},
		{"model/coefficient-count", strings.Replace(mod, "\n    0.1,", "", 1), loadModelErr, ErrDimensionMismatch},
		{"surrogate/truncated", sur[:len(sur)/2], loadSurrogateErr, ErrCorrupt},
		{"surrogate/null-model", strings.Replace(sur, `"a": {`, `"a": null, "b": {`, 1), loadSurrogateErr, ErrCorrupt},
		{"surrogate/version-skew", strings.Replace(sur, `"version": 1`, `"version": 2`, 1), loadSurrogateErr, ErrVersionSkew},
		{"surrogate/dimension-count", strings.Replace(sur, `"dimensions": 8`, `"dimensions": 7`, 1), loadSurrogateErr, ErrDimensionMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.input == prof || tc.input == mod || tc.input == sur {
				t.Fatal("tamper pattern did not match the encoded file")
			}
			err := tc.load(tc.input)
			if !errors.Is(err, tc.want) {
				t.Errorf("got %v, want %v", err, tc.want)
			}
			// LoadSurrogate keeps the surrogate package's sentinel in the
			// chain beside smite's.
			if inner := surrogateSentinel[tc.want]; strings.HasPrefix(tc.name, "surrogate/") && !errors.Is(err, inner) {
				t.Errorf("got %v, want %v in the chain too", err, inner)
			}
		})
	}
}

var surrogateSentinel = map[error]error{
	ErrCorrupt:           surrogate.ErrCorrupt,
	ErrVersionSkew:       surrogate.ErrVersionSkew,
	ErrDimensionMismatch: surrogate.ErrDimensionMismatch,
}

func loadProfilesErr(s string) error { _, err := LoadProfiles(strings.NewReader(s)); return err }
func loadModelErr(s string) error    { _, err := LoadModel(strings.NewReader(s)); return err }

// swapFirstDims exchanges the first two dimension names in an encoded
// file, preserving count but breaking order.
func swapFirstDims(t *testing.T, s string) string {
	t.Helper()
	a, b := dimensionNames()[0], dimensionNames()[1]
	out := strings.Replace(s, `"`+a+`"`, `"@TMP@"`, 1)
	out = strings.Replace(out, `"`+b+`"`, `"`+a+`"`, 1)
	out = strings.Replace(out, `"@TMP@"`, `"`+b+`"`, 1)
	if out == s {
		t.Fatal("dimension swap did not change the file")
	}
	return out
}

// Corrupted files must come back as structured errors, never as panics or
// silently wrong data — the scheduler acts on these profiles.

func TestLoadRejectsTruncatedFiles(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveModel(&buf, sampleModel()); err != nil {
		t.Fatal(err)
	}
	full := buf.String()
	for _, frac := range []int{0, 1, 2, 3} { // empty, quarter, half, three-quarter
		cut := full[:len(full)*frac/4]
		if _, err := LoadModel(strings.NewReader(cut)); err == nil {
			t.Errorf("model truncated to %d/%d bytes accepted", len(cut), len(full))
		}
	}

	buf.Reset()
	chars := []Characterization{{App: "a", SoloIPC: 1.0}}
	if err := SaveProfiles(&buf, chars); err != nil {
		t.Fatal(err)
	}
	cut := buf.String()[:buf.Len()/2]
	if _, err := LoadProfiles(strings.NewReader(cut)); err == nil {
		t.Error("half-truncated profile file accepted")
	}
}

func TestLoadRejectsWrongCoefficientCount(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveModel(&buf, sampleModel()); err != nil {
		t.Fatal(err)
	}
	// Drop one coefficient but keep the file otherwise valid.
	tampered := strings.Replace(buf.String(), "\n    0.1,", "", 1)
	if tampered == buf.String() {
		t.Fatal("tamper pattern did not match the encoded file")
	}
	_, err := LoadModel(strings.NewReader(tampered))
	if err == nil {
		t.Fatal("model with missing coefficient accepted")
	}
	if !strings.Contains(err.Error(), "coefficients") {
		t.Errorf("error %q does not name the coefficient mismatch", err)
	}
}

// Unknown fields are tolerated by design: a newer build may add fields, and
// an older reader should still load what it understands (the version field
// guards incompatible changes).
func TestLoadToleratesUnknownFields(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveModel(&buf, sampleModel()); err != nil {
		t.Fatal(err)
	}
	extended := strings.Replace(buf.String(), `"version": 1,`, `"version": 1, "future_field": {"nested": [1,2,3]},`, 1)
	got, err := LoadModel(strings.NewReader(extended))
	if err != nil {
		t.Fatalf("unknown field rejected: %v", err)
	}
	wc, wi := sampleModel().Coefficients()
	gc, gi := got.Coefficients()
	if wc != gc || wi != gi {
		t.Error("unknown field corrupted the loaded model")
	}
}
