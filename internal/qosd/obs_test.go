package qosd

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fakeClock is a stepping clock: every Now advances by one step, so
// request durations and uptime become deterministic functions of how many
// times the server consulted the clock.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.t
	c.t = c.t.Add(c.step)
	return now
}

// newObsServer is newTestServer without the typed client: the observability
// tests speak raw HTTP because they exercise query parameters (?trace=1,
// ?format=openmetrics) the client does not model.
func newObsServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	reg := NewRegistry()
	reg.AddProfiles(testChars())
	reg.SetModel(testModel())
	s := NewServer(reg, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestOpenMetricsGolden drives a fixed request sequence under a stepping
// clock and pins the full OpenMetrics exposition byte for byte. Regenerate
// with go test ./internal/qosd -run OpenMetricsGolden -update after
// intentional changes.
func TestOpenMetricsGolden(t *testing.T) {
	s, ts := newObsServer(t, Config{MaxInFlight: 8})
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0), step: 250 * time.Microsecond}
	s.metrics.start = clock.t
	s.metrics.now = clock.Now

	// Two identical predictions (miss then memo hit), one unknown profile
	// (4xx): populates the request vec, the latency histogram and the
	// prediction-cache gauges.
	ok := `{"victim":"web-search","aggressor":"429.mcf"}`
	if code, _ := postJSON(t, ts.URL+"/v1/predict", ok); code != http.StatusOK {
		t.Fatalf("predict = %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/predict", ok); code != http.StatusOK {
		t.Fatalf("predict = %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/predict", `{"victim":"web-search","aggressor":"nope"}`); code != http.StatusNotFound {
		t.Fatalf("unknown predict = %d", code)
	}

	resp, body := get(t, ts.URL+"/metrics?format=openmetrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Errorf("Content-Type = %q, want openmetrics-text", ct)
	}

	golden := filepath.Join("testdata", "openmetrics.golden")
	if *update {
		if err := os.WriteFile(golden, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(want) {
		t.Errorf("OpenMetrics exposition drifted from golden:\n--- got ---\n%s--- want ---\n%s", body, want)
	}
}

// The Accept header is the standard negotiation path for scrapers.
func TestOpenMetricsViaAccept(t *testing.T) {
	_, ts := newObsServer(t, Config{})
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if !strings.HasPrefix(string(b), "# TYPE ") {
		t.Errorf("Accept negotiation did not yield OpenMetrics text:\n%s", b)
	}
	if !strings.HasSuffix(string(b), "# EOF\n") {
		t.Errorf("exposition missing # EOF terminator")
	}
}

// A ?trace=1 request on a trace-enabled server is recorded end to end and
// its Chrome render served by /debug/trace/last, replacing prior traces.
func TestTraceEndpointCapturesPredict(t *testing.T) {
	_, ts := newObsServer(t, Config{EnableTrace: true})

	resp, _ := get(t, ts.URL+"/debug/trace/last")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace/last before any trace = %d, want 404", resp.StatusCode)
	}

	// An untraced request must leave nothing behind.
	body := `{"victim":"web-search","aggressor":"429.mcf"}`
	if code, _ := postJSON(t, ts.URL+"/v1/predict", body); code != http.StatusOK {
		t.Fatalf("predict = %d", code)
	}
	if resp, _ := get(t, ts.URL+"/debug/trace/last"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace/last after untraced request = %d, want 404", resp.StatusCode)
	}

	// A fresh pair, so the traced request genuinely computes (the earlier
	// untraced predict already memoized the first pair).
	traced := `{"victim":"web-search","aggressor":"444.namd"}`
	if code, _ := postJSON(t, ts.URL+"/v1/predict?trace=1", traced); code != http.StatusOK {
		t.Fatalf("traced predict = %d", code)
	}
	resp, b := get(t, ts.URL+"/debug/trace/last")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace/last = %d, want 200", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string            `json:"name"`
			Phase string            `json:"ph"`
			Args  map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace/last is not valid Chrome-trace JSON: %v\n%s", err, b)
	}
	names := map[string]bool{}
	memo := ""
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
		if ev.Name == "qosd.predict" {
			memo = ev.Args["memo"]
		}
	}
	for _, want := range []string{"POST /v1/predict", "qosd.predict"} {
		if !names[want] {
			t.Errorf("traced request missing %q span; have %v", want, names)
		}
	}
	if memo != "miss" {
		t.Errorf("first traced qosd.predict has memo=%q, want miss", memo)
	}

	// The second traced request replaces the first and is a memo hit.
	if code, _ := postJSON(t, ts.URL+"/v1/predict?trace=1", traced); code != http.StatusOK {
		t.Fatalf("traced predict = %d", code)
	}
	if _, b2 := get(t, ts.URL+"/debug/trace/last"); !strings.Contains(string(b2), `"memo":"hit"`) {
		t.Errorf("second trace missing memo=hit on qosd.predict:\n%s", b2)
	}
}

// Without EnableTrace, ?trace=1 is inert and the debug route is unmounted.
func TestTraceDisabledByDefault(t *testing.T) {
	_, ts := newObsServer(t, Config{})
	body := `{"victim":"web-search","aggressor":"429.mcf"}`
	if code, _ := postJSON(t, ts.URL+"/v1/predict?trace=1", body); code != http.StatusOK {
		t.Fatalf("predict with ignored trace param = %d", code)
	}
	resp, _ := get(t, ts.URL+"/debug/trace/last")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace/last on untraced server = %d, want 404", resp.StatusCode)
	}
}
