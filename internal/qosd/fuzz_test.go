package qosd

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/slo"
)

// knownCodes is every Code* an error envelope may carry.
var knownCodes = map[string]bool{
	CodeBadJSON: true, CodeInvalidArgument: true, CodeUnknownProfile: true,
	CodeNoModel: true, CodeUnprocessable: true, CodeOverloaded: true,
	CodeNotFound: true, CodeMethodNotAllowed: true, CodeDeadlineExceeded: true,
	CodeSimulationDisabled: true, CodeSLODisabled: true, CodeUnknownClass: true,
}

// jsonRoutes are the POST routes whose bodies go through decodeJSON.
var jsonRoutes = []string{"/v1/predict", "/v1/colocate", "/v1/admit", "/v1/batch", "/v1/characterize"}

// FuzzServeJSON feeds each body to every JSON route through the full
// middleware stack, in process (no socket). Whatever the bytes, the
// daemon answers with a status from its documented set, every error is a
// typed envelope, and a served prediction is a finite number. Seeds live
// in testdata/fuzz/FuzzServeJSON.
func FuzzServeJSON(f *testing.F) {
	reg := NewRegistry()
	reg.AddProfiles(testChars())
	reg.SetModel(testModel())
	h := NewServer(reg, Config{SLO: &SLOConfig{Classes: slo.DefaultSLOClasses()}}).Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, route := range jsonRoutes {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusOK:
			case http.StatusBadRequest, http.StatusNotFound, http.StatusNotImplemented, http.StatusServiceUnavailable:
				var env errorEnvelope
				if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil || !knownCodes[env.Error.Code] {
					t.Fatalf("%s %q: status %d with body %s, want a typed error envelope", route, body, rec.Code, rec.Body)
				}
				continue
			default:
				t.Fatalf("%s %q: status %d (%s)", route, body, rec.Code, rec.Body)
			}
			if route != "/v1/predict" {
				continue
			}
			var resp PredictResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s %q: 200 with undecodable body %s: %v", route, body, rec.Body, err)
			}
			if math.IsNaN(resp.Degradation) || math.IsInf(resp.Degradation, 0) {
				t.Fatalf("%s %q: non-finite degradation %v", route, body, resp.Degradation)
			}
		}
	})
}
