// Package qosd is the QoS-prediction serving layer: it packages the
// trained SMiTe model and a registry of application profiles behind an
// HTTP/JSON API, turning the repository's offline pipeline into the
// online placement oracle of the paper's deployment story (Section
// III-D) — a cluster scheduler characterizes each application once,
// keeps the profile, and consults the model at every placement decision.
//
// The package provides three pieces: a concurrent Registry of profiles
// and the model, a Server exposing the decision endpoints with
// production plumbing (bounded concurrency, per-request timeouts,
// structured logging, typed JSON errors, metrics), and a typed Client
// for the wire API. cmd/smited is the standalone daemon built on this
// package.
package qosd

import (
	"fmt"

	"repro/internal/isol"
	"repro/smite"
)

// API error codes. Every non-2xx response carries an envelope
// {"error": {"code": ..., "message": ...}} with one of these codes.
const (
	// CodeBadJSON: the request body is not valid JSON for the endpoint's
	// shape (HTTP 400).
	CodeBadJSON = "bad_json"
	// CodeInvalidArgument: a field value is out of range or inconsistent
	// (HTTP 400).
	CodeInvalidArgument = "invalid_argument"
	// CodeUnknownProfile: the named victim or aggressor has no registered
	// profile (HTTP 404).
	CodeUnknownProfile = "unknown_profile"
	// CodeNoModel: the registry has no trained model yet (HTTP 503).
	CodeNoModel = "no_model"
	// CodeUnprocessable: a profile upload failed smite's load validation —
	// corrupt JSON, version skew, or dimension-layout mismatch (HTTP 422).
	CodeUnprocessable = "unprocessable_profiles"
	// CodeOverloaded: the bounded-concurrency gate timed out before a
	// slot freed up (HTTP 429).
	CodeOverloaded = "overloaded"
	// CodeNotFound / CodeMethodNotAllowed: routing misses (HTTP 404/405).
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeDeadlineExceeded: the request's deadline fired (or the client
	// disconnected) while simulation or prediction work was in flight; the
	// work was cancelled, not left running (HTTP 504).
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeSimulationDisabled: the endpoint needs an in-process simulation
	// System and the daemon was started without one (HTTP 501).
	CodeSimulationDisabled = "simulation_disabled"
	// CodeSLODisabled: POST /v1/admit needs the SLO admission gate and
	// the daemon was started without one (run smited with -slo-config)
	// (HTTP 501).
	CodeSLODisabled = "slo_disabled"
	// CodeUnknownClass: the admission request names an SLO class the
	// daemon was not configured with (HTTP 404).
	CodeUnknownClass = "unknown_class"
)

// APIError is the typed error the server returns and the client decodes.
type APIError struct {
	// Status is the HTTP status (not serialized; the transport carries it).
	Status int `json:"-"`
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is human-readable detail.
	Message string `json:"message"`
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("qosd: %s (%d): %s", e.Code, e.Status, e.Message)
}

// errorEnvelope is the wire shape of an error response.
type errorEnvelope struct {
	Error *APIError `json:"error"`
}

// PredictRequest asks for the victim's predicted degradation when
// co-located with the aggressor (Equation 3). With Instances and Threads
// set, the prediction is the partial-occupancy form: the victim profile
// should then be a Sen(n) profile and only n of the victim's threads
// sibling contexts are assumed occupied (see Model.PredictPartial).
type PredictRequest struct {
	Victim    string `json:"victim"`
	Aggressor string `json:"aggressor"`
	Instances int    `json:"instances,omitempty"`
	Threads   int    `json:"threads,omitempty"`
}

// Prediction tiers, reported in PredictResponse.Tier.
const (
	// TierSurrogate: answered in microseconds from the fitted surrogate
	// curves; the response carries the propagated error bound.
	TierSurrogate = "surrogate"
	// TierEngine: answered from engine-measured registry profiles — the
	// authoritative path, and the fallback whenever a surrogate answer's
	// bound exceeds the daemon's threshold.
	TierEngine = "engine"
)

// PredictResponse is the predicted degradation (0.07 = 7% slower).
type PredictResponse struct {
	Victim      string  `json:"victim"`
	Aggressor   string  `json:"aggressor"`
	Degradation float64 `json:"degradation"`
	// Tier reports which tier produced the answer (TierSurrogate or
	// TierEngine).
	Tier string `json:"tier"`
	// ErrorBound is the surrogate certificate — an upper bound on the
	// answer's deviation from the engine-featured prediction. Present only
	// on TierSurrogate answers.
	ErrorBound float64 `json:"error_bound,omitempty"`
	// Generation is the registry generation the answer was computed
	// under; it increments on every profile upload or model swap, so a
	// client can tell whether a re-characterization landed between two
	// predictions for the same pair without re-fetching the profile list.
	Generation uint64 `json:"generation,omitempty"`
}

// QueueSpec carries the victim service's M/M/1 parameters for tail-latency
// prediction (Equation 6).
type QueueSpec struct {
	// Mu and Lambda are the per-thread service and arrival rates
	// (requests/second) at solo performance.
	Mu     float64 `json:"mu"`
	Lambda float64 `json:"lambda"`
	// Percentile is the SLO percentile in (0,1); 0 defaults to 0.90, the
	// paper's experiments.
	Percentile float64 `json:"percentile,omitempty"`
}

// ColocateRequest is the admission check a cluster scheduler runs before
// placing the aggressor next to the victim.
type ColocateRequest struct {
	Victim    string `json:"victim"`
	Aggressor string `json:"aggressor"`
	// QoSTarget is the retained-average-performance target in (0,1]
	// (0.95 = at most 5% degradation).
	QoSTarget float64 `json:"qos_target"`
	Instances int     `json:"instances,omitempty"`
	Threads   int     `json:"threads,omitempty"`
	// Queue, when present, additionally predicts the victim's percentile
	// latency under the degradation.
	Queue *QueueSpec `json:"queue,omitempty"`
}

// ColocateResponse reports the decision.
type ColocateResponse struct {
	Victim      string  `json:"victim"`
	Aggressor   string  `json:"aggressor"`
	Degradation float64 `json:"degradation"`
	// QoS is the retained average performance 1−deg, clamped to [0,1].
	QoS float64 `json:"qos"`
	// Safe reports Model.SafeColocation against the target.
	Safe bool `json:"safe"`
	// TailLatency is the Equation 6 percentile latency in seconds; omitted
	// (with Saturated set) when the degradation pushes the queue past
	// stability, where the latency is unbounded. It is never negative.
	TailLatency *float64 `json:"tail_latency,omitempty"`
	Saturated   bool     `json:"saturated,omitempty"`
}

// AdmitRequest is the predictive SLO admission check (POST /v1/admit):
// may this aggressor be co-located next to this victim without the
// victim's class tail-latency budget being blown? The daemon predicts
// the degradation through its tiered predictor, inflates it by the
// surrogate error bound when the answer came from the surrogate tier,
// evaluates Equation 6 at the class percentile, and admits only if the
// tail estimate fits the class budget minus the configured headroom.
type AdmitRequest struct {
	Victim    string `json:"victim"`
	Aggressor string `json:"aggressor"`
	// Class names the victim's SLO class (one of the daemon's configured
	// classes, e.g. "critical").
	Class string `json:"class"`
	// Instances and Threads select the partial-occupancy prediction, as
	// in PredictRequest.
	Instances int `json:"instances,omitempty"`
	Threads   int `json:"threads,omitempty"`
	// Queue carries the victim's M/M/1 rates. The percentile comes from
	// the SLO class; setting Queue.Percentile here is an error.
	Queue QueueSpec `json:"queue"`
}

// AdmitResponse reports the admission decision and the numbers behind
// it, so a scheduler (or a human) can audit why a co-location was
// rejected.
type AdmitResponse struct {
	Victim    string `json:"victim"`
	Aggressor string `json:"aggressor"`
	Class     string `json:"class"`
	// Admitted is the decision; Reason is one of the slo.AdmitReason*
	// constants ("ok", "budget_exceeded", "saturated").
	Admitted bool   `json:"admitted"`
	Reason   string `json:"reason"`
	// Degradation is the raw predicted degradation; Tier reports the
	// producing tier and ErrorBound its certificate (surrogate answers
	// only). EffectiveDegradation = Degradation + ErrorBound is what the
	// budget check actually used.
	Degradation          float64 `json:"degradation"`
	EffectiveDegradation float64 `json:"effective_degradation"`
	Tier                 string  `json:"tier"`
	ErrorBound           float64 `json:"error_bound,omitempty"`
	// Generation is the registry generation the prediction was computed
	// under, as in PredictResponse.Generation.
	Generation uint64 `json:"generation,omitempty"`
	// TailLatency is the Equation 6 percentile latency in seconds at the
	// effective degradation; omitted (with Saturated set) when the queue
	// is pushed past stability. It is never negative.
	TailLatency *float64 `json:"tail_latency,omitempty"`
	Saturated   bool     `json:"saturated,omitempty"`
	// Budget is the class budget in seconds; EffectiveBudget is
	// Budget·(1−Headroom), the value TailLatency was checked against;
	// Percentile is the class SLO percentile.
	Budget          float64 `json:"budget"`
	EffectiveBudget float64 `json:"effective_budget"`
	Percentile      float64 `json:"percentile"`
	Headroom        float64 `json:"headroom"`
	// IsolationRemedy, present only on rejections, is the server's
	// actuation hint: the weakest level of the stock hardware
	// QoS-enforcement ladder (internal/isol) whose modeled interference
	// scaling brings the tail estimate back under the effective budget.
	// Absent when even the strongest level cannot — the scheduler must
	// then place the aggressor elsewhere.
	IsolationRemedy *IsolationRemedy `json:"isolation_remedy,omitempty"`
}

// IsolationRemedy names one isolation operating point that would turn a
// rejected admission into an admitted one, with the re-evaluated numbers
// at that level so the scheduler can weigh the throughput tax against a
// migration.
type IsolationRemedy struct {
	// Level is the ladder index (≥1; level 0 is "off" and by definition
	// cannot remedy anything). Setting carries the operating point's
	// name, way partition, throttle, and modeled effect.
	Level   int          `json:"level"`
	Setting isol.Setting `json:"setting"`
	// EffectiveDegradation and TailLatency are the budget-checked
	// degradation and Eq. 6 tail at the suggested level.
	EffectiveDegradation float64 `json:"effective_degradation"`
	TailLatency          float64 `json:"tail_latency"`
}

// BatchCandidate is one aggressor option in a batch scoring request.
type BatchCandidate struct {
	Aggressor string `json:"aggressor"`
	// Instances, with the request-level Threads, selects the
	// partial-occupancy prediction for this candidate.
	Instances int `json:"instances,omitempty"`
}

// BatchRequest scores a whole candidate set against one victim — the
// per-machine query of a cluster scheduler deciding what (and how much)
// to co-locate on a server's idle contexts.
type BatchRequest struct {
	Victim  string `json:"victim"`
	Threads int    `json:"threads,omitempty"`
	// QoSTarget, when non-zero, also classifies every candidate as
	// safe/unsafe against the target.
	QoSTarget  float64          `json:"qos_target,omitempty"`
	Candidates []BatchCandidate `json:"candidates"`
}

// BatchResult is one candidate's score.
type BatchResult struct {
	Aggressor   string  `json:"aggressor"`
	Instances   int     `json:"instances,omitempty"`
	Degradation float64 `json:"degradation"`
	// Safe is present only when the request carried a QoSTarget.
	Safe *bool `json:"safe,omitempty"`
}

// BatchResponse mirrors the candidate order of the request.
type BatchResponse struct {
	Victim  string        `json:"victim"`
	Results []BatchResult `json:"results"`
}

// CharacterizeRequest asks the daemon to characterize a workload by
// simulating the full Ruler sweep in-process (POST /v1/characterize).
// The daemon must have been started with a simulation System; the sweep
// runs under the request's context, so the per-request timeout (or a
// client disconnect) cancels the in-flight simulation.
type CharacterizeRequest struct {
	// App names a workload from the built-in registry
	// (smite.WorkloadByName).
	App string `json:"app"`
	// Placement is "smt" (default) or "cmp".
	Placement string `json:"placement,omitempty"`
	// Register adds the resulting profile to the registry so subsequent
	// predictions can use it immediately.
	Register bool `json:"register,omitempty"`
}

// CharacterizeResponse carries the measured profile.
type CharacterizeResponse struct {
	App       string `json:"app"`
	Placement string `json:"placement"`
	// Profile is the decoupled Sen/Con characterization.
	Profile smite.Characterization `json:"profile"`
	// Registered reports whether the profile was added to the registry;
	// Total is the registry size afterwards (only set when Registered).
	Registered bool `json:"registered,omitempty"`
	Total      int  `json:"total,omitempty"`
}

// ProfilesResponse acknowledges a profile upload.
type ProfilesResponse struct {
	// Added counts profiles in the upload (re-uploads replace by name);
	// Total is the registry size afterwards.
	Added int `json:"added"`
	Total int `json:"total"`
}

// HealthResponse is the liveness/readiness report.
type HealthResponse struct {
	Status      string `json:"status"`
	Profiles    int    `json:"profiles"`
	ModelLoaded bool   `json:"model_loaded"`
}

// CacheMetrics snapshots the prediction memo.
type CacheMetrics struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// RouteMetrics counts one route's requests by status class.
type RouteMetrics struct {
	Total      uint64 `json:"total"`
	Status2xx  uint64 `json:"2xx"`
	Status4xx  uint64 `json:"4xx"`
	Status5xx  uint64 `json:"5xx"`
	StatusElse uint64 `json:"other"`
}

// LatencyMetrics summarises request latency over a sliding window of the
// most recent requests (milliseconds; percentiles via internal/stats).
type LatencyMetrics struct {
	Window int     `json:"window"`
	P50    float64 `json:"p50_ms"`
	P90    float64 `json:"p90_ms"`
	P99    float64 `json:"p99_ms"`
	Max    float64 `json:"max_ms"`
}

// SLOClassMetrics counts one class's lifetime admission decisions.
type SLOClassMetrics struct {
	Admitted uint64 `json:"admitted"`
	Rejected uint64 `json:"rejected"`
}

// SaturationReport is the analyzer's capacity-vs-demand view: the
// rejection rate over the most recent decisions and the scaling signal
// it implies under the configured thresholds.
type SaturationReport struct {
	// Window is the number of decisions the rate was computed over (at
	// most the configured window size).
	Window int `json:"window"`
	// RejectionRate is the windowed fraction of rejected admissions.
	RejectionRate float64 `json:"rejection_rate"`
	// Signal is scale_up, steady, or scale_down.
	Signal             string  `json:"signal"`
	ScaleUpThreshold   float64 `json:"scale_up_threshold"`
	ScaleDownThreshold float64 `json:"scale_down_threshold"`
}

// SLOMetricsReport is the admission gate's slice of GET /metrics,
// present only on daemons running with an SLO config.
type SLOMetricsReport struct {
	Classes    map[string]SLOClassMetrics `json:"classes"`
	Saturation SaturationReport           `json:"saturation"`
	Headroom   float64                    `json:"headroom"`
}

// MetricsResponse is the GET /metrics payload.
type MetricsResponse struct {
	UptimeSeconds   float64                 `json:"uptime_seconds"`
	Requests        map[string]RouteMetrics `json:"requests"`
	Latency         LatencyMetrics          `json:"latency"`
	Profiles        int                     `json:"profiles"`
	ModelLoaded     bool                    `json:"model_loaded"`
	PredictionCache CacheMetrics            `json:"prediction_cache"`
	MaxInFlight     int                     `json:"max_in_flight"`
	// SLO is the admission gate's report; omitted when the daemon runs
	// without one, keeping the payload byte-compatible for old readers.
	SLO *SLOMetricsReport `json:"slo,omitempty"`
}
