// Package api defines the wire types of the anonymization service's
// HTTP API (v1), shared by internal/server and the Go client SDK
// (repro/pkg/client):
//
//	POST /v1/releases            CreateReleaseRequest → Release (202)
//	GET  /v1/releases            ListReleasesResponse
//	GET  /v1/releases/{id}       Release
//	POST /v1/releases/{id}/query Query → QueryResponse
//	POST /v1/query:batch         BatchQueryRequest → BatchQueryResponse
//
// Every error response, on every route, is one Envelope:
//
//	{"error": {"code": "...", "message": "...", "details": {...}}}
//
// with a stable machine-readable Code<...> constant and a human-readable
// message. 503 responses carry a Retry-After header; the client SDK
// honors it with bounded retry.
//
// The query path's messages also have a reflection-free codec (wire.go):
// AppendQuery, AppendBatchQueryRequest, AppendQueryResponse and
// AppendBatchQueryResponse write exactly the bytes encoding/json writes
// for them, and ParseQuery, ParseBatchQueryRequest, ParseQueryResponse
// and ParseBatchQueryResponse decode the canonical subset of JSON,
// reporting false for anything else so the caller can hand the same
// bytes to encoding/json. The node, the cluster gateway and the client
// SDK use it on every query hop; JSON stays the only wire format.
//
// The package has no dependencies beyond the standard library, so
// non-Go-SDK consumers can vendor it as the wire contract.
package api

import (
	"encoding/json"
	"time"
)

// Error is the structured error payload every route uses.
type Error struct {
	// Code is a stable, machine-readable error class (Code... constants).
	Code string `json:"code"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// Details carries optional error-specific context (e.g. the release
	// status behind a not_ready, the limit behind a too_large). Servers
	// also mirror the request ID here under "request_id" — the same value
	// the HeaderRequestID response header carries — so an error report is
	// grep-able against server logs.
	Details map[string]any `json:"details,omitempty"`
}

// Envelope wraps Error on the wire.
type Envelope struct {
	Error Error `json:"error"`
}

// HeaderRequestID is the response header every route echoes with the
// request's ID: propagated from the caller's traceparent or X-Request-Id
// header when safe, minted at the edge otherwise. One grep on this value
// across gateway and node logs yields the request's full trace.
const HeaderRequestID = "X-Request-Id"

// Error codes. The HTTP status narrows the transport semantics; the code
// names the cause.
const (
	// CodeInvalidRequest is a malformed body or missing required field (400).
	CodeInvalidRequest = "invalid_request"
	// CodeInvalidQuery is a query failing validation against the release
	// schema (400).
	CodeInvalidQuery = "invalid_query"
	// CodeUnknownMethod names an anonymization method with no registry
	// entry (400).
	CodeUnknownMethod = "unknown_method"
	// CodeInvalidParams is a params object the method rejects (400).
	CodeInvalidParams = "invalid_params"
	// CodeNotFound is an unknown release ID (404).
	CodeNotFound = "not_found"
	// CodeNotReady is a release still pending or building (503 +
	// Retry-After; poll and retry).
	CodeNotReady = "not_ready"
	// CodeBuildFailed is a release whose build failed — a permanent
	// condition for that ID (409).
	CodeBuildFailed = "build_failed"
	// CodeConflict is an operation racing one already in flight, e.g. an
	// :evaluate of a release whose evaluation is still running (409;
	// poll the existing job instead).
	CodeConflict = "conflict"
	// CodeEvalFailed is an evaluation that ended failed. The server
	// reports failed evaluations as 200s with status "failed"; SDK
	// helpers that wait for a terminal state synthesize this code.
	CodeEvalFailed = "eval_failed"
	// CodeTooLarge is an oversized body or batch (413).
	CodeTooLarge = "too_large"
	// CodeUnavailable is a saturated build queue, a server shutting
	// down, or a cluster gateway with no live replica for the request
	// (503 + Retry-After).
	CodeUnavailable = "unavailable"
	// CodeForbidden is a cluster-internal endpoint reached without the
	// cluster token, or on a node where they are disabled (403).
	CodeForbidden = "forbidden"
	// CodeInternal is an unexpected server-side failure (500).
	CodeInternal = "internal"
)

// Release lifecycle states, mirroring the store's.
const (
	StatusPending  = "pending"
	StatusBuilding = "building"
	StatusReady    = "ready"
	StatusFailed   = "failed"
)

// ReleaseSpec is the anonymization job description: the method name plus
// its raw params object (typed per method; see repro/anon for the
// canonical param schemas), and the store-level projection/index knobs.
type ReleaseSpec struct {
	Method    string    `json:"method"`
	Params    RawParams `json:"params,omitempty"`
	QI        int       `json:"qi,omitempty"`
	GridCells int       `json:"grid_cells,omitempty"`
}

// RawParams is an uninterpreted JSON object of method params.
type RawParams = json.RawMessage

// CreateReleaseRequest is the POST /v1/releases body: a spec plus the raw
// CSV table. The qi field both projects the table and relaxes parsing:
// only the first qi QI columns need be present in the CSV.
type CreateReleaseRequest struct {
	Method    string    `json:"method"`
	Params    RawParams `json:"params,omitempty"`
	QI        int       `json:"qi,omitempty"`
	GridCells int       `json:"grid_cells,omitempty"`
	CSV       string    `json:"csv"`
}

// Release is a release's externally visible state.
type Release struct {
	ID      string      `json:"id"`
	Version uint64      `json:"version"`
	Spec    ReleaseSpec `json:"spec"`
	Status  string      `json:"status"`
	// Error carries the build failure message when Status is failed.
	Error string `json:"error,omitempty"`
	// Rows is the input table size; NumECs the published group count.
	Rows   int `json:"rows"`
	NumECs int `json:"num_ecs,omitempty"`
	// AIL is the average information loss of a generalized release.
	AIL       float64   `json:"ail,omitempty"`
	CreatedAt time.Time `json:"created_at"`
	ReadyAt   time.Time `json:"ready_at,omitzero"`
	// BuildMillis is the wall-clock build duration.
	BuildMillis int64 `json:"build_ms,omitempty"`
	// Persisted reports that the release's snapshot is durably on disk in
	// the server's data directory and will survive a restart with
	// identical query answers. Always false when the server runs without
	// -data-dir.
	Persisted bool `json:"persisted,omitempty"`
}

// ListReleasesResponse is the GET /v1/releases body.
type ListReleasesResponse struct {
	Releases []Release `json:"releases"`
}

// Query is one aggregation query: range predicates over QI attribute
// indices plus an SA value-index range, aggregated by agg (COUNT(*) when
// empty) and optionally grouped over one or two further QI dimensions.
type Query struct {
	Dims []int     `json:"dims,omitempty"`
	Lo   []float64 `json:"lo,omitempty"`
	Hi   []float64 `json:"hi,omitempty"`
	SALo int       `json:"sa_lo"`
	SAHi int       `json:"sa_hi"`
	// Agg selects the aggregate: "count" (default when empty), "sum",
	// "avg", "min", or "max", over SA value indices.
	Agg string `json:"agg,omitempty"`
	// GroupBy lists QI dimensions to group over; they must be disjoint
	// from Dims. The response carries one GroupResult per cell.
	GroupBy []int `json:"group_by,omitempty"`
	// GroupBuckets optionally gives the per-GroupBy-dimension cell
	// count; zero entries select the server default (one cell per
	// hierarchy leaf on categorical dimensions).
	GroupBuckets []int `json:"group_buckets,omitempty"`
}

// GroupResult is one cell of a grouped query's answer: the cell's key
// range per GroupBy dimension — half-open [lo, hi) on numeric
// dimensions (the last cell closes at the domain maximum), inclusive
// leaf-rank ranges on categorical ones — plus its aggregate estimate.
type GroupResult struct {
	Lo       []float64 `json:"lo"`
	Hi       []float64 `json:"hi"`
	Estimate float64   `json:"estimate"`
}

// QueryResult is the outcome of one query of a batch. Estimates may be
// negative for perturbed releases (the reconstruction estimator is
// unbiased, not non-negative); clients clamp if they need counts.
type QueryResult struct {
	// Estimate answers an ungrouped query; 0 for grouped queries, whose
	// answers ride in Groups.
	Estimate float64 `json:"estimate"`
	// Cached reports a result-cache hit (every cell, for a grouped
	// query).
	Cached bool `json:"cached,omitempty"`
	// Groups holds the per-cell results of a GROUP BY query, dim-major
	// in GroupBy order; absent for ungrouped queries.
	Groups []GroupResult `json:"groups,omitempty"`
}

// QueryResponse is the POST /v1/releases/{id}/query body.
type QueryResponse struct {
	ReleaseID string  `json:"release_id"`
	Estimate  float64 `json:"estimate"`
	Cached    bool    `json:"cached,omitempty"`
	// Groups holds the per-cell results when the query grouped.
	Groups []GroupResult `json:"groups,omitempty"`
	// RequestID mirrors the HeaderRequestID response header into the body,
	// so tools that persist responses (loadgen reports) can later fetch
	// the request's trace from /v1/debug/traces/{id}.
	RequestID string `json:"request_id,omitempty"`
}

// BatchQueryRequest is the POST /v1/query:batch body: one release ID and
// up to the server's batch cap of queries, answered in order.
type BatchQueryRequest struct {
	ReleaseID string  `json:"release_id"`
	Queries   []Query `json:"queries"`
}

// BatchQueryResponse carries the per-query results in request order plus
// the batch's cache tallies.
type BatchQueryResponse struct {
	ReleaseID string        `json:"release_id"`
	Results   []QueryResult `json:"results"`
	CacheHits int           `json:"cache_hits"`
	// RequestID mirrors the HeaderRequestID response header into the body
	// (see QueryResponse.RequestID).
	RequestID string `json:"request_id,omitempty"`
}

// Evaluation lifecycle states, mirroring the eval service's. An
// evaluation is terminal at EvalStatusDone or EvalStatusFailed; clients
// poll through pending/running like they poll a building release.
const (
	EvalStatusPending = "pending"
	EvalStatusRunning = "running"
	EvalStatusDone    = "done"
	EvalStatusFailed  = "failed"
)

// EvaluateRequest is the POST /v1/releases/{id}:evaluate body. CSV is the
// release's original microdata, re-uploaded: the serving store keeps only
// the published artifact, never the raw table, so the evaluation job needs
// the ground truth handed back to it (and verifies the upload actually
// reproduces the release before trusting it). The remaining fields tune
// the attack/utility workload; zero values select server defaults.
type EvaluateRequest struct {
	CSV string `json:"csv"`
	// Queries is the utility workload size per aggregate (default 200).
	Queries int `json:"queries,omitempty"`
	// Lambda is the number of QI predicates per workload query (§6.2);
	// default 2, clamped to the release's QI dimensionality.
	Lambda int `json:"lambda,omitempty"`
	// Theta is the expected workload query selectivity (default 0.1).
	Theta float64 `json:"theta,omitempty"`
	// Seed drives every random choice of the job (corruption sampling,
	// workload generation); identical seeds yield byte-identical verdicts.
	// Default 1.
	Seed int64 `json:"seed,omitempty"`
	// CorruptionFraction is the fraction of tuples the §7 corruption
	// adversary already knows (default 0.1).
	CorruptionFraction float64 `json:"corruption_fraction,omitempty"`
	// DeFinettiIters is the de Finetti attack's iteration count (default 3).
	DeFinettiIters int `json:"definetti_iters,omitempty"`
}

// EvalPrivacy is the achieved-privacy block of a verdict: what the
// release measurably provides, computed from the recovered partition
// (present for generalized and ℓ-diverse anatomy releases).
type EvalPrivacy struct {
	NumECs    int     `json:"num_ecs"`
	MinECSize int     `json:"min_ec_size"`
	AIL       float64 `json:"ail"`
	// AchievedBeta is the maximum positive relative frequency gain of any
	// SA value in any group ("Real β").
	AchievedBeta float64 `json:"achieved_beta"`
	// MaxT and AvgT are the max/average EMD between group and overall SA
	// distributions (t-closeness actually achieved).
	MaxT float64 `json:"max_t"`
	AvgT float64 `json:"avg_t"`
	// MinL and AvgL are the min/average distinct SA values per group.
	MinL int     `json:"min_l"`
	AvgL float64 `json:"avg_l"`
}

// EvalAttacks is the attack-suite block of a verdict. All accuracies and
// posteriors are fractions in [0, 1]; compare them against Baseline, the
// no-release prior (the modal SA share an adversary gets for free).
type EvalAttacks struct {
	Baseline float64 `json:"baseline"`
	// DeFinetti is the record-linkage accuracy of the de Finetti attack.
	DeFinetti float64 `json:"definetti"`
	// NaiveBayes is the Eq. 15–17 classifier's accuracy on the original
	// table.
	NaiveBayes float64 `json:"naive_bayes"`
	// CorruptionAvg and CorruptionMax are the §7 corruption adversary's
	// average and worst-case posterior in an uncorrupted tuple's true SA
	// value after learning CorruptionFraction of the table.
	CorruptionFraction float64 `json:"corruption_fraction"`
	CorruptionAvg      float64 `json:"corruption_avg"`
	CorruptionMax      float64 `json:"corruption_max"`
}

// EvalUtility is the utility block of a verdict: median relative error of
// COUNT and SUM estimates served from the release against ground truth
// computed on the uploaded microdata, over a seeded random workload.
// Queries with zero ground truth are dropped (as in §6.2); the *Queries
// fields count the queries actually evaluated.
type EvalUtility struct {
	Queries           int     `json:"queries"`
	CountQueries      int     `json:"count_queries"`
	CountMedianRelErr float64 `json:"count_median_rel_err"`
	SumQueries        int     `json:"sum_queries"`
	SumMedianRelErr   float64 `json:"sum_median_rel_err"`
}

// EvalVerdict is an evaluation job's result. It deliberately carries no
// release ID, timestamps, or durations: identical jobs on identical
// release content must produce byte-identical verdicts (the repeatability
// contract the sidecar checksum and CI curve gate rest on). Job identity
// and timing live on the surrounding Evaluation.
type EvalVerdict struct {
	Method string `json:"method"`
	Kind   string `json:"kind"`
	Rows   int    `json:"rows"`
	Seed   int64  `json:"seed"`

	// Privacy and Attacks are absent for kinds without per-group SA
	// information (anatomy baseline, perturbation); AttacksSkipped then
	// records why.
	Privacy        *EvalPrivacy `json:"privacy,omitempty"`
	Attacks        *EvalAttacks `json:"attacks,omitempty"`
	AttacksSkipped string       `json:"attacks_skipped,omitempty"`

	Utility EvalUtility `json:"utility"`
}

// Evaluation is a release's evaluation state: the GET
// /v1/releases/{id}/evaluation body, and the 202 body of a submitted
// :evaluate job.
type Evaluation struct {
	ReleaseID string `json:"release_id"`
	Status    string `json:"status"`
	// Error carries the failure message when Status is failed.
	Error       string    `json:"error,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
	// EvalMillis is the wall-clock duration of the finished job.
	EvalMillis int64 `json:"eval_ms,omitempty"`
	// Persisted reports that the verdict sidecar is durably on disk next
	// to the release's snapshot and will survive a restart.
	Persisted bool `json:"persisted,omitempty"`
	// Verdict is present once Status is done.
	Verdict *EvalVerdict `json:"verdict,omitempty"`
}

// ClusterNode is one member's state in a cluster gateway's view.
type ClusterNode struct {
	ID  string `json:"id"`
	URL string `json:"url"`
	// Alive reports the gateway's circuit breaker for the node: false
	// while the node is considered down and excluded from routing.
	Alive bool `json:"alive"`
	// Inflight is the number of gateway requests currently outstanding
	// against the node.
	Inflight int64 `json:"inflight"`
	// Failures counts consecutive failed health probes.
	Failures int64 `json:"failures,omitempty"`
	// ProbeMillis is the last health-probe round-trip time in
	// milliseconds; 0 until the first probe completes.
	ProbeMillis float64 `json:"probe_millis,omitempty"`
	// LastError is the most recent probe failure, "" while the node is
	// healthy.
	LastError string `json:"last_error,omitempty"`
}

// ClusterStatusResponse is the GET /v1/cluster/status body a gateway
// serves: the configured replication factor and every member's state.
type ClusterStatusResponse struct {
	Replication int           `json:"replication"`
	Nodes       []ClusterNode `json:"nodes"`
}

// TraceSpan is one stage timing of a retained trace, offset-ordered
// within the assembled document.
type TraceSpan struct {
	// Origin is the process that recorded the span: a node ID, or
	// "gateway".
	Origin string `json:"origin"`
	// Stage names the hop, dot-namespaced by layer (e.g. "engine.estimate").
	Stage string `json:"stage"`
	// Node is the cluster member a cross-process hop ran against
	// (e.g. on "gateway.subbatch" spans); "" for in-process stages.
	Node string `json:"node,omitempty"`
	// OffsetMicros is the span start relative to the trace start.
	OffsetMicros int64 `json:"offset_us"`
	// Micros is the span's duration.
	Micros int64 `json:"us"`
}

// TraceResponse is the GET /v1/debug/traces/{id} body: one retained
// request trace. A gateway assembles it from its own spans plus the
// spans fetched from every node that touched the request; a node serves
// its local view. 404 (CodeNotFound) means no process retained the
// trace — it was sampled out or already evicted from the bounded ring.
type TraceResponse struct {
	RequestID string `json:"request_id"`
	// Route is the instrumented route name at the process that answered
	// (the gateway's, on assembled traces).
	Route     string `json:"route,omitempty"`
	ReleaseID string `json:"release_id,omitempty"`
	// Status is the HTTP status the client saw; ErrorCode the api error
	// code on failures.
	Status    int    `json:"status,omitempty"`
	ErrorCode string `json:"error_code,omitempty"`
	// Retained is why the trace was kept: "error", "slow", or "sampled".
	Retained string `json:"retained,omitempty"`
	// StartedAt anchors the span offsets in wall-clock time.
	StartedAt      time.Time `json:"started_at"`
	DurationMicros int64     `json:"duration_us"`
	// Origins lists the processes that contributed spans, sorted, with
	// "gateway" first when present.
	Origins []string `json:"origins,omitempty"`
	// DroppedSpans counts spans beyond the per-trace bound that were not
	// retained, summed over origins.
	DroppedSpans int `json:"dropped_spans,omitempty"`
	// Spans is the assembled span list, ordered by offset.
	Spans []TraceSpan `json:"spans"`
}

// LoadSample is one self-observed load sample of a process, the unit of
// the cluster overview's rolling per-node series.
type LoadSample struct {
	UnixMillis int64 `json:"unix_ms"`
	// QPS is work completed per second since the previous sample: engine
	// queries on nodes, HTTP requests on the gateway.
	QPS float64 `json:"qps"`
	// P50/P95/P99Millis are request-latency quantiles over the process
	// lifetime, in milliseconds.
	P50Millis float64 `json:"p50_ms"`
	P95Millis float64 `json:"p95_ms"`
	P99Millis float64 `json:"p99_ms"`
	// Inflight is the number of requests being served at sample time.
	Inflight int64 `json:"inflight"`
	// QueueDepth is the engine jobs waiting for a worker (0 on the
	// gateway, which has no engine).
	QueueDepth int    `json:"queue_depth"`
	HeapBytes  uint64 `json:"heap_bytes"`
	Goroutines int    `json:"goroutines"`
}

// LoadSeries is one process's rolling load history, oldest sample first.
type LoadSeries struct {
	// Origin is the process: a node ID, or "gateway".
	Origin  string       `json:"origin"`
	Samples []LoadSample `json:"samples"`
}

// OverviewNode is one member's entry in the cluster overview.
type OverviewNode struct {
	ID  string `json:"id"`
	URL string `json:"url"`
	// Alive mirrors the gateway's circuit breaker at assembly time.
	Alive bool `json:"alive"`
	// Error is why the node's series could not be fetched ("" on
	// success).
	Error string `json:"error,omitempty"`
	// Load is the node's series; absent when the fetch failed.
	Load *LoadSeries `json:"load,omitempty"`
}

// ClusterOverviewResponse is the GET /v1/cluster/overview body: the
// gateway's own load series plus every member's, the ranking feed for
// load-aware placement and capacity decisions.
type ClusterOverviewResponse struct {
	Replication int            `json:"replication"`
	Gateway     LoadSeries     `json:"gateway"`
	Nodes       []OverviewNode `json:"nodes"`
}
