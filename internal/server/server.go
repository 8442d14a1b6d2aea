// Package server exposes the release store over a JSON HTTP API:
//
//	POST /v1/releases            upload a CSV + {method, params};
//	                             returns 202 with the new release's ID
//	GET  /v1/releases            list releases, newest first
//	GET  /v1/releases/{id}       release status and metadata
//	POST /v1/releases/{id}/query COUNT(*) estimate against a ready release
//	POST /v1/query:batch         N COUNT(*) estimates against one release
//	POST /v1/releases/{id}:evaluate  submit an async privacy/utility
//	                             evaluation (body re-uploads the original
//	                             microdata); returns 202 with the job state
//	GET  /v1/releases/{id}/evaluation  evaluation state, verdict when done
//	GET  /healthz                liveness probe (+ node identity)
//	GET  /metrics                Prometheus-format counters
//
// With Options.ClusterToken set, two authenticated cluster-internal
// routes are added for snapshot replication (see cluster.go and
// internal/cluster):
//
//	GET  /v1/internal/snapshot/{id}  fetch a ready release's snapshot
//	POST /v1/internal/snapshot       install a replicated snapshot
//
// Wire types live in repro/pkg/api; anonymization methods are resolved
// through the repro/anon registry, so the server serves any registered
// scheme without a per-method switch. Every error response, on every
// route, is the api.Envelope {"error": {code, message, details}}.
//
// Anonymization runs asynchronously on the store's worker pool; clients
// poll the release until its status is "ready" and then issue queries.
// Evaluations likewise run asynchronously on the eval service's pool
// (internal/eval), and finished verdicts persist as checksummed sidecars
// next to the release snapshots on durable stores.
// Both query routes go through the batch engine of internal/engine (a
// single query is a batch of one): estimates come from the per-release
// EC index, fanned out across a worker pool and memoized in a sharded
// LRU result cache keyed by the immutable release ID.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/anon"
	"repro/internal/census"
	"repro/internal/edge"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/microdata"
	"repro/internal/obs"
	"repro/internal/obs/tracestore"
	"repro/internal/query"
	"repro/internal/release"
	"repro/pkg/api"
)

// Options configures a Server.
type Options struct {
	// Schema parses uploaded CSVs; nil selects the CENSUS schema of
	// Table 3 (the format cmd/datagen emits).
	Schema *microdata.Schema
	// MaxBodyBytes caps request bodies; ≤ 0 selects 256 MiB.
	MaxBodyBytes int64
	// Engine configures the batch query engine (worker pool size,
	// result-cache capacity, per-request batch cap); the zero value
	// selects the engine defaults.
	Engine engine.Options
	// EvalWorkers is the evaluation service's concurrency; ≤ 0 selects
	// eval.DefaultWorkers.
	EvalWorkers int
	// ClusterToken enables the cluster-internal snapshot endpoints
	// (GET/POST /v1/internal/snapshot...) and authenticates them as a
	// Bearer token; it also gates the /debug/pprof/ profiling surface.
	// Empty keeps them disabled (403).
	ClusterToken string
	// Logger receives the server's structured log lines; nil selects
	// slog.Default().
	Logger *slog.Logger
	// SlowQuery is the slow-query log threshold: any request whose total
	// duration reaches it logs its full span breakdown at Warn, keyed by
	// request ID. ≤ 0 disables the slow-query log.
	SlowQuery time.Duration
	// Trace configures the retained-trace store every finished request
	// commits into (GET /v1/debug/traces/{id}); zero values select the
	// tracestore defaults. When SlowQuery is set and Trace.SlowThreshold
	// is not, the slow-query threshold doubles as the trace-retention one
	// so the two surfaces agree on what "slow" means.
	Trace tracestore.Options
	// LoadSampleInterval is the cadence of the rolling load-overview ring
	// (GET /v1/internal/load). 0 selects 1s; < 0 disables sampling.
	LoadSampleInterval time.Duration
}

// Server is the HTTP front end; it implements http.Handler.
type Server struct {
	store   *release.Store
	engine  *engine.Engine
	eval    *eval.Service
	schema  *microdata.Schema
	metrics *Metrics
	mux     *http.ServeMux
	maxBody int64
	// Query-route body caps, bounded independently of maxBody: that
	// limit is sized for CSV uploads, and letting a query route decode a
	// CSV-sized JSON body of predicate arrays would amplify a few MB of
	// text into GBs of slices before any validation could reject it.
	maxQueryBody, maxBatchBody int64
	clusterToken               string
	logger                     *slog.Logger
	slow                       obs.SlowQueryLogger

	traces   *tracestore.Store
	loads    *obs.LoadRing
	sampler  *obs.LoadSampler
	inflight atomic.Int64
}

// New wires the API around a store. On a durable store it also opens the
// evaluation service's log in the store's data directory, recovering
// persisted verdicts — the only error path. Call Close to stop the
// server's query engine and evaluation workers when done.
func New(store *release.Store, opts Options) (*Server, error) {
	evalSvc, err := eval.NewService(store, opts.EvalWorkers)
	if err != nil {
		return nil, fmt.Errorf("server: starting eval service: %w", err)
	}
	s := &Server{
		store:        store,
		engine:       engine.New(opts.Engine),
		eval:         evalSvc,
		schema:       opts.Schema,
		metrics:      NewMetrics(),
		mux:          http.NewServeMux(),
		maxBody:      opts.MaxBodyBytes,
		clusterToken: opts.ClusterToken,
		logger:       opts.Logger,
	}
	if s.schema == nil {
		s.schema = census.Schema()
	}
	if s.maxBody <= 0 {
		s.maxBody = 256 << 20
	}
	if s.logger == nil {
		s.logger = slog.Default()
	}
	s.slow = obs.SlowQueryLogger{Logger: s.logger, Threshold: opts.SlowQuery}
	s.maxQueryBody = min(1<<20, s.maxBody)
	s.maxBatchBody = min(8<<20, s.maxBody)
	if opts.Trace.SlowThreshold == 0 && opts.SlowQuery > 0 {
		opts.Trace.SlowThreshold = opts.SlowQuery
	}
	s.traces = tracestore.New(opts.Trace)
	if opts.LoadSampleInterval >= 0 {
		s.loads = obs.NewLoadRing(0)
		s.sampler = obs.StartLoadSampler(s.loads, opts.LoadSampleInterval, s.loadSample())
	}
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.metrics.handler(s.releaseCounts, s.evalStats, s.engine.Stats, s.persistStats, s.extraGauges, s.engine.Stages(), store.Stages(), evalSvc.Stages())))
	s.mux.HandleFunc("POST /v1/releases", s.instrument("create_release", s.handleCreate))
	s.mux.HandleFunc("GET /v1/releases", s.instrument("list_releases", s.handleList))
	s.mux.HandleFunc("GET /v1/releases/{id}", s.instrument("get_release", s.handleGet))
	s.mux.HandleFunc("POST /v1/releases/{id}/query", s.instrument("query_release", s.handleQuery))
	// {action} spans the "{id}:evaluate" segment; mux wildcards cannot
	// split on the colon, so the handler does.
	s.mux.HandleFunc("POST /v1/releases/{action}", s.instrument("release_action", s.handleReleaseAction))
	s.mux.HandleFunc("GET /v1/releases/{id}/evaluation", s.instrument("get_evaluation", s.handleGetEvaluation))
	s.mux.HandleFunc("POST /v1/query:batch", s.instrument("batch_query", s.handleBatchQuery))
	s.mux.HandleFunc("GET /v1/internal/snapshot/{id}", s.instrument("internal_snapshot_get", s.requireCluster(s.handleSnapshotGet)))
	s.mux.HandleFunc("POST /v1/internal/snapshot", s.instrument("internal_snapshot_put", s.requireCluster(s.handleSnapshotPut)))
	s.mux.HandleFunc("GET /v1/debug/traces/{id}", s.instrument("debug_trace", s.handleTraceDebug))
	s.mux.HandleFunc("GET /v1/internal/traces/{id}", s.instrument("internal_trace_get", s.requireCluster(s.handleTraceDebug)))
	s.mux.HandleFunc("GET /v1/internal/load", s.instrument("internal_load", s.requireCluster(s.handleLoadInternal)))
	s.mux.Handle("/debug/pprof/", obs.PprofHandler(opts.ClusterToken))
	return s, nil
}

// Close stops the query engine's worker pool, the evaluation service,
// and the load sampler. The store's lifecycle is owned by the caller.
func (s *Server) Close() {
	s.sampler.Close()
	s.engine.Close()
	s.eval.Close()
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// instrument wraps a handler with request observability: a request ID
// (propagated from upstream via traceparent/X-Request-Id or minted here)
// echoed as the X-Request-Id response header, a span trace on the request
// context, per-route metrics with bucket exemplars, a debug-level access
// log line, the slow-query log, and — applying the tail-retention policy
// — a commit into the trace store. The response header is set before the
// handler runs so writeErr can embed the ID in every error envelope.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	node := s.store.Node()
	return func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		// Deferred, not inline after the handler: net/http recovers
		// handler panics, and an inline decrement would leak the gauge —
		// skewing every load sample — on each one.
		defer s.inflight.Add(-1)
		id, _ := obs.RequestIDFromHeaders(r.Header)
		tr := obs.NewTrace(id)
		// The route span anchors at the trace's own start so assembled
		// documents never show it at a negative offset.
		start := tr.Start()
		w.Header().Set(obs.HeaderRequestID, id)
		r = r.WithContext(obs.WithTrace(r.Context(), tr))
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		total := time.Since(start)
		tr.AddSpan("node."+route, node, start, total)
		s.metrics.Observe(route, rec.code, total, id)
		s.slow.Observe(route, rec.code, total, tr)
		s.traces.Commit(tr, route, rec.code, rec.errCode, total)
		s.logger.Debug("request",
			"request_id", id,
			"route", route,
			"code", rec.code,
			"release_id", tr.ReleaseID(),
			"node", node,
			"total_us", total.Microseconds(),
		)
	}
}

// loadSample builds the node's self-observation closure for the load
// sampler: engine throughput since the last tick, lifetime latency
// quantiles, inflight requests, engine queue depth, and heap pressure.
func (s *Server) loadSample() func(elapsed time.Duration) obs.LoadSample {
	var lastQueries uint64
	return func(elapsed time.Duration) obs.LoadSample {
		queries := s.engine.Stats().Queries
		qps := 0.0
		if secs := elapsed.Seconds(); secs > 0 {
			qps = float64(queries-lastQueries) / secs
		}
		lastQueries = queries
		p50, p95, p99 := s.metrics.OverallQuantiles()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return obs.LoadSample{
			At:         time.Now(),
			QPS:        qps,
			P50:        p50,
			P95:        p95,
			P99:        p99,
			Inflight:   s.inflight.Load(),
			QueueDepth: s.engine.QueueDepth(),
			HeapBytes:  ms.HeapAlloc,
			Goroutines: runtime.NumGoroutine(),
		}
	}
}

// extraGauges renders the trace-store and inflight gauges this PR adds,
// keeping the handler signature free of tracestore types.
func (s *Server) extraGauges(buf *bytes.Buffer) {
	writeInflightGauge(buf, s.inflight.Load())
	writeTraceStoreGauges(buf, s.traces.Stats())
}

// persistStats projects the store's durability state for /metrics.
func (s *Server) persistStats() PersistStats {
	rec := s.store.Recovery()
	return PersistStats{
		Node:                 s.store.Node(),
		Durable:              s.store.Durable(),
		DiskBytes:            s.store.DiskSize(),
		RecoveredReady:       rec.Ready,
		RecoveredInterrupted: rec.Interrupted,
		RecoveredFailed:      rec.Failed,
		RecoveredCorrupt:     rec.Corrupt,
	}
}

func (s *Server) releaseCounts() map[string]int {
	counts := make(map[string]int)
	for _, m := range s.store.List() {
		counts[string(m.Status)]++
	}
	return counts
}

// handleHealthz reports liveness, plus the node identity when the store
// runs with one: a cluster gateway's prober verifies it against the
// configured membership, catching mis-wired -nodes flags.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if node := s.store.Node(); node != "" {
		fmt.Fprintf(w, "{\"status\":\"ok\",\"node\":%q}\n", node)
		return
	}
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// metaToAPI converts store metadata to its wire form. The typed params
// are re-marshaled into the raw JSON object the client sees.
func metaToAPI(m release.Meta) api.Release {
	var raw api.RawParams
	if m.Spec.Params != nil {
		raw, _ = json.Marshal(m.Spec.Params)
	}
	return api.Release{
		ID:      m.ID,
		Version: m.Version,
		Spec: api.ReleaseSpec{
			Method:    m.Spec.Method,
			Params:    raw,
			QI:        m.Spec.QI,
			GridCells: m.Spec.GridCells,
		},
		Status:      string(m.Status),
		Error:       m.Error,
		Rows:        m.Rows,
		NumECs:      m.NumECs,
		AIL:         m.AIL,
		CreatedAt:   m.CreatedAt,
		ReadyAt:     m.ReadyAt,
		BuildMillis: m.BuildMillis,
		Persisted:   m.Persisted,
	}
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req api.CreateReleaseRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeErr(w, decodeStatus(err), decodeCode(err), fmt.Errorf("decoding request: %w", err), nil)
		return
	}
	if strings.TrimSpace(req.Method) == "" {
		writeErr(w, http.StatusBadRequest, api.CodeInvalidRequest, fmt.Errorf("method field is empty"), map[string]any{"methods": anon.Methods()})
		return
	}
	if strings.TrimSpace(req.CSV) == "" {
		writeErr(w, http.StatusBadRequest, api.CodeInvalidRequest, fmt.Errorf("csv field is empty"), nil)
		return
	}
	// Resolve the method and decode its typed params before touching the
	// CSV: a bad method name should not cost a table parse.
	params, err := anon.UnmarshalParams(req.Method, req.Params)
	if err != nil {
		writeErr(w, http.StatusBadRequest, anonCode(err), err, map[string]any{"method": req.Method})
		return
	}
	schema := s.schema
	if req.QI > 0 && req.QI < len(schema.QI) {
		schema = schema.Project(req.QI)
	}
	tab, err := microdata.ReadCSV(strings.NewReader(req.CSV), schema)
	if err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeInvalidRequest, err, nil)
		return
	}
	// QI is recorded for metadata fidelity; the table is already
	// projected, so the build-time projection is a no-op. The build is
	// intentionally detached from the request context: the 202 contract
	// means the client walks away while the build proceeds.
	spec := release.Spec{Method: req.Method, Params: params, QI: req.QI, GridCells: req.GridCells}
	meta, err := s.store.Submit(context.WithoutCancel(r.Context()), tab, spec)
	if err != nil {
		if errors.Is(err, release.ErrQueueFull) || errors.Is(err, release.ErrClosed) {
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable, api.CodeUnavailable, err, nil)
			return
		}
		writeErr(w, http.StatusBadRequest, anonCode(err), err, nil)
		return
	}
	writeJSON(w, http.StatusAccepted, metaToAPI(meta))
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	metas := s.store.List()
	out := api.ListReleasesResponse{Releases: make([]api.Release, len(metas))}
	for i, m := range metas {
		out.Releases[i] = metaToAPI(m)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	meta, ok := s.store.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, api.CodeNotFound, fmt.Errorf("no release %q", id), nil)
		return
	}
	writeJSON(w, http.StatusOK, metaToAPI(meta))
}

// toQuery converts the wire form to the internal query type.
func toQuery(r api.Query) query.Query {
	return query.Query{
		Dims: r.Dims, Lo: r.Lo, Hi: r.Hi,
		SALo: r.SALo, SAHi: r.SAHi,
		Agg:     query.Aggregate(r.Agg),
		GroupBy: r.GroupBy, GroupBuckets: r.GroupBuckets,
	}
}

// toGroups converts the engine's per-cell results to their wire form;
// nil in, nil out, so ungrouped results stay free of the field.
func toGroups(groups []engine.GroupResult) []api.GroupResult {
	if groups == nil {
		return nil
	}
	out := make([]api.GroupResult, len(groups))
	for i, g := range groups {
		out[i] = api.GroupResult{Lo: g.Lo, Hi: g.Hi, Estimate: g.Estimate}
	}
	return out
}

// resolveSnapshot maps a release ID to its queryable snapshot or to the
// HTTP status describing why it cannot be queried: 404 for unknown IDs,
// 409 for failed builds (a permanent condition for that ID), 503 with
// Retry-After for pending/building releases (the client should poll).
func (s *Server) resolveSnapshot(w http.ResponseWriter, id string) (*release.Snapshot, bool) {
	meta, ok := s.store.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, api.CodeNotFound, fmt.Errorf("%w: %q", release.ErrNotFound, id), nil)
		return nil, false
	}
	switch meta.Status {
	case release.StatusPending, release.StatusBuilding:
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, api.CodeNotReady,
			fmt.Errorf("%w: release %s is %s", release.ErrNotReady, id, meta.Status),
			map[string]any{"status": string(meta.Status)})
		return nil, false
	case release.StatusFailed:
		writeErr(w, http.StatusConflict, api.CodeBuildFailed,
			fmt.Errorf("%w: release %s failed: %s", release.ErrNotReady, id, meta.Error), nil)
		return nil, false
	}
	snap, err := s.store.Snapshot(id)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, api.CodeInternal, err, nil)
		return nil, false
	}
	return snap, true
}

// executeErr maps an engine.Execute failure to its status and code.
func executeErr(w http.ResponseWriter, err error) {
	var qe *engine.QueryError
	switch {
	case errors.As(err, &qe):
		writeErr(w, http.StatusBadRequest, api.CodeInvalidQuery, err, map[string]any{"query": qe.Index})
	case errors.Is(err, engine.ErrBatchTooLarge):
		writeErr(w, http.StatusRequestEntityTooLarge, api.CodeTooLarge, err, nil)
	case errors.Is(err, engine.ErrClosed):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, api.CodeUnavailable, err, nil)
	default:
		writeErr(w, http.StatusInternalServerError, api.CodeInternal, err, nil)
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Decode before resolving the release, matching the batch route:
	// structural checks on the request precede checks on the target.
	var req api.Query
	if !edge.DecodeBody(w, r, s.maxQueryBody, &req, api.ParseQuery) {
		return
	}
	tr := obs.TraceFrom(r.Context())
	endResolve := tr.StartSpan("node.resolve")
	snap, ok := s.resolveSnapshot(w, id)
	endResolve()
	if !ok {
		return
	}
	res, err := s.engine.ExecuteCtx(r.Context(), id, snap, []query.Query{toQuery(req)})
	if err != nil {
		executeErr(w, err)
		return
	}
	edge.WriteEncoded(w, &api.QueryResponse{
		ReleaseID: id, Estimate: res[0].Estimate, Cached: res[0].Cached,
		Groups:    toGroups(res[0].Groups),
		RequestID: w.Header().Get(obs.HeaderRequestID),
	}, api.AppendQueryResponse)
}

func (s *Server) handleBatchQuery(w http.ResponseWriter, r *http.Request) {
	var req api.BatchQueryRequest
	if !edge.DecodeBody(w, r, s.maxBatchBody, &req, api.ParseBatchQueryRequest) {
		return
	}
	if req.ReleaseID == "" {
		writeErr(w, http.StatusBadRequest, api.CodeInvalidRequest, fmt.Errorf("release_id is required"), nil)
		return
	}
	if len(req.Queries) == 0 {
		writeErr(w, http.StatusBadRequest, api.CodeInvalidRequest, fmt.Errorf("queries is empty"), nil)
		return
	}
	// Reject oversized batches before resolving the release: the cap is
	// structural, not a property of the target.
	if limit := s.engine.MaxBatch(); len(req.Queries) > limit {
		writeErr(w, http.StatusRequestEntityTooLarge, api.CodeTooLarge,
			fmt.Errorf("%w: %d queries > limit %d", engine.ErrBatchTooLarge, len(req.Queries), limit),
			map[string]any{"limit": limit})
		return
	}
	tr := obs.TraceFrom(r.Context())
	endResolve := tr.StartSpan("node.resolve")
	snap, ok := s.resolveSnapshot(w, req.ReleaseID)
	endResolve()
	if !ok {
		return
	}
	qs := make([]query.Query, len(req.Queries))
	for i, qr := range req.Queries {
		qs[i] = toQuery(qr)
	}
	res, err := s.engine.ExecuteCtx(r.Context(), req.ReleaseID, snap, qs)
	if err != nil {
		executeErr(w, err)
		return
	}
	out := api.BatchQueryResponse{
		ReleaseID: req.ReleaseID,
		Results:   make([]api.QueryResult, len(res)),
		RequestID: w.Header().Get(obs.HeaderRequestID),
	}
	for i := range res {
		out.Results[i] = api.QueryResult{Estimate: res[i].Estimate, Cached: res[i].Cached, Groups: toGroups(res[i].Groups)}
		if res[i].Cached {
			out.CacheHits++
		}
	}
	edge.WriteEncoded(w, &out, api.AppendBatchQueryResponse)
}

// anonCode maps an anon registry/params error to its wire code.
func anonCode(err error) string {
	switch {
	case errors.Is(err, anon.ErrUnknownMethod):
		return api.CodeUnknownMethod
	case errors.Is(err, anon.ErrInvalidParams):
		return api.CodeInvalidParams
	}
	return api.CodeInvalidRequest
}

// The HTTP edge helpers every route shares with the gateway.
var (
	writeErr     = edge.WriteErr
	writeJSON    = edge.WriteJSON
	decodeStatus = edge.DecodeStatus
	decodeCode   = edge.DecodeCode
)
