package server

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/tracestore"
)

// Metrics collects per-route request counters and latency histograms and
// renders them in Prometheus text exposition format. It is dependency-free
// by design: the container bakes in no client library, and counters plus
// log-bucketed histograms are all the serving dashboards need.
type Metrics struct {
	mu     sync.Mutex
	counts map[routeCode]uint64
	lat    *obs.LabeledHistograms
	start  time.Time
}

type routeCode struct {
	route string
	code  int
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counts: make(map[routeCode]uint64),
		lat:    obs.NewLabeledHistograms(),
		start:  time.Now(),
	}
}

// Observe records one completed request. requestID, when non-empty,
// becomes the exemplar of the latency bucket the request lands in, so a
// scrape's fat buckets link to retrievable traces.
func (m *Metrics) Observe(route string, code int, d time.Duration, requestID string) {
	m.mu.Lock()
	m.counts[routeCode{route, code}]++
	m.mu.Unlock()
	m.lat.ObserveExemplar(route, d, requestID)
}

// RouteQuantile estimates a latency quantile for one route, in seconds.
func (m *Metrics) RouteQuantile(route string, q float64) float64 {
	return m.lat.Quantile(route, q)
}

// OverallQuantiles estimates the p50/p95/p99 request latency across all
// routes, in seconds, by merging the per-route histograms into a
// scratch one — cheap enough for the 1 Hz load sampler.
func (m *Metrics) OverallQuantiles() (p50, p95, p99 float64) {
	var all obs.Histogram
	for _, route := range m.lat.Labels() {
		all.Merge(m.lat.Get(route))
	}
	return all.Quantile(0.50), all.Quantile(0.95), all.Quantile(0.99)
}

// releaseCounter lets the metrics endpoint report the store's release
// states without importing the release package.
type releaseCounter func() map[string]int

// engineStats supplies the batch engine's cache and batch counters.
type engineStats func() engine.Stats

// PersistStats is the metrics-facing view of the store's durability
// state, kept free of release-package types like releaseCounter is.
type PersistStats struct {
	// Node is the store's cluster node identity ("" single-node).
	Node string
	// Durable reports whether the store persists to a data directory.
	Durable bool
	// DiskBytes is the total size of the data directory.
	DiskBytes int64
	// Recovered releases by outcome, from the last Open.
	RecoveredReady, RecoveredInterrupted, RecoveredFailed, RecoveredCorrupt int
}

// persistStats supplies the store's durability gauges.
type persistStats func() PersistStats

// EvalStats is the metrics-facing view of the evaluation service, kept
// free of eval-package types like PersistStats is of the store's.
type EvalStats struct {
	// Counts is evaluations by status.
	Counts map[string]int
	// Recovered evaluations by outcome, from the last startup.
	RecoveredDone, RecoveredFailed, RecoveredInterrupted, RecoveredCorrupt int
}

// evalStats supplies the evaluation service's gauges.
type evalStats func() EvalStats

// handler renders the registry. releases, evals, engStats, persist, and
// extra may be nil; extra appends caller-owned gauges (trace store,
// inflight) to the exposition; stageSets are the per-stage latency
// families (engine, store, eval) merged into one
// repro_stage_duration_seconds family — their label values must be
// disjoint. The exposition is rendered into a buffer first so no lock is
// held during the network write (a stalled scraper must not serialize
// request completion).
//
// The format is negotiated per scrape: the default is the classic 0.0.4
// text format, which has no exemplar syntax, so bucket exemplars render
// only when the client's Accept header names application/openmetrics-text
// — that payload is framed as OpenMetrics, ending in "# EOF".
func (m *Metrics) handler(releases releaseCounter, evals evalStats, engStats engineStats, persist persistStats, extra func(*bytes.Buffer), stageSets ...*obs.LabeledHistograms) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		contentType, openMetrics := obs.NegotiateExposition(r.Header.Get("Accept"))
		var buf bytes.Buffer
		m.mu.Lock()
		keys := make([]routeCode, 0, len(m.counts))
		for k := range m.counts {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].route != keys[j].route {
				return keys[i].route < keys[j].route
			}
			return keys[i].code < keys[j].code
		})
		fmt.Fprintln(&buf, "# HELP repro_http_requests_total Requests served, by route and status code.")
		fmt.Fprintln(&buf, "# TYPE repro_http_requests_total counter")
		for _, k := range keys {
			fmt.Fprintf(&buf, "repro_http_requests_total{route=%q,code=\"%d\"} %d\n", k.route, k.code, m.counts[k])
		}
		uptime := time.Since(m.start).Seconds()
		m.mu.Unlock()
		obs.WriteHistograms(&buf, "repro_http_request_duration_seconds", "Request latency, by route.", "route", openMetrics, m.lat)
		obs.WriteHistograms(&buf, "repro_stage_duration_seconds", "Per-stage latency inside a request (engine, store).", "stage", openMetrics, stageSets...)

		if releases != nil {
			counts := releases()
			states := make([]string, 0, len(counts))
			for s := range counts {
				states = append(states, s)
			}
			sort.Strings(states)
			fmt.Fprintln(&buf, "# HELP repro_releases Releases in the store, by status.")
			fmt.Fprintln(&buf, "# TYPE repro_releases gauge")
			for _, s := range states {
				fmt.Fprintf(&buf, "repro_releases{status=%q} %d\n", s, counts[s])
			}
		}
		if evals != nil {
			st := evals()
			states := make([]string, 0, len(st.Counts))
			for s := range st.Counts {
				states = append(states, s)
			}
			sort.Strings(states)
			fmt.Fprintln(&buf, "# HELP repro_evaluations Evaluation jobs known to the eval service, by status.")
			fmt.Fprintln(&buf, "# TYPE repro_evaluations gauge")
			for _, s := range states {
				fmt.Fprintf(&buf, "repro_evaluations{status=%q} %d\n", s, st.Counts[s])
			}
			if st.RecoveredDone+st.RecoveredFailed+st.RecoveredInterrupted+st.RecoveredCorrupt > 0 {
				fmt.Fprintln(&buf, "# HELP repro_eval_recovered Evaluations reconstructed by the last startup recovery, by outcome.")
				fmt.Fprintln(&buf, "# TYPE repro_eval_recovered gauge")
				fmt.Fprintf(&buf, "repro_eval_recovered{outcome=\"done\"} %d\n", st.RecoveredDone)
				fmt.Fprintf(&buf, "repro_eval_recovered{outcome=\"failed\"} %d\n", st.RecoveredFailed)
				fmt.Fprintf(&buf, "repro_eval_recovered{outcome=\"interrupted\"} %d\n", st.RecoveredInterrupted)
				fmt.Fprintf(&buf, "repro_eval_recovered{outcome=\"corrupt\"} %d\n", st.RecoveredCorrupt)
			}
		}
		if engStats != nil {
			st := engStats()
			fmt.Fprintln(&buf, "# HELP repro_engine_cache_hits_total Query-engine result-cache hits (including batch-local duplicates).")
			fmt.Fprintln(&buf, "# TYPE repro_engine_cache_hits_total counter")
			fmt.Fprintf(&buf, "repro_engine_cache_hits_total %d\n", st.CacheHits)
			fmt.Fprintln(&buf, "# HELP repro_engine_cache_misses_total Query-engine result-cache misses.")
			fmt.Fprintln(&buf, "# TYPE repro_engine_cache_misses_total counter")
			fmt.Fprintf(&buf, "repro_engine_cache_misses_total %d\n", st.CacheMisses)
			fmt.Fprintln(&buf, "# HELP repro_engine_batches_total Batches executed by the query engine.")
			fmt.Fprintln(&buf, "# TYPE repro_engine_batches_total counter")
			fmt.Fprintf(&buf, "repro_engine_batches_total %d\n", st.Batches)
			fmt.Fprintln(&buf, "# HELP repro_engine_batch_queries_total Queries executed across all batches.")
			fmt.Fprintln(&buf, "# TYPE repro_engine_batch_queries_total counter")
			fmt.Fprintf(&buf, "repro_engine_batch_queries_total %d\n", st.Queries)
			fmt.Fprintln(&buf, "# HELP repro_engine_batch_size_max Largest batch executed so far.")
			fmt.Fprintln(&buf, "# TYPE repro_engine_batch_size_max gauge")
			fmt.Fprintf(&buf, "repro_engine_batch_size_max %d\n", st.MaxBatch)
			fmt.Fprintln(&buf, "# HELP repro_engine_cache_entries Current result-cache entry count.")
			fmt.Fprintln(&buf, "# TYPE repro_engine_cache_entries gauge")
			fmt.Fprintf(&buf, "repro_engine_cache_entries %d\n", st.CacheEntries)
		}
		if persist != nil {
			ps := persist()
			if ps.Node != "" {
				fmt.Fprintln(&buf, "# HELP repro_node_info Cluster node identity (value is always 1).")
				fmt.Fprintln(&buf, "# TYPE repro_node_info gauge")
				fmt.Fprintf(&buf, "repro_node_info{node=%q} 1\n", ps.Node)
			}
			durable := 0
			if ps.Durable {
				durable = 1
			}
			fmt.Fprintln(&buf, "# HELP repro_store_durable Whether the release store persists to a data directory.")
			fmt.Fprintln(&buf, "# TYPE repro_store_durable gauge")
			fmt.Fprintf(&buf, "repro_store_durable %d\n", durable)
			if ps.Durable {
				fmt.Fprintln(&buf, "# HELP repro_store_disk_bytes Total bytes in the store's data directory (snapshots plus manifest).")
				fmt.Fprintln(&buf, "# TYPE repro_store_disk_bytes gauge")
				fmt.Fprintf(&buf, "repro_store_disk_bytes %d\n", ps.DiskBytes)
				fmt.Fprintln(&buf, "# HELP repro_store_recovered_releases Releases reconstructed by the last startup recovery, by outcome.")
				fmt.Fprintln(&buf, "# TYPE repro_store_recovered_releases gauge")
				fmt.Fprintf(&buf, "repro_store_recovered_releases{outcome=\"ready\"} %d\n", ps.RecoveredReady)
				fmt.Fprintf(&buf, "repro_store_recovered_releases{outcome=\"interrupted\"} %d\n", ps.RecoveredInterrupted)
				fmt.Fprintf(&buf, "repro_store_recovered_releases{outcome=\"failed\"} %d\n", ps.RecoveredFailed)
				fmt.Fprintf(&buf, "repro_store_recovered_releases{outcome=\"corrupt\"} %d\n", ps.RecoveredCorrupt)
			}
		}
		if extra != nil {
			extra(&buf)
		}
		obs.WriteRuntimeMetrics(&buf, "repro_")
		fmt.Fprintln(&buf, "# HELP repro_uptime_seconds Seconds since the server started.")
		fmt.Fprintln(&buf, "# TYPE repro_uptime_seconds gauge")
		fmt.Fprintf(&buf, "repro_uptime_seconds %g\n", uptime)
		if openMetrics {
			buf.WriteString(obs.ExpositionEOF)
		}

		w.Header().Set("Content-Type", contentType)
		_, _ = w.Write(buf.Bytes())
	}
}

// statusRecorder captures the response code and error code for metrics
// and the trace store.
type statusRecorder struct {
	http.ResponseWriter
	code    int
	errCode string
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// SetErrorCode is the edge.WriteErr hook: the api error code of the response,
// recorded onto the retained trace.
func (r *statusRecorder) SetErrorCode(code string) { r.errCode = code }

// writeInflightGauge renders the requests-being-served gauge. The scrape
// itself is one of them, so an idle process reports 1.
func writeInflightGauge(buf *bytes.Buffer, inflight int64) {
	fmt.Fprintln(buf, "# HELP repro_http_inflight_requests Requests currently being served (includes this scrape).")
	fmt.Fprintln(buf, "# TYPE repro_http_inflight_requests gauge")
	fmt.Fprintf(buf, "repro_http_inflight_requests %d\n", inflight)
}

// writeTraceStoreGauges renders the trace store's retention counters.
func writeTraceStoreGauges(buf *bytes.Buffer, st tracestore.Stats) {
	tracestore.WriteGauges(buf, "repro_", st)
}
