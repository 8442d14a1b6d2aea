package cluster

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Metrics collects the gateway's counters and latency histograms and
// renders them in Prometheus text exposition format, dependency-free like
// the node server's.
type Metrics struct {
	mu     sync.Mutex
	counts map[routeCode]uint64
	start  time.Time

	totalReqs    uint64 // all requests, the load sampler's QPS numerator
	failovers    uint64 // requests re-dispatched after a node failure
	subBatches   uint64 // sub-batches fanned out by scatter/gather
	replOK       uint64 // snapshot replications completed
	replErr      uint64 // snapshot replications failed (retried by reconcile)
	replSweeps   uint64 // reconcile sweeps run
	replBytesOut uint64 // envelope bytes shipped to replicas

	// lat holds per-route request latency; stages the gateway-internal
	// stage latencies (sub-batch fan-out, merge, replication fetch/push).
	lat    *obs.LabeledHistograms
	stages *obs.LabeledHistograms
}

type routeCode struct {
	route string
	code  int
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counts: make(map[routeCode]uint64),
		start:  time.Now(),
		lat:    obs.NewLabeledHistograms(),
		stages: obs.NewLabeledHistograms(),
	}
}

// Observe records one completed gateway request; requestID becomes the
// latency histogram's exemplar.
func (m *Metrics) Observe(route string, code int, d time.Duration, requestID string) {
	m.mu.Lock()
	m.counts[routeCode{route, code}]++
	m.totalReqs++
	m.mu.Unlock()
	m.lat.ObserveExemplar(route, d, requestID)
}

// totalRequests returns the all-routes request count, the load sampler's
// QPS numerator.
func (m *Metrics) totalRequests() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totalReqs
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

// observeStage records one gateway-internal stage latency.
func (m *Metrics) observeStage(stage string, d time.Duration) { m.stages.Observe(stage, d) }

// RouteQuantile estimates a latency quantile for one route, in seconds.
func (m *Metrics) RouteQuantile(route string, q float64) float64 {
	return m.lat.Quantile(route, q)
}

func (m *Metrics) addFailover()        { m.mu.Lock(); m.failovers++; m.mu.Unlock() }
func (m *Metrics) addSubBatches(n int) { m.mu.Lock(); m.subBatches += uint64(n); m.mu.Unlock() }
func (m *Metrics) addSweep()           { m.mu.Lock(); m.replSweeps++; m.mu.Unlock() }

func (m *Metrics) addReplication(bytes int, err error) {
	m.mu.Lock()
	if err != nil {
		m.replErr++
	} else {
		m.replOK++
		m.replBytesOut += uint64(bytes)
	}
	m.mu.Unlock()
}

// render writes the exposition, including per-node liveness gauges read
// live from the membership; extra, when non-nil, appends caller-owned
// gauges (inflight, trace store). exemplars gates the OpenMetrics bucket
// trailers: true only when the scrape negotiated OpenMetrics — the
// classic 0.0.4 text format has no exemplar syntax.
func (m *Metrics) render(mem *Membership, r int, extra func(*bytes.Buffer), exemplars bool) []byte {
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
	fmt.Fprintln(&buf, "# HELP repro_gateway_requests_total Requests served by the gateway, by route and status code.")
	fmt.Fprintln(&buf, "# TYPE repro_gateway_requests_total counter")
	for _, k := range keys {
		fmt.Fprintf(&buf, "repro_gateway_requests_total{route=%q,code=\"%d\"} %d\n", k.route, k.code, m.counts[k])
	}
	fmt.Fprintln(&buf, "# HELP repro_gateway_failovers_total Requests re-dispatched to another replica after a node failure.")
	fmt.Fprintln(&buf, "# TYPE repro_gateway_failovers_total counter")
	fmt.Fprintf(&buf, "repro_gateway_failovers_total %d\n", m.failovers)
	fmt.Fprintln(&buf, "# HELP repro_gateway_subbatches_total Sub-batches dispatched by scatter/gather batch routing.")
	fmt.Fprintln(&buf, "# TYPE repro_gateway_subbatches_total counter")
	fmt.Fprintf(&buf, "repro_gateway_subbatches_total %d\n", m.subBatches)
	fmt.Fprintln(&buf, "# HELP repro_gateway_replications_total Snapshot replications, by outcome.")
	fmt.Fprintln(&buf, "# TYPE repro_gateway_replications_total counter")
	fmt.Fprintf(&buf, "repro_gateway_replications_total{outcome=\"ok\"} %d\n", m.replOK)
	fmt.Fprintf(&buf, "repro_gateway_replications_total{outcome=\"error\"} %d\n", m.replErr)
	fmt.Fprintln(&buf, "# HELP repro_gateway_replication_bytes_total Envelope bytes shipped to replicas.")
	fmt.Fprintln(&buf, "# TYPE repro_gateway_replication_bytes_total counter")
	fmt.Fprintf(&buf, "repro_gateway_replication_bytes_total %d\n", m.replBytesOut)
	fmt.Fprintln(&buf, "# HELP repro_gateway_reconcile_sweeps_total Replication reconcile sweeps completed.")
	fmt.Fprintln(&buf, "# TYPE repro_gateway_reconcile_sweeps_total counter")
	fmt.Fprintf(&buf, "repro_gateway_reconcile_sweeps_total %d\n", m.replSweeps)
	uptime := time.Since(m.start).Seconds()
	m.mu.Unlock()

	obs.WriteHistograms(&buf, "repro_gateway_request_duration_seconds", "Gateway request latency, by route.", "route", exemplars, m.lat)
	obs.WriteHistograms(&buf, "repro_gateway_stage_duration_seconds", "Per-stage latency inside a gateway request (fan-out, merge, replication).", "stage", exemplars, m.stages)
	obs.WriteHistogram(&buf, "repro_gateway_probe_duration_seconds", "Health-probe round-trip time across all nodes.", exemplars, mem.probeLat)

	fmt.Fprintln(&buf, "# HELP repro_gateway_replication_factor Configured replication factor R.")
	fmt.Fprintln(&buf, "# TYPE repro_gateway_replication_factor gauge")
	fmt.Fprintf(&buf, "repro_gateway_replication_factor %d\n", r)
	fmt.Fprintln(&buf, "# HELP repro_gateway_node_up Per-node circuit breaker state (1 = routable).")
	fmt.Fprintln(&buf, "# TYPE repro_gateway_node_up gauge")
	for _, st := range mem.nodes {
		up := 0
		if st.alive.Load() {
			up = 1
		}
		fmt.Fprintf(&buf, "repro_gateway_node_up{node=%q} %d\n", st.node.ID, up)
	}
	fmt.Fprintln(&buf, "# HELP repro_gateway_node_inflight Requests currently outstanding against each node.")
	fmt.Fprintln(&buf, "# TYPE repro_gateway_node_inflight gauge")
	for _, st := range mem.nodes {
		fmt.Fprintf(&buf, "repro_gateway_node_inflight{node=%q} %d\n", st.node.ID, st.inflight.Load())
	}
	if extra != nil {
		extra(&buf)
	}
	obs.WriteRuntimeMetrics(&buf, "repro_gateway_")
	fmt.Fprintln(&buf, "# HELP repro_gateway_uptime_seconds Seconds since the gateway started.")
	fmt.Fprintln(&buf, "# TYPE repro_gateway_uptime_seconds gauge")
	fmt.Fprintf(&buf, "repro_gateway_uptime_seconds %g\n", uptime)
	return buf.Bytes()
}

// statusRecorder captures the response code for metrics and the api
// error code for the retained trace.
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
