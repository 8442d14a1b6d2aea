package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/api"
)

// Span names. Every span is recorded by the benchmark's own code around
// a call into one layer's public surface; nothing inside the program is
// instrumented for the benchmark.
const (
	spanClient     = "client.query_batch"     // pkg/client QueryBatch
	spanRoundTrip  = "http.roundtrip"         // the client's loopback transport
	spanServer     = "server.serve_http"      // a node's Server.ServeHTTP
	spanGateway    = "gateway.serve_http"     // the gateway's ServeHTTP
	spanGatewayHop = "gateway.node_roundtrip" // the gateway's transport to one node
	spanEstimate   = "index.estimate"         // ECIndex.EstimateScratch / Snapshot.EstimateWith
	spanExecute    = "engine.execute"         // engine.Execute
)

// maxSpans bounds the spans one run keeps in memory; later spans are
// counted as dropped.
const maxSpans = 400_000

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch. Trace is the request ID the serving side minted and
// returned in X-Request-Id (ladder operations that never reach a server
// get a harness-made ID). Addr is the loopback address a transport span
// targeted or a handler span served; it links a handler span to the
// transport span that carried its request.
type span struct {
	Trace  string `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Scope  string `json:"scope"`
	Addr   string `json:"addr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory while it is on. A nil *tracer is a
// valid, disabled tracer: every wrapper passes straight through.
type tracer struct {
	epoch   time.Time
	on      atomic.Bool
	nextID  atomic.Uint64
	dropped atomic.Int64
	scope   atomic.Pointer[string]

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, 0, 64<<10)}
	t.setScope("window")
	return t
}

// setScope labels the spans recorded from now on ("window" for the
// workload's traffic, "rung.<rung>[.<mode>].<shape>" on the ladder).
func (t *tracer) setScope(s string) {
	if t != nil {
		t.scope.Store(&s)
	}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record stores one finished span.
func (t *tracer) record(s span) {
	s.Scope = *t.scope.Load()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped.Add(1)
		return
	}
	t.spans = append(t.spans, s)
}

// spanKey keys the current span's ID on a context: the in-process
// parent link.
type spanKey struct{}

// start opens a span whose ID child spans started under the returned
// context take as their parent; end closes it under the given trace ID.
func (t *tracer) start(ctx context.Context, name string) (context.Context, func(trace string)) {
	if !t.enabled() {
		return ctx, func(string) {}
	}
	id := t.nextID.Add(1)
	parent := parentOf(ctx)
	start := t.now()
	ctx = context.WithValue(ctx, spanKey{}, id)
	return ctx, func(trace string) {
		t.record(span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start, End: t.now()})
	}
}

func parentOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// transport wraps an HTTP transport with one span per round trip; the
// trace ID is the X-Request-Id the server answers with.
func (t *tracer) transport(name string, rt http.RoundTripper) http.RoundTripper {
	if t == nil {
		return rt
	}
	return &tracingTransport{t: t, name: name, rt: rt}
}

type tracingTransport struct {
	t    *tracer
	name string
	rt   http.RoundTripper
}

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tt.t.enabled() {
		return tt.rt.RoundTrip(req)
	}
	id := tt.t.nextID.Add(1)
	start := tt.t.now()
	resp, err := tt.rt.RoundTrip(req)
	s := span{ID: id, Parent: parentOf(req.Context()), Name: tt.name, Addr: req.URL.Host, Start: start, End: tt.t.now()}
	if err == nil {
		s.Trace = resp.Header.Get(api.HeaderRequestID)
	}
	tt.t.record(s)
	return resp, err
}

// handler wraps a server's ServeHTTP with one span per request; the
// trace ID is the X-Request-Id the wrapped handler set on its response
// (the gateway forwards its own to the nodes, so one ID spans the
// request's whole path).
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled() {
			h.ServeHTTP(w, r)
			return
		}
		id := t.nextID.Add(1)
		start := t.now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		t.record(span{Trace: w.Header().Get(api.HeaderRequestID), ID: id, Name: name, Addr: r.Host, Start: start, End: t.now()})
	})
}

// link fills in the parents the recording side could not know: a
// handler span's parent is the tightest transport span of the same trace
// that targeted the handler's address and contains it in time.
func link(spans []span) {
	byTrace := map[string][]int{}
	for i, s := range spans {
		if s.Trace != "" {
			byTrace[s.Trace] = append(byTrace[s.Trace], i)
		}
	}
	for _, idx := range byTrace {
		for _, i := range idx {
			c := &spans[i]
			if c.Parent != 0 || (c.Name != spanServer && c.Name != spanGateway) {
				continue
			}
			best := -1
			for _, j := range idx {
				p := spans[j]
				if p.Name != spanRoundTrip && p.Name != spanGatewayHop {
					continue
				}
				if p.Addr != c.Addr || p.Start > c.Start || p.End < c.End {
					continue
				}
				if best < 0 || p.End-p.Start < spans[best].End-spans[best].Start {
					best = j
				}
			}
			if best >= 0 {
				c.Parent = spans[best].ID
			}
		}
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of it its children cover.
func selfTimes(spans []span) []time.Duration {
	idx := make(map[uint64]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	children := map[int][][2]int64{}
	for _, s := range spans {
		if p, ok := idx[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], [2]int64{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		curLo, curHi = -1, -1
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = lo, hi
				continue
			}
			curHi = max(curHi, hi)
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// spanFileEvery keeps 1 in spanFileEvery traced workload requests in the
// spans file (every ladder span is kept); all of them count in the self
// times.
const spanFileEvery = 16

// finish links and summarizes the recorded spans — the median self time
// per scope and span name — and writes them to the spans file.
func (t *tracer) finish(res *result, cfg config) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	link(spans)
	self := selfTimes(spans)
	groups := map[string][]float64{}
	for i, s := range spans {
		k := s.Scope + "/" + s.Name
		groups[k] = append(groups[k], us(self[i]))
	}
	res.SpanSelfUS = make(map[string]float64, len(groups))
	for k, v := range groups {
		res.SpanSelfUS[k] = median(v)
		res.sample("span_self/"+k, len(v))
	}
	res.set("trace.spans", "count", float64(len(spans)))
	res.set("trace.spans_dropped", "count", float64(t.dropped.Load()))

	dir := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating results dir: %w", err)
	}
	path := filepath.Join(dir, res.baseName()+"-spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if spans[i].Scope == "window" && !keepTrace(spans[i].Trace) {
			continue
		}
		out := struct {
			span
			SelfNS int64 `json:"self_ns"`
		}{spans[i], int64(self[i])}
		if err := enc.Encode(out); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	res.SpansFile = path
	return nil
}

func keepTrace(trace string) bool {
	h := fnv.New32a()
	h.Write([]byte(trace))
	return h.Sum32()%spanFileEvery == 0
}
