package cluster_test

// The query edge: the request-body contract of the gateway's batch
// route, the error envelopes the gateway builds itself, and the wire
// codec's coverage of all query traffic in a cluster.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/anon"
	"repro/internal/cluster"
	"repro/pkg/api"
	"repro/pkg/client"
)

// startGateway1 brings up one node behind a gateway whose body cap is
// maxBody, and plants one ready BUREL release through it.
func startGateway1(t *testing.T, maxBody int64) (*testNode, *httptest.Server, string) {
	t.Helper()
	nd := &testNode{id: "n1", dir: t.TempDir()}
	nd.start(t)
	gw, err := cluster.New(cluster.Options{
		Nodes:             []cluster.Node{{ID: nd.id, URL: nd.url()}},
		Replication:       1,
		Token:             testToken,
		ProbeInterval:     25 * time.Millisecond,
		ReconcileInterval: 50 * time.Millisecond,
		MaxBodyBytes:      maxBody,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw)
	t.Cleanup(func() {
		ts.Close()
		gw.Close()
		nd.kill()
	})
	csv, _, _ := censusCSVQs(t, 600, 41, 3, 1)
	ctx := context.Background()
	c := client.New(ts.URL)
	rel, err := c.CreateRelease(ctx, client.CreateSpec{Method: anon.MethodBUREL, Params: anon.NewBURELParams(anon.BURELSeed(1)), QI: 3, CSV: csv})
	if err != nil {
		t.Fatal(err)
	}
	if rel, err = c.WaitReady(ctx, rel.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return nd, ts, rel.ID
}

// postRaw posts a literal body and returns the response and its bytes.
func postRaw(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, data
}

// TestGatewayBodyContract pins what the gateway's batch route accepts
// beyond the canonical encoding — bytes after the first JSON value,
// unknown fields, keys in any letter case — and what it refuses: a null
// or malformed batch (400) and a body over the cap (413), including one
// whose first JSON value ends well inside the limit.
func TestGatewayBodyContract(t *testing.T) {
	const limit = 1 << 20
	_, ts, id := startGateway1(t, limit)
	one := `{"sa_lo":0,"sa_hi":3}`
	batch := `{"release_id":"` + id + `","queries":[` + one + `]}`
	cases := []struct {
		name, body string
		code       int
	}{
		{"canonical", batch, http.StatusOK},
		{"trailing bytes", batch + ` {"x":1} garbage`, http.StatusOK},
		{"unknown fields", `{"release_id":"` + id + `","extra":[1,{"a":null}],"queries":[{"sa_lo":0,"sa_hi":3,"bogus":"x"}]}`, http.StatusOK},
		{"case-variant keys", `{"Release_ID":"` + id + `","QUERIES":[{"SA_LO":0,"Sa_Hi":3,"Agg":"sum"}]}`, http.StatusOK},
		{"null queries", `{"release_id":"` + id + `","queries":null}`, http.StatusBadRequest},
		{"bad json", `{`, http.StatusBadRequest},
		{"no release_id", `{"queries":[` + one + `]}`, http.StatusBadRequest},
		{"body over limit", `{"release_id":"` + id + `","queries":[` + strings.Repeat(one+",", limit/len(one)) + one + `]}`, http.StatusRequestEntityTooLarge},
		{"over-limit body, first value ends early", batch + strings.Repeat(" ", limit+1), http.StatusRequestEntityTooLarge},
	}
	// Each 200 row must be answered exactly like its canonical request.
	sameAs := map[string]string{
		"canonical":         batch,
		"trailing bytes":    batch,
		"unknown fields":    batch,
		"case-variant keys": `{"release_id":"` + id + `","queries":[{"sa_lo":0,"sa_hi":3,"agg":"sum"}]}`,
	}
	estimates := func(data []byte) []api.QueryResult {
		var out api.BatchQueryResponse
		if err := json.Unmarshal(data, &out); err != nil || len(out.Results) != 1 || out.ReleaseID != id {
			t.Errorf("answer %s (%v)", data, err)
		}
		for i := range out.Results {
			out.Results[i].Cached = false
		}
		return out.Results
	}
	for _, tc := range cases {
		resp, data := postRaw(t, ts.URL+"/v1/query:batch", tc.body)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: code %d, want %d (%.200s)", tc.name, resp.StatusCode, tc.code, data)
			continue
		}
		if tc.code == http.StatusOK {
			_, sdata := postRaw(t, ts.URL+"/v1/query:batch", sameAs[tc.name])
			if got, want := estimates(data), estimates(sdata); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: answered %+v, canonical request answered %+v", tc.name, got, want)
			}
			continue
		}
		var env api.Envelope
		if err := json.Unmarshal(data, &env); err != nil || env.Error.Code == "" {
			t.Errorf("%s: body is not a structured error envelope: %.200s", tc.name, data)
		}
	}
}

// TestGatewayErrorsCarryRequestID: envelopes the gateway builds itself —
// not relayed from a node — mirror the request ID into
// details.request_id, exactly like a node's.
func TestGatewayErrorsCarryRequestID(t *testing.T) {
	nd, ts, id := startGateway1(t, 0)
	check := func(what string, resp *http.Response, data []byte, code int) {
		t.Helper()
		if resp.StatusCode != code {
			t.Fatalf("%s: code %d, want %d (%s)", what, resp.StatusCode, code, data)
		}
		rid := resp.Header.Get(api.HeaderRequestID)
		var env api.Envelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("%s: %v: %s", what, err, data)
		}
		if got, _ := env.Error.Details["request_id"].(string); rid == "" || got != rid {
			t.Errorf("%s: details.request_id = %q, header %q", what, got, rid)
		}
	}
	resp, data := postRaw(t, ts.URL+"/v1/query:batch", `{`)
	check("gateway-built 400", resp, data, http.StatusBadRequest)

	nd.kill()
	resp, data = postRaw(t, ts.URL+"/v1/query:batch", `{"release_id":"`+id+`","queries":[{"sa_lo":0,"sa_hi":3}]}`)
	check("gateway-built 503", resp, data, http.StatusServiceUnavailable)
}

// exchangeLog records the bodies of query-route exchanges a handler
// serves: the requests it receives and the answers it sends.
type exchangeLog struct {
	mu   sync.Mutex
	msgs []wireMsg
}

type wireMsg struct {
	origin string // who emitted the bytes
	path   string
	status int // 0 for a request
	body   []byte
}

// recordingWriter tees a response body.
type recordingWriter struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (rw *recordingWriter) WriteHeader(code int) {
	rw.status = code
	rw.ResponseWriter.WriteHeader(code)
}

func (rw *recordingWriter) Write(p []byte) (int, error) {
	rw.body.Write(p)
	return rw.ResponseWriter.Write(p)
}

// wrap records query-route traffic through h: request bodies as emitted
// by sender, answers as emitted by responder.
func (l *exchangeLog) wrap(sender, responder string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || (r.URL.Path != "/v1/query:batch" && !strings.HasSuffix(r.URL.Path, "/query")) {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(req))
		rw := &recordingWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(rw, r)
		l.mu.Lock()
		defer l.mu.Unlock()
		l.msgs = append(l.msgs,
			wireMsg{origin: sender, path: r.URL.Path, body: req},
			wireMsg{origin: responder, path: r.URL.Path, status: rw.status, body: rw.body.Bytes()})
	})
}

// TestQueryWireNoHandOff: every query message the client, the nodes and
// the gateway emit on the query path — batch and single requests,
// sub-batches, node answers, merged answers; grouped, aggregated and
// cached — lies inside the wire codec's canonical subset, so its parse
// never hands off to encoding/json. A codec that always handed off would
// fail here.
func TestQueryWireNoHandOff(t *testing.T) {
	log := &exchangeLog{}
	nodes := make([]*testNode, 3)
	members := make([]cluster.Node, len(nodes))
	for i := range nodes {
		nodes[i] = &testNode{id: fmt.Sprintf("n%d", i+1), dir: t.TempDir()}
		nodes[i].wrap = func(h http.Handler) http.Handler { return log.wrap("gateway or client", "node", h) }
		nodes[i].start(t)
		members[i] = cluster.Node{ID: nodes[i].id, URL: nodes[i].url()}
	}
	gw, err := cluster.New(cluster.Options{
		Nodes: members, Replication: 3, Token: testToken,
		ProbeInterval: 25 * time.Millisecond, ReconcileInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(log.wrap("client", "gateway", gw))
	t.Cleanup(func() {
		ts.Close()
		gw.Close()
		for _, nd := range nodes {
			nd.kill()
		}
	})

	ctx := context.Background()
	gwc := client.New(ts.URL)
	csv, tab, qs := censusCSVQs(t, 800, 43, 3, 12)
	rel, err := gwc.CreateRelease(ctx, client.CreateSpec{Method: anon.MethodBUREL, Params: anon.NewBURELParams(anon.BURELSeed(2)), QI: 3, CSV: csv})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gwc.WaitReady(ctx, rel.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	waitCondition(t, 15*time.Second, "release replicated to all nodes", func() bool {
		return readyOn(nodes, rel.ID) == len(nodes)
	})

	for i, agg := range []string{"", "count", "sum", "avg", "min", "max"} {
		qs[i].Agg = agg
	}
	qs = append(qs,
		api.Query{Dims: []int{1}, Lo: []float64{0}, Hi: []float64{0}, SALo: 0, SAHi: len(tab.Schema.SA.Values) - 1, Agg: "sum", GroupBy: []int{0}, GroupBuckets: []int{4}},
		api.Query{SALo: 0, SAHi: 3, GroupBy: []int{1, 2}},
	)
	for _, c := range []*client.Client{gwc, client.New(nodes[0].url())} {
		for pass := 0; pass < 2; pass++ { // cold, then cached
			if _, err := c.QueryBatch(ctx, rel.ID, qs); err != nil {
				t.Fatal(err)
			}
			for _, q := range []api.Query{qs[0], qs[2], qs[len(qs)-2]} {
				if _, err := c.QueryDetailed(ctx, rel.ID, q); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	log.mu.Lock()
	defer log.mu.Unlock()
	seen := make(map[string]int)
	for _, m := range log.msgs {
		if m.status != 0 && m.status != http.StatusOK {
			t.Fatalf("%s answered %s with %d: %s", m.origin, m.path, m.status, m.body)
		}
		batch := m.path == "/v1/query:batch"
		var ok bool
		switch {
		case m.status == 0 && batch:
			ok = api.ParseBatchQueryRequest(m.body, new(api.BatchQueryRequest))
		case m.status == 0:
			ok = api.ParseQuery(m.body, new(api.Query))
		case batch:
			ok = api.ParseBatchQueryResponse(m.body, new(api.BatchQueryResponse))
		default:
			ok = api.ParseQueryResponse(m.body, new(api.QueryResponse))
		}
		if !ok {
			t.Errorf("%s's %s message hands off to encoding/json: %s", m.origin, m.path, m.body)
		}
		seen[fmt.Sprintf("%s %v %v", m.origin, batch, m.status == 0)]++
	}
	// Every emitter and message kind was exercised.
	for _, kind := range []string{
		"client true true", "client false true", "gateway true false", "gateway false false",
		"gateway or client true true", "gateway or client false true", "node true false", "node false false",
	} {
		if seen[kind] == 0 {
			t.Errorf("no %q message recorded (saw %v)", kind, seen)
		}
	}
}
