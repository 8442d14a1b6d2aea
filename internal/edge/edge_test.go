package edge

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/pkg/api"
)

// TestWriteEncodeFailure: a response value encoding/json refuses (a NaN)
// becomes a 500 internal envelope carrying the request ID — never an
// empty 200 — on both response writers, while an encodable value is
// written with exactly encoding/json's bytes.
func TestWriteEncodeFailure(t *testing.T) {
	for name, write := range map[string]func(http.ResponseWriter){
		"WriteJSON": func(w http.ResponseWriter) { WriteJSON(w, http.StatusOK, map[string]any{"x": math.NaN()}) },
		"WriteEncoded": func(w http.ResponseWriter) {
			WriteEncoded(w, &api.BatchQueryResponse{Results: []api.QueryResult{{Estimate: math.NaN()}}}, api.AppendBatchQueryResponse)
		},
	} {
		rec := httptest.NewRecorder()
		rec.Header().Set(obs.HeaderRequestID, "rid-1")
		write(rec)
		var env api.Envelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s: %v: %q", name, err, rec.Body.Bytes())
		}
		if rec.Code != http.StatusInternalServerError || env.Error.Code != api.CodeInternal ||
			!strings.Contains(env.Error.Message, "unsupported value: NaN") || env.Error.Details["request_id"] != "rid-1" {
			t.Errorf("%s: %d %+v", name, rec.Code, env)
		}
	}

	v := api.BatchQueryResponse{
		ReleaseID: "r-<&>", CacheHits: 1, RequestID: "id",
		Results: []api.QueryResult{{Estimate: 1e-7, Cached: true}, {Groups: []api.GroupResult{{Lo: []float64{0}, Hi: []float64{1}, Estimate: -0.5}}}},
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	for name, write := range map[string]func(http.ResponseWriter){
		"WriteJSON":    func(w http.ResponseWriter) { WriteJSON(w, http.StatusOK, v) },
		"WriteEncoded": func(w http.ResponseWriter) { WriteEncoded(w, &v, api.AppendBatchQueryResponse) },
	} {
		rec := httptest.NewRecorder()
		write(rec)
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Errorf("%s: %d %q\n got %q\nwant %q", name, rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes(), want.Bytes())
		}
	}
}

// TestDecodeBodyBoundsPreGrow: a declared Content-Length is not
// allocated up front beyond preGrow, so a client that declares the
// route's cap and then sends a few bytes (or stalls) pins little heap.
func TestDecodeBodyBoundsPreGrow(t *testing.T) {
	const limit = 8 << 20
	body := `{"release_id":"r-000001","queries":[{"sa_lo":0,"sa_hi":3}]}`
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := httptest.NewRequest(http.MethodPost, "/v1/query:batch", strings.NewReader(body))
	r.ContentLength = limit
	var req api.BatchQueryRequest
	if !DecodeBody(httptest.NewRecorder(), r, limit, &req, api.ParseBatchQueryRequest) {
		t.Fatal("DecodeBody refused a canonical body")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*preGrow {
		t.Errorf("decoding a %d-byte body declared as %d bytes allocated %d bytes", len(body), limit, got)
	}
	if req.ReleaseID != "r-000001" || len(req.Queries) != 1 || req.Queries[0].SAHi != 3 {
		t.Errorf("decoded %+v", req)
	}
}
