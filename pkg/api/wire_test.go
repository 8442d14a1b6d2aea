package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// jsonEncode is the encoding/json call the response encoders replace.
func jsonEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// checkEncoders requires every encoder's output for the values to be
// byte-equal to the encoding/json call it replaces — or, where
// encoding/json fails, the same error.
func checkEncoders(t *testing.T, q *Query, req *BatchQueryRequest, qr *QueryResponse, br *BatchQueryResponse) {
	t.Helper()
	prefix := []byte("prefix")
	check := func(name string, got []byte, gotErr error, want []byte, wantErr error) {
		t.Helper()
		if (gotErr != nil) != (wantErr != nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s: error %v, encoding/json %v", name, gotErr, wantErr)
		}
		if wantErr != nil {
			want = nil
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("%s:\n got %q\nwant %q", name, got, want)
		}
	}
	got, err := AppendQuery(bytes.Clone(prefix), q)
	want, wantErr := json.Marshal(q)
	check("AppendQuery", got, err, want, wantErr)
	got, err = AppendBatchQueryRequest(bytes.Clone(prefix), req)
	want, wantErr = json.Marshal(req)
	check("AppendBatchQueryRequest", got, err, want, wantErr)
	got, err = AppendQueryResponse(bytes.Clone(prefix), qr)
	want, wantErr = jsonEncode(qr)
	check("AppendQueryResponse", got, err, want, wantErr)
	got, err = AppendBatchQueryResponse(bytes.Clone(prefix), br)
	want, wantErr = jsonEncode(br)
	check("AppendBatchQueryResponse", got, err, want, wantErr)
}

// checkParse holds one parser to its contract on arbitrary bytes: it
// either hands off, leaving its destination untouched, or decodes
// exactly what json.Unmarshal decodes — and json.Unmarshal succeeds.
// It reports whether the parser accepted.
func checkParse[T any](t *testing.T, name string, data []byte, parse func([]byte, *T) bool) bool {
	t.Helper()
	var got, zero T
	if !parse(data, &got) {
		if !reflect.DeepEqual(got, zero) {
			t.Fatalf("%s handed off %q but wrote %+v", name, data, got)
		}
		return false
	}
	var want T
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s accepted %q, which encoding/json rejects: %v", name, data, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s(%q):\n got %#v\nwant %#v", name, data, got, want)
	}
	return true
}

func checkParsers(t *testing.T, data []byte) {
	t.Helper()
	checkParse(t, "ParseQuery", data, ParseQuery)
	checkParse(t, "ParseBatchQueryRequest", data, ParseBatchQueryRequest)
	checkParse(t, "ParseQueryResponse", data, ParseQueryResponse)
	checkParse(t, "ParseBatchQueryResponse", data, ParseBatchQueryResponse)
}

// source builds wire values from fuzz bytes; an exhausted source yields
// zeros.
type source struct {
	b []byte
	// plain stays true while every string is printable ASCII free of
	// quote, backslash and HTML characters, every float is finite, every
	// int is below 10¹⁸ in magnitude and no slice encodes as null: values
	// the encoders must emit inside the parsers' canonical subset.
	plain bool
}

func (s *source) u8() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *source) u64() uint64 {
	var buf [8]byte
	n := copy(buf[:], s.b)
	s.b = s.b[n:]
	return binary.LittleEndian.Uint64(buf[:])
}

// interestingFloats are encoding/json's formatting boundaries and the
// IEEE special cases.
var interestingFloats = []float64{
	0, math.Copysign(0, -1), 1, -1.5, 1e-7, 1e-6, 9.999999e-7, 1e21, 9.999999999999999e20, 1e20,
	5e-324, 2.2250738585072014e-308, 1e-310, math.MaxFloat64, -math.MaxFloat64, 1e-9, 1.5e-300,
	123456789.125, 0.1, 1e100, math.NaN(), math.Inf(1), math.Inf(-1),
}

func (s *source) float() float64 {
	var f float64
	switch c := s.u8(); {
	case c < 128:
		f = interestingFloats[int(c)%len(interestingFloats)]
	case c < 192:
		f = float64(int8(s.u8())) / 4
	default:
		f = math.Float64frombits(s.u64())
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		s.plain = false
	}
	return f
}

func (s *source) int() int {
	var x int
	switch c := s.u8(); {
	case c < 200:
		x = int(int8(c))
	default:
		x = int(int64(s.u64()))
	}
	if x <= -1e18 || x >= 1e18 {
		s.plain = false
	}
	return x
}

var interestingStrings = []string{
	"", "n1-r-000001", "<a&b>", "\u2028\u2029", "\xff\xfe", `q"uo\te`, "\x00\x1f\x7f", "é", "\t\n\r\b\f", "sum",
}

func (s *source) str() string {
	c := s.u8()
	var str string
	if c < 128 {
		str = interestingStrings[int(c)%len(interestingStrings)]
	} else {
		n := min(int(c-128), len(s.b))
		str = string(s.b[:n])
		s.b = s.b[n:]
	}
	for i := 0; i < len(str); i++ {
		if c := str[i]; c < 0x20 || c >= 0x7f || strings.IndexByte(`"\<>&`, c) >= 0 {
			s.plain = false
		}
	}
	return str
}

// n is a small length; 0 picks between nil and empty for the caller.
func (s *source) n() int { return int(s.u8() % 5) }

func (s *source) floats() []float64 {
	n := s.n()
	if n == 0 {
		if s.u8()%2 == 0 {
			return nil
		}
		return []float64{}
	}
	xs := make([]float64, n-1)
	for i := range xs {
		xs[i] = s.float()
	}
	return xs
}

func (s *source) ints() []int {
	n := s.n()
	if n == 0 {
		if s.u8()%2 == 0 {
			return nil
		}
		return []int{}
	}
	xs := make([]int, n-1)
	for i := range xs {
		xs[i] = s.int()
	}
	return xs
}

func (s *source) query() Query {
	return Query{
		Dims: s.ints(), Lo: s.floats(), Hi: s.floats(), SALo: s.int(), SAHi: s.int(),
		Agg: s.str(), GroupBy: s.ints(), GroupBuckets: s.ints(),
	}
}

func (s *source) groups() []GroupResult {
	n := s.n()
	if n == 0 {
		if s.u8()%2 == 0 {
			return nil
		}
		return []GroupResult{}
	}
	gs := make([]GroupResult, n-1)
	for i := range gs {
		gs[i] = GroupResult{Lo: s.floats(), Hi: s.floats(), Estimate: s.float()}
		if gs[i].Lo == nil || gs[i].Hi == nil {
			s.plain = false // encodes as null
		}
	}
	return gs
}

func (s *source) values() (Query, BatchQueryRequest, QueryResponse, BatchQueryResponse) {
	q := s.query()
	req := BatchQueryRequest{ReleaseID: s.str()}
	if n := s.n(); n > 0 || s.u8()%2 == 1 {
		req.Queries = make([]Query, max(n-1, 0))
		for i := range req.Queries {
			req.Queries[i] = s.query()
		}
	}
	qr := QueryResponse{ReleaseID: s.str(), Estimate: s.float(), Cached: s.u8()%2 == 1, Groups: s.groups(), RequestID: s.str()}
	br := BatchQueryResponse{ReleaseID: s.str(), CacheHits: s.int(), RequestID: s.str()}
	if n := s.n(); n > 0 || s.u8()%2 == 1 {
		br.Results = make([]QueryResult, max(n-1, 0))
		for i := range br.Results {
			br.Results[i] = QueryResult{Estimate: s.float(), Cached: s.u8()%2 == 1, Groups: s.groups()}
		}
	}
	if req.Queries == nil || br.Results == nil {
		s.plain = false // encodes as null
	}
	return q, req, qr, br
}

// mustParse requires a parser to accept data — an encoder's output for
// plain values — and to agree with json.Unmarshal.
func mustParse[T any](t *testing.T, name string, data []byte, parse func([]byte, *T) bool) {
	t.Helper()
	if !checkParse(t, name, data, parse) {
		t.Fatalf("%s handed off the encoder's own output %q", name, data)
	}
}

// FuzzQueryWire is the codec's differential pin against encoding/json:
// (a) every encoder's bytes equal the encoding/json call it replaces, for
// values built from the fuzz input; (b) on the raw input bytes, every
// parser hands off or agrees with json.Unmarshal, which must accept
// them; and (c) what the encoders emit for plain values parses without
// handing off.
func FuzzQueryWire(f *testing.F) {
	for _, seed := range []string{
		`{"release_id":"r-000001","queries":[{"dims":[0,2],"lo":[30,1.5],"hi":[45,2e-7],"sa_lo":0,"sa_hi":3,"agg":"sum"}]}`,
		`{"dims":[1],"lo":[0],"hi":[1],"sa_lo":0,"sa_hi":5,"group_by":[0],"group_buckets":[4]}`,
		`{"release_id":"n1-r-000002","results":[{"estimate":12.5,"cached":true},{"estimate":0,"groups":[{"lo":[0],"hi":[10],"estimate":-3}]}],"cache_hits":1,"request_id":"abc"}` + "\n",
		`{"release_id":"r","estimate":1e21,"groups":[],"request_id":"x"}`,
		` { "sa_hi" : -0 , "sa_lo" : 0 } `,
		`{"queries":null}`, `{"lo":[]}`, `{"Lo":[1]}`, `{"sa_lo":1,"sa_lo":2}`, `{"sa_lo":1.0}`, `{"sa_lo":01}`,
		`{"release_id":"a\u00e9"}`, `{"estimate":1e400}`, `{"cached":tru}`, `{} x`, `[]`, `null`, ``,
		"\x00\x80\xff\x7f\x01\x02\x03\x04\x05\x06\x07\x08",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParsers(t, data)

		src := &source{b: data, plain: true}
		q, req, qr, br := src.values()
		checkEncoders(t, &q, &req, &qr, &br)
		if !src.plain {
			return
		}
		enc, _ := AppendQuery(nil, &q)
		mustParse(t, "ParseQuery", enc, ParseQuery)
		enc, _ = AppendBatchQueryRequest(nil, &req)
		mustParse(t, "ParseBatchQueryRequest", enc, ParseBatchQueryRequest)
		enc, _ = AppendQueryResponse(nil, &qr)
		mustParse(t, "ParseQueryResponse", enc, ParseQueryResponse)
		enc, _ = AppendBatchQueryResponse(nil, &br)
		mustParse(t, "ParseBatchQueryResponse", enc, ParseBatchQueryResponse)
	})
}

// TestQueryWireBoundaries runs the encoders over every interesting float
// and string, each alone, and the parsers over their encodings.
func TestQueryWireBoundaries(t *testing.T) {
	for _, f := range interestingFloats {
		for _, s := range interestingStrings {
			q := Query{Dims: []int{0}, Lo: []float64{f}, Hi: []float64{f, -f}, Agg: s}
			req := BatchQueryRequest{ReleaseID: s, Queries: []Query{q, {}}}
			qr := QueryResponse{ReleaseID: s, Estimate: f, Groups: []GroupResult{{Lo: []float64{f}, Hi: nil, Estimate: f}}, RequestID: s}
			br := BatchQueryResponse{ReleaseID: s, Results: []QueryResult{{Estimate: f, Cached: true}, {Groups: []GroupResult{{Lo: []float64{}, Hi: []float64{f}}}}}, RequestID: s}
			checkEncoders(t, &q, &req, &qr, &br)
			for _, enc := range [][]byte{must(AppendQuery(nil, &q)), must(AppendBatchQueryRequest(nil, &req)),
				must(AppendQueryResponse(nil, &qr)), must(AppendBatchQueryResponse(nil, &br))} {
				checkParsers(t, enc)
			}
		}
	}
	// nil versus empty: omitempty drops both, a nil results/queries
	// slice is null, an empty one [].
	checkEncoders(t, &Query{Dims: []int{}, GroupBy: []int{}}, &BatchQueryRequest{Queries: []Query{}}, &QueryResponse{Groups: []GroupResult{}}, &BatchQueryResponse{Results: []QueryResult{}})
	checkEncoders(t, &Query{}, &BatchQueryRequest{}, &QueryResponse{}, &BatchQueryResponse{})
}

func must(b []byte, _ error) []byte { return b }

// adjacent reports that b starts where a ends in memory.
func adjacent[T any](a, b []T) bool {
	var zero T
	end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(a)), uintptr(len(a))*unsafe.Sizeof(zero))
	return end == unsafe.Pointer(unsafe.SliceData(b))
}

// TestParseArenaCarved: decoded slices share one backing array per
// element type, each with its capacity capped so an append cannot
// overwrite its neighbour.
func TestParseArenaCarved(t *testing.T) {
	var r BatchQueryRequest
	data := []byte(`{"release_id":"r","queries":[{"dims":[0,1],"lo":[1,2],"hi":[3,4],"sa_lo":0,"sa_hi":1},{"dims":[2],"lo":[5],"hi":[6],"sa_lo":0,"sa_hi":1,"group_by":[0]}]}`)
	if !ParseBatchQueryRequest(data, &r) {
		t.Fatal("canonical request handed off")
	}
	q0, q1 := r.Queries[0], r.Queries[1]
	for _, xs := range [][]float64{q0.Lo, q0.Hi, q1.Lo, q1.Hi} {
		if cap(xs) != len(xs) {
			t.Fatalf("capacity %d not capped at %d", cap(xs), len(xs))
		}
	}
	if !adjacent(q0.Lo, q0.Hi) || !adjacent(q0.Hi, q1.Lo) || !adjacent(q1.Lo, q1.Hi) || !adjacent(q0.Dims, q1.Dims) {
		t.Fatal("slices not carved back to back from one array per element type")
	}

	var br BatchQueryResponse
	data = []byte(`{"release_id":"r","results":[{"estimate":1,"groups":[{"lo":[0],"hi":[1],"estimate":2},{"lo":[1],"hi":[2],"estimate":3}]},{"estimate":0,"groups":[{"lo":[2],"hi":[3],"estimate":4}]}],"cache_hits":0}`)
	if !ParseBatchQueryResponse(data, &br) {
		t.Fatal("canonical response handed off")
	}
	g0, g1 := br.Results[0].Groups, br.Results[1].Groups
	if cap(g0) != len(g0) || !adjacent(g0, g1) || !adjacent(g0[1].Hi, g1[0].Lo) {
		t.Fatal("group cells not carved from one array")
	}
}

// TestParseConcurrent: parsers on many goroutines share the scratch
// pool without seeing each other's messages.
func TestParseConcurrent(t *testing.T) {
	msgs := make([][]byte, 16)
	for i := range msgs {
		br := BatchQueryResponse{ReleaseID: "r", CacheHits: i}
		for j := 0; j <= i; j++ {
			br.Results = append(br.Results, QueryResult{Estimate: float64(i*100 + j), Groups: []GroupResult{{Lo: []float64{float64(j)}, Hi: []float64{float64(i)}, Estimate: 1}}})
		}
		msgs[i] = must(AppendBatchQueryResponse(nil, &br))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				data := msgs[(w+k)%len(msgs)]
				var got, want BatchQueryResponse
				if !ParseBatchQueryResponse(data, &got) {
					t.Errorf("handed off %q", data)
					return
				}
				_ = json.Unmarshal(data, &want)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("got %+v, want %+v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
