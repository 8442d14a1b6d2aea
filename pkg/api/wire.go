package api

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The query wire codec: reflection-free JSON for the query path's
// messages (BatchQueryRequest, Query, BatchQueryResponse,
// QueryResponse).
//
// Each Append* function writes exactly the bytes of the encoding/json
// call it stands in for, so swapping one for the other never changes the
// wire: requests encode as json.Marshal does (HTML characters escaped),
// responses as a json.Encoder with SetEscapeHTML(false) does (trailing
// newline included). Strings that need escaping are quoted by
// encoding/json itself, and a value it cannot encode — a NaN or infinite
// float — is handed to it whole, and its error returned.
//
// Each Parse* function decodes the canonical subset of JSON: one object,
// keys in any order, each key at most once and spelled exactly as the
// struct tag, no unknown keys, no null, ASCII strings without escapes,
// and nothing but whitespace after the object. It returns false, leaving
// its destination untouched, for anything outside that subset; the
// caller then decodes the same bytes with encoding/json, which keeps
// what is accepted, case-insensitive keys and error messages exactly as
// they are. When it returns true, the value equals (reflect.DeepEqual)
// what json.Unmarshal makes of the bytes. Decoded slices are carved,
// with capped capacity, from one backing array per element type per
// message.

// AppendQuery appends the json.Marshal encoding of q to dst.
func AppendQuery(dst []byte, q *Query) ([]byte, error) {
	e := encoder{b: dst, html: true}
	e.query(q)
	return e.finish(dst, q)
}

// AppendBatchQueryRequest appends the json.Marshal encoding of r to dst.
func AppendBatchQueryRequest(dst []byte, r *BatchQueryRequest) ([]byte, error) {
	e := encoder{b: dst, html: true}
	e.str(`{"release_id":`, r.ReleaseID)
	e.b = append(e.b, `,"queries":`...)
	if r.Queries == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i := range r.Queries {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.query(&r.Queries[i])
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, '}')
	return e.finish(dst, r)
}

// AppendQueryResponse appends the encoding a json.Encoder with
// SetEscapeHTML(false) writes for r — newline included — to dst.
func AppendQueryResponse(dst []byte, r *QueryResponse) ([]byte, error) {
	e := encoder{b: dst}
	e.str(`{"release_id":`, r.ReleaseID)
	e.float(`,"estimate":`, r.Estimate)
	if r.Cached {
		e.b = append(e.b, `,"cached":true`...)
	}
	e.groups(r.Groups)
	if r.RequestID != "" {
		e.str(`,"request_id":`, r.RequestID)
	}
	e.b = append(e.b, "}\n"...)
	return e.finish(dst, r)
}

// AppendBatchQueryResponse appends the encoding a json.Encoder with
// SetEscapeHTML(false) writes for r — newline included — to dst.
func AppendBatchQueryResponse(dst []byte, r *BatchQueryResponse) ([]byte, error) {
	e := encoder{b: dst}
	e.str(`{"release_id":`, r.ReleaseID)
	e.b = append(e.b, `,"results":`...)
	if r.Results == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i := range r.Results {
			res := &r.Results[i]
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.float(`{"estimate":`, res.Estimate)
			if res.Cached {
				e.b = append(e.b, `,"cached":true`...)
			}
			e.groups(res.Groups)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, `,"cache_hits":`...)
	e.b = strconv.AppendInt(e.b, int64(r.CacheHits), 10)
	if r.RequestID != "" {
		e.str(`,"request_id":`, r.RequestID)
	}
	e.b = append(e.b, "}\n"...)
	return e.finish(dst, r)
}

// encoder appends one message. html selects json.Marshal's string
// escaping (requests) over the HTML-unescaped Encoder's (responses).
type encoder struct {
	b    []byte
	html bool
	// bad records a float encoding/json refuses; finish hands off.
	bad bool
}

// finish returns the appended bytes, or — when the value held a
// non-finite float — dst with encoding/json's error for v.
func (e *encoder) finish(dst []byte, v any) ([]byte, error) {
	if !e.bad {
		return e.b, nil
	}
	out, err := viaJSON(v, e.html)
	if err != nil {
		return dst, err
	}
	if !e.html {
		out = append(out, '\n') // an answer, as a json.Encoder writes it
	}
	return append(dst, out...), nil
}

func (e *encoder) query(q *Query) {
	e.b = append(e.b, '{')
	if len(q.Dims) > 0 {
		e.ints(`"dims":`, q.Dims)
		e.b = append(e.b, ',')
	}
	if len(q.Lo) > 0 {
		e.floats(`"lo":`, q.Lo)
		e.b = append(e.b, ',')
	}
	if len(q.Hi) > 0 {
		e.floats(`"hi":`, q.Hi)
		e.b = append(e.b, ',')
	}
	e.b = append(e.b, `"sa_lo":`...)
	e.b = strconv.AppendInt(e.b, int64(q.SALo), 10)
	e.b = append(e.b, `,"sa_hi":`...)
	e.b = strconv.AppendInt(e.b, int64(q.SAHi), 10)
	if q.Agg != "" {
		e.str(`,"agg":`, q.Agg)
	}
	if len(q.GroupBy) > 0 {
		e.ints(`,"group_by":`, q.GroupBy)
	}
	if len(q.GroupBuckets) > 0 {
		e.ints(`,"group_buckets":`, q.GroupBuckets)
	}
	e.b = append(e.b, '}')
}

// groups writes an omitempty "groups" field.
func (e *encoder) groups(gs []GroupResult) {
	if len(gs) == 0 {
		return
	}
	e.b = append(e.b, `,"groups":[`...)
	for i := range gs {
		g := &gs[i]
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.floats(`{"lo":`, g.Lo)
		e.floats(`,"hi":`, g.Hi)
		e.float(`,"estimate":`, g.Estimate)
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, ']')
}

func (e *encoder) ints(key string, xs []int) {
	e.b = append(e.b, key...)
	e.b = append(e.b, '[')
	for i, x := range xs {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = strconv.AppendInt(e.b, int64(x), 10)
	}
	e.b = append(e.b, ']')
}

// floats writes a float array; nil is null, as encoding/json writes a
// nil slice.
func (e *encoder) floats(key string, xs []float64) {
	e.b = append(e.b, key...)
	if xs == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i, x := range xs {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.float("", x)
	}
	e.b = append(e.b, ']')
}

// float formats f as encoding/json's float encoder does: shortest
// round-trip digits, 'e' notation below 1e-6 and from 1e21, and a
// one-digit negative exponent written without its leading zero.
func (e *encoder) float(key string, f float64) {
	e.b = append(e.b, key...)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.bad = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// str writes key and then s quoted. Strings of printable ASCII that
// need no escaping — release and request IDs, aggregate names — are
// copied; any other is quoted by encoding/json itself, which escapes
// control characters, quote and backslash, HTML characters when e.html,
// and U+2028/U+2029, and replaces invalid UTF-8.
func (e *encoder) str(key, s string) {
	e.b = append(e.b, key...)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || (e.html && (c == '<' || c == '>' || c == '&')) {
			quoted, _ := viaJSON(s, e.html) // a string always encodes
			e.b = append(e.b, quoted...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// viaJSON is encoding/json's encoding of v: json.Marshal's when html,
// else that of a json.Encoder with SetEscapeHTML(false), without the
// Encoder's trailing newline.
func viaJSON(v any, html bool) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(html)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// ParseQuery decodes a canonical Query from data into q; see the codec
// notes above. False means q is untouched and data is for encoding/json.
func ParseQuery(data []byte, q *Query) bool {
	p := newParser(data)
	defer p.release()
	var out Query
	if !p.query(&out) || !p.end() {
		return false
	}
	p.carveQuery(&out)
	*q = out
	return true
}

// ParseBatchQueryRequest decodes a canonical BatchQueryRequest from data
// into r; see the codec notes above. False means r is untouched and data
// is for encoding/json.
func ParseBatchQueryRequest(data []byte, r *BatchQueryRequest) bool {
	p := newParser(data)
	defer p.release()
	var out BatchQueryRequest
	if !p.batchRequest(&out) || !p.end() {
		return false
	}
	if len(out.Queries) > 0 {
		out.Queries = append(make([]Query, 0, len(out.Queries)), out.Queries...)
		for i := range out.Queries {
			p.carveQuery(&out.Queries[i])
		}
	}
	*r = out
	return true
}

// ParseQueryResponse decodes a canonical QueryResponse from data into r;
// see the codec notes above. False means r is untouched and data is for
// encoding/json.
func ParseQueryResponse(data []byte, r *QueryResponse) bool {
	p := newParser(data)
	defer p.release()
	var out QueryResponse
	if !p.queryResponse(&out) || !p.end() {
		return false
	}
	if len(out.Groups) > 0 {
		out.Groups = append(make([]GroupResult, 0, len(out.Groups)), out.Groups...)
		p.carveGroups(out.Groups)
	}
	*r = out
	return true
}

// ParseBatchQueryResponse decodes a canonical BatchQueryResponse from
// data into r; see the codec notes above. False means r is untouched and
// data is for encoding/json.
func ParseBatchQueryResponse(data []byte, r *BatchQueryResponse) bool {
	p := newParser(data)
	defer p.release()
	var out BatchQueryResponse
	if !p.batchResponse(&out) || !p.end() {
		return false
	}
	if len(out.Results) > 0 {
		out.Results = append(make([]QueryResult, 0, len(out.Results)), out.Results...)
		var cells []GroupResult
		for i := range out.Results {
			res := &out.Results[i]
			if len(res.Groups) == 0 {
				continue
			}
			if cells == nil {
				cells = make([]GroupResult, 0, len(p.sc.groups))
			}
			start := len(cells)
			cells = append(cells, res.Groups...)
			res.Groups = cells[start:len(cells):len(cells)]
		}
		p.carveGroups(cells)
	}
	*r = out
	return true
}

// parser walks one message. While it runs, decoded slices point into
// pooled scratch buffers; the carve methods then copy them into one
// exactly sized array per element type before the value is returned.
type parser struct {
	s  []byte
	i  int
	sc *scratch
	// fa and ia are the message's own arrays, filled by carving.
	fa []float64
	ia []int
}

type scratch struct {
	floats  []float64
	ints    []int
	queries []Query
	results []QueryResult
	groups  []GroupResult
}

// maxPooledScratch caps the elements a pooled scratch buffer may keep,
// so one huge message does not pin its buffers for the process's life.
const maxPooledScratch = 1 << 16

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func newParser(data []byte) parser {
	return parser{s: data, sc: scratchPool.Get().(*scratch)}
}

// release returns the scratch buffers to the pool, dropping the slice
// headers they hold so the pool keeps no decoded message alive.
func (p *parser) release() {
	sc := p.sc
	if cap(sc.floats) > maxPooledScratch || cap(sc.ints) > maxPooledScratch ||
		cap(sc.queries) > maxPooledScratch || cap(sc.results) > maxPooledScratch || cap(sc.groups) > maxPooledScratch {
		return
	}
	clear(sc.queries)
	clear(sc.results)
	clear(sc.groups)
	*sc = scratch{floats: sc.floats[:0], ints: sc.ints[:0], queries: sc.queries[:0], results: sc.results[:0], groups: sc.groups[:0]}
	scratchPool.Put(sc)
}

// carveQuery moves q's slices out of scratch into the message's arrays,
// allocated on first use at the size of everything parsed.
func (p *parser) carveQuery(q *Query) {
	q.Dims = carve(&p.ia, len(p.sc.ints), q.Dims)
	q.Lo = carve(&p.fa, len(p.sc.floats), q.Lo)
	q.Hi = carve(&p.fa, len(p.sc.floats), q.Hi)
	q.GroupBy = carve(&p.ia, len(p.sc.ints), q.GroupBy)
	q.GroupBuckets = carve(&p.ia, len(p.sc.ints), q.GroupBuckets)
}

func (p *parser) carveGroups(gs []GroupResult) {
	for i := range gs {
		gs[i].Lo = carve(&p.fa, len(p.sc.floats), gs[i].Lo)
		gs[i].Hi = carve(&p.fa, len(p.sc.floats), gs[i].Hi)
	}
}

// carve copies xs to the end of *arena — made with capacity size on
// first use — and returns the copy with its capacity capped. Empty and
// nil slices are returned as they are.
func carve[T any](arena *[]T, size int, xs []T) []T {
	if len(xs) == 0 {
		return xs
	}
	if *arena == nil {
		*arena = make([]T, 0, size)
	}
	start := len(*arena)
	*arena = append(*arena, xs...)
	return (*arena)[start:len(*arena):len(*arena)]
}

// ws skips JSON whitespace.
func (p *parser) ws() {
	for p.i < len(p.s) {
		switch p.s[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// end reports that only whitespace follows the value.
func (p *parser) end() bool {
	p.ws()
	return p.i == len(p.s)
}

// open consumes the container opener c and reports whether the container
// is empty, consuming its closer cl too in that case.
func (p *parser) open(c, cl byte) (ok, empty bool) {
	p.ws()
	if p.i >= len(p.s) || p.s[p.i] != c {
		return false, false
	}
	p.i++
	p.ws()
	if p.i < len(p.s) && p.s[p.i] == cl {
		p.i++
		return true, true
	}
	return true, false
}

// next consumes the separator after a container element: more is true
// after a comma, false after the closer cl.
func (p *parser) next(cl byte) (more, ok bool) {
	p.ws()
	if p.i >= len(p.s) {
		return false, false
	}
	switch p.s[p.i] {
	case ',':
		p.i++
		return true, true
	case cl:
		p.i++
		return false, true
	}
	return false, false
}

// array consumes a JSON array, appending each element to the scratch
// buffer *buf through elem, and returns the elements. [] is a fresh
// empty slice: encoding/json decodes it as non-nil.
func array[T any](p *parser, buf *[]T, elem func(*T) bool) ([]T, bool) {
	ok, empty := p.open('[', ']')
	if !ok {
		return nil, false
	}
	if empty {
		return make([]T, 0), true
	}
	start := len(*buf)
	for more := true; more; {
		var zero T
		*buf = append(*buf, zero)
		if !elem(&(*buf)[len(*buf)-1]) {
			return nil, false
		}
		if more, ok = p.next(']'); !ok {
			return nil, false
		}
	}
	return (*buf)[start:len(*buf):len(*buf)], true
}

// object consumes a JSON object, handing each key to field, which parses
// the value and returns the key's bit — 0 for a key that is not a field.
// A repeated key fails.
func (p *parser) object(field func(key []byte) (bit uint, ok bool)) bool {
	ok, empty := p.open('{', '}')
	if !ok {
		return false
	}
	var seen uint
	for more := !empty; more; {
		k, ok := p.str()
		if !ok {
			return false
		}
		if p.ws(); p.i >= len(p.s) || p.s[p.i] != ':' {
			return false
		}
		p.i++
		bit, ok := field(k)
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if more, ok = p.next('}'); !ok {
			return false
		}
	}
	return true
}

// str consumes a string of printable ASCII without escapes and returns
// its contents, aliasing the input.
func (p *parser) str() ([]byte, bool) {
	p.ws()
	if p.i >= len(p.s) || p.s[p.i] != '"' {
		return nil, false
	}
	start := p.i + 1
	for j := start; j < len(p.s); j++ {
		switch c := p.s[j]; {
		case c == '"':
			p.i = j + 1
			return p.s[start:j], true
		case c < 0x20 || c == '\\' || c >= utf8.RuneSelf:
			return nil, false
		}
	}
	return nil, false
}

func (p *parser) string() (string, bool) {
	s, ok := p.str()
	return string(s), ok
}

// number consumes a token of the JSON number grammar; integral reports
// one without fraction or exponent.
func (p *parser) number() (tok []byte, integral, ok bool) {
	p.ws()
	s, i := p.s, p.i
	start := i
	if i < len(s) && s[i] == '-' {
		i++
	}
	digits := func() int {
		d := i
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
		return i - d
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case digits() == 0:
		return nil, false, false
	}
	integral = true
	if i < len(s) && s[i] == '.' {
		i++
		if digits() == 0 {
			return nil, false, false
		}
		integral = false
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if digits() == 0 {
			return nil, false, false
		}
		integral = false
	}
	p.i = i
	return s[start:i], integral, true
}

// int consumes an integral number of at most 18 digits — always within
// int64 — that fits an int.
func (p *parser) int() (int, bool) {
	tok, integral, ok := p.number()
	if !ok || !integral {
		return 0, false
	}
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	if len(tok) > 18 {
		return 0, false
	}
	var v int64
	for _, c := range tok {
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	if int64(int(v)) != v {
		return 0, false
	}
	return int(v), true
}

func (p *parser) float() (float64, bool) {
	tok, _, ok := p.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

func (p *parser) bool() (bool, bool) {
	p.ws()
	rest := p.s[p.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		p.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		p.i += 5
		return false, true
	}
	return false, false
}

func (p *parser) floats() ([]float64, bool) {
	return array(p, &p.sc.floats, func(x *float64) (ok bool) {
		*x, ok = p.float()
		return ok
	})
}

func (p *parser) ints() ([]int, bool) {
	return array(p, &p.sc.ints, func(x *int) (ok bool) {
		*x, ok = p.int()
		return ok
	})
}

// agg decodes an aggregate name; the names the API documents come back
// as constants, so decoding them allocates nothing.
func (p *parser) agg() (string, bool) {
	s, ok := p.str()
	for _, name := range [...]string{"count", "sum", "avg", "min", "max"} {
		if string(s) == name {
			return name, ok
		}
	}
	return string(s), ok
}

func (p *parser) query(q *Query) bool {
	return p.object(func(k []byte) (bit uint, ok bool) {
		switch string(k) {
		case "dims":
			q.Dims, ok = p.ints()
			return 1 << 0, ok
		case "lo":
			q.Lo, ok = p.floats()
			return 1 << 1, ok
		case "hi":
			q.Hi, ok = p.floats()
			return 1 << 2, ok
		case "sa_lo":
			q.SALo, ok = p.int()
			return 1 << 3, ok
		case "sa_hi":
			q.SAHi, ok = p.int()
			return 1 << 4, ok
		case "agg":
			q.Agg, ok = p.agg()
			return 1 << 5, ok
		case "group_by":
			q.GroupBy, ok = p.ints()
			return 1 << 6, ok
		case "group_buckets":
			q.GroupBuckets, ok = p.ints()
			return 1 << 7, ok
		}
		return 0, false
	})
}

func (p *parser) batchRequest(r *BatchQueryRequest) bool {
	return p.object(func(k []byte) (bit uint, ok bool) {
		switch string(k) {
		case "release_id":
			r.ReleaseID, ok = p.string()
			return 1 << 0, ok
		case "queries":
			r.Queries, ok = array(p, &p.sc.queries, p.query)
			return 1 << 1, ok
		}
		return 0, false
	})
}

func (p *parser) group(g *GroupResult) bool {
	return p.object(func(k []byte) (bit uint, ok bool) {
		switch string(k) {
		case "lo":
			g.Lo, ok = p.floats()
			return 1 << 0, ok
		case "hi":
			g.Hi, ok = p.floats()
			return 1 << 1, ok
		case "estimate":
			g.Estimate, ok = p.float()
			return 1 << 2, ok
		}
		return 0, false
	})
}

func (p *parser) result(r *QueryResult) bool {
	return p.object(func(k []byte) (bit uint, ok bool) {
		switch string(k) {
		case "estimate":
			r.Estimate, ok = p.float()
			return 1 << 0, ok
		case "cached":
			r.Cached, ok = p.bool()
			return 1 << 1, ok
		case "groups":
			r.Groups, ok = array(p, &p.sc.groups, p.group)
			return 1 << 2, ok
		}
		return 0, false
	})
}

func (p *parser) queryResponse(r *QueryResponse) bool {
	return p.object(func(k []byte) (bit uint, ok bool) {
		switch string(k) {
		case "release_id":
			r.ReleaseID, ok = p.string()
			return 1 << 0, ok
		case "estimate":
			r.Estimate, ok = p.float()
			return 1 << 1, ok
		case "cached":
			r.Cached, ok = p.bool()
			return 1 << 2, ok
		case "groups":
			r.Groups, ok = array(p, &p.sc.groups, p.group)
			return 1 << 3, ok
		case "request_id":
			r.RequestID, ok = p.string()
			return 1 << 4, ok
		}
		return 0, false
	})
}

func (p *parser) batchResponse(r *BatchQueryResponse) bool {
	return p.object(func(k []byte) (bit uint, ok bool) {
		switch string(k) {
		case "release_id":
			r.ReleaseID, ok = p.string()
			return 1 << 0, ok
		case "results":
			r.Results, ok = array(p, &p.sc.results, p.result)
			return 1 << 1, ok
		case "cache_hits":
			r.CacheHits, ok = p.int()
			return 1 << 2, ok
		case "request_id":
			r.RequestID, ok = p.string()
			return 1 << 3, ok
		}
		return 0, false
	})
}
