// Package edge holds the HTTP helpers a node (internal/server) and the
// gateway (internal/cluster) share, so both read request bodies and write
// answers and error envelopes by one policy:
//
//   - WriteJSON encodes before it writes anything, so a value
//     encoding/json refuses becomes a 500 envelope, not an empty 200.
//   - WriteErr writes the api.Envelope every route answers failures
//     with, mirroring the request ID into details.request_id.
//   - DecodeBody and WriteEncoded are the query routes' edges: the whole
//     body is read under the route's cap, parsed by the query wire codec
//     when canonical, and answered through the codec's encoders.
package edge

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/obs"
	"repro/pkg/api"
)

// ErrorCoder is implemented by a response recorder that keeps the api
// error code of the response (for the retained trace); WriteErr tells it.
type ErrorCoder interface{ SetErrorCode(code string) }

// WriteErr emits the structured error envelope every route shares. The
// request ID the instrument middleware staged as a response header is
// mirrored into details so error reports are grep-able against server
// logs without the caller having captured the header.
func WriteErr(w http.ResponseWriter, status int, code string, err error, details map[string]any) {
	if rec, ok := w.(ErrorCoder); ok {
		rec.SetErrorCode(code)
	}
	if id := w.Header().Get(obs.HeaderRequestID); id != "" {
		if details == nil {
			details = make(map[string]any, 1)
		}
		if _, ok := details["request_id"]; !ok {
			details["request_id"] = id
		}
	}
	// Should details hold a value encoding/json refuses, WriteJSON comes
	// back here once with details reduced to the request ID, which always
	// encodes.
	WriteJSON(w, status, api.Envelope{Error: api.Error{Code: code, Message: err.Error(), Details: details}})
}

// WriteJSON encodes v before writing anything, so a value encoding/json
// refuses becomes a 500 envelope rather than an empty 200.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		WriteErr(w, http.StatusInternalServerError, api.CodeInternal, fmt.Errorf("encoding response: %w", err), nil)
		return
	}
	writeBody(w, code, buf.Bytes())
}

func writeBody(w http.ResponseWriter, code int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(data)
}

// DecodeStatus maps a body-reading failure to its status code: 413 when
// the body tripped MaxBytesReader, 400 otherwise.
func DecodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// DecodeCode is DecodeStatus's error-code twin.
func DecodeCode(err error) string {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return api.CodeTooLarge
	}
	return api.CodeInvalidRequest
}

// preGrow caps how much of a declared Content-Length is allocated before
// the bytes arrive: a client that declares a large body and stalls pins
// no more than this. Query bodies are a few KiB.
const preGrow = 64 << 10

// DecodeBody reads a query route's whole body under limit and decodes it
// into v: through the query wire codec's parse when the body is
// canonical, else through encoding/json's Decoder on the same bytes,
// which — as it always has — decodes the first JSON value and ignores
// what follows. A body over the limit is a 413 even when its first value
// ends inside it. On failure the error response is written and false
// returned.
func DecodeBody[T any](w http.ResponseWriter, r *http.Request, limit int64, v *T, parse func([]byte, *T) bool) bool {
	var body bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= limit {
		body.Grow(int(min(n, preGrow)) + bytes.MinRead) // room for the read that sees EOF
	}
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	if err == nil && !parse(body.Bytes(), v) {
		err = json.NewDecoder(&body).Decode(v)
	}
	if err != nil {
		WriteErr(w, DecodeStatus(err), DecodeCode(err), fmt.Errorf("decoding request: %w", err), nil)
		return false
	}
	return true
}

// WriteEncoded writes a query route's 200 answer through the query wire
// codec's appendJSON, whose bytes equal WriteJSON's.
func WriteEncoded[T any](w http.ResponseWriter, v *T, appendJSON func([]byte, *T) ([]byte, error)) {
	data, err := appendJSON(nil, v)
	if err != nil {
		WriteErr(w, http.StatusInternalServerError, api.CodeInternal, fmt.Errorf("encoding response: %w", err), nil)
		return
	}
	writeBody(w, http.StatusOK, data)
}
