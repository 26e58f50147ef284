// Error answers. Every failure either tier meets — a bad body, a tier
// limit, a tenant quota, a full admission queue, a deadline, a client that
// went away, a panicking run, a relayed backend answer, a drain or a shed —
// reaches the client through Fail, so the same failure answers the same
// status, headers and body on mmxd and on mmxfleet.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"mmxdsp/internal/asm"
)

// StatusClientClosedRequest is the nginx-convention status for "client
// went away before the response": the body is never seen, but the code
// keeps access logs and tests honest about why the run ended.
const StatusClientClosedRequest = 499

// StatusError is a failure whose HTTP answer is already decided: a status,
// headers to set, and either the bytes of a relayed answer (Body) or an
// error rendered as the uniform JSON error body.
type StatusError struct {
	Status int
	Header http.Header
	Body   []byte // relayed verbatim when set
	Err    error
}

func (e *StatusError) Error() string {
	if e.Err != nil {
		return e.Err.Error()
	}
	var body errorResponse
	if json.Unmarshal(e.Body, &body) != nil || body.Error == "" {
		body.Error = fmt.Sprintf("%d bytes", len(e.Body))
	}
	return fmt.Sprintf("upstream status %d: %s", e.Status, body.Error)
}

func (e *StatusError) Unwrap() error { return e.Err }

// BadRequest marks a body-read or parse error: the client must change the
// request. It answers 413 for an oversized body or listing, 400 otherwise.
func BadRequest(err error) error { return requestError{err} }

type requestError struct{ error }

func (e requestError) Unwrap() error { return e.error }

// RequestErrorStatus is the status a body-read or parse error answers.
func RequestErrorStatus(err error) int {
	status, _ := answer(context.Background(), BadRequest(err))
	return status
}

// Unavailable answers 503 + Retry-After: the tier cannot take the request
// right now (it is draining, or no backend could be reached).
func Unavailable(err error) error {
	return &StatusError{Status: http.StatusServiceUnavailable, Header: retryAfter("1"), Err: err}
}

func retryAfter(secs string) http.Header { return http.Header{"Retry-After": {secs}} }

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

// asmErrorResponse is the /asm error body: the uniform error string plus
// 1-based source coordinates when the failure is a parse error.
type asmErrorResponse struct {
	Error string `json:"error"`
	Line  int    `json:"line,omitempty"`
	Col   int    `json:"col,omitempty"`
}

// Fail answers a failed request and counts it. ctx is the request's
// context, deadline included, so a run that failed because that context
// fired answers 504 or 499 rather than 500.
func (p *Pipeline) Fail(w http.ResponseWriter, ctx context.Context, err error) {
	status, header := answer(ctx, err)
	var qe *QuotaError
	switch {
	case status == http.StatusServiceUnavailable:
		p.counts.shed.Add(1)
	case status == http.StatusGatewayTimeout || status == StatusClientClosedRequest:
		p.counts.canceled.Add(1)
	case status == http.StatusInternalServerError:
		p.counts.failed.Add(1)
	case errors.As(err, &qe):
		p.counts.tenantShed.Add(1)
	}
	for k, v := range header {
		w.Header()[k] = v
	}
	if se, ok := err.(*StatusError); ok && se.Body != nil {
		w.WriteHeader(status)
		_, _ = w.Write(se.Body)
		return
	}
	var src *asm.SourceError
	if errors.As(err, &src) {
		WriteJSON(w, status, asmErrorResponse{Error: src.Error(), Line: src.Line, Col: src.Col})
		return
	}
	WriteJSON(w, status, errorResponse{Error: err.Error()})
}

// answer maps any failure to its HTTP status and headers: the one place
// either tier does.
func answer(ctx context.Context, err error) (int, http.Header) {
	var se *StatusError
	var re requestError
	var src *asm.SourceError
	var qe *QuotaError
	switch {
	case errors.As(err, &se):
		return se.Status, se.Header
	case errors.Is(err, ErrBodyTooLarge) || errors.Is(err, ErrSourceTooLarge):
		return http.StatusRequestEntityTooLarge, nil
	case errors.As(err, &re) || errors.As(err, &src):
		return http.StatusBadRequest, nil
	case errors.As(err, &qe):
		return http.StatusTooManyRequests, retryAfter(retryAfterSeconds(qe.RetryAfter))
	case errors.Is(err, errQueueFull):
		return http.StatusTooManyRequests, retryAfter("1")
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded):
		// The deadline fired, possibly after the run surfaced a different
		// error first (e.g. a budget fault racing it).
		return http.StatusGatewayTimeout, nil
	case errors.Is(err, context.Canceled) || ctx.Err() != nil:
		return StatusClientClosedRequest, nil
	default:
		return http.StatusInternalServerError, nil
	}
}

// WriteJSON writes v as an indented JSON answer with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client is gone if this fails; nothing to do
}
