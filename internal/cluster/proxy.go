// The /run data path. The front door (frontdoor.go) reads the body once
// and parses each distinct body once: a repeat of the same bytes reuses the
// memoized keys (counted in /metrics as body_memo_hits) and goes straight
// to the result cache. A result-cache miss picks the attempt order
// (affinity first, least-loaded on saturation), then attempts with bounded
// jittered retries on connection errors and backend 429s, optionally
// hedging the first attempt. Backend responses are read fully before being
// relayed, so retries and hedges never entangle two response streams, and
// a relayed response is byte-identical to the backend's body — the fleet
// e2e pins served-through-coordinator == direct-daemon.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"mmxdsp/internal/server"
)

// maxBackendResponse bounds a relayed backend body (a full suite table
// response is far below this).
const maxBackendResponse = 64 << 20

// BackendHeader names the response header carrying the URL of the backend
// that served a routed request — observability for tests and fleet logs.
const BackendHeader = "X-Mmx-Backend"

// backendResp is one fully-read backend response.
type backendResp struct {
	status int
	ctype  string
	body   []byte
}

// routedCall is one backend-bound POST: the path, the raw body, and the
// headers the coordinator forwards — correlation ID, tenant identity
// (resolved coordinator-side so backends account the real client, not the
// coordinator's address) and priority.
type routedCall struct {
	path     string
	body     []byte
	id       string
	tenant   string
	priority string
}

// callFor builds the routedCall for an inbound request: the tenant header
// is forwarded when present and pinned to the client IP otherwise, and the
// priority header travels verbatim.
func callFor(w http.ResponseWriter, r *http.Request, path string, body []byte) routedCall {
	return routedCall{
		path:     path,
		body:     body,
		id:       requestID(w),
		tenant:   server.TenantKey(r),
		priority: r.Header.Get(server.PriorityHeader),
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}

// shed answers with 503 + Retry-After: the coordinator-level load-shedding
// response for "no backend can take this right now".
func (c *Coordinator) shed(w http.ResponseWriter, err error) {
	c.metrics.shed.Add(1)
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, err)
}

// parseRunKeys keys a /run body: validated coordinator-side, so malformed
// requests never cost a backend round-trip, and the affinity key is the
// backends' compiled-cache key by construction.
func parseRunKeys(body []byte) (requestKeys, error) {
	req, err := server.ParseRunRequest(body)
	if err != nil {
		return requestKeys{}, err
	}
	return requestKeys{req.CacheKey(), req.ResultKey()}, nil
}

// routeCached serves one keyed request through the coordinator result
// cache (when enabled) and the routed fleet: a hit (or a coalesced wait on
// an identical in-flight request) never costs a backend round-trip. Only
// authoritative 200s are cached; any other backend answer is relayed
// uncached through the sentinel path.
func (c *Coordinator) routeCached(w http.ResponseWriter, r *http.Request, cacheKey, resultKey string, call routedCall) {
	if c.results == nil {
		resp, b, err := c.route(r.Context(), cacheKey, call)
		if err != nil {
			c.runRouteError(w, r, err)
			return
		}
		relay(w, b, resp)
		return
	}
	var pass *backendResp
	var passFrom *backend
	res, outcome, err := c.results.Do(r.Context(), resultKey, func() ([]byte, error) {
		resp, b, err := c.route(r.Context(), cacheKey, call)
		if err != nil {
			return nil, err
		}
		passFrom = b
		if resp.status != http.StatusOK {
			pass = resp
			return nil, errUncacheableStatus
		}
		return resp.body, nil
	})
	switch {
	case errors.Is(err, errUncacheableStatus):
		relay(w, passFrom, pass)
	case err != nil:
		c.runRouteError(w, r, err)
	default:
		c.metrics.recordResult(outcome)
		if passFrom != nil {
			w.Header().Set(BackendHeader, passFrom.url)
		}
		server.WriteCachedResult(w, r, res, outcome)
	}
}

// errUncacheableStatus marks a routed response that must be relayed but
// not cached (429s, backend errors — anything but an authoritative 200).
var errUncacheableStatus = errors.New("uncacheable backend status")

// runRouteError answers a /run whose every routing attempt died on the
// wire: 499 when the client itself went away, coordinator shed otherwise.
func (c *Coordinator) runRouteError(w http.ResponseWriter, r *http.Request, err error) {
	if r.Context().Err() != nil {
		writeError(w, server.StatusClientClosedRequest, err)
		return
	}
	c.shed(w, fmt.Errorf("all backends failed: %w", err))
}

// relay writes a fully-read backend response to the client.
func relay(w http.ResponseWriter, b *backend, resp *backendResp) {
	if b != nil {
		w.Header().Set(BackendHeader, b.url)
	}
	if resp.ctype != "" {
		w.Header().Set("Content-Type", resp.ctype)
	}
	if resp.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
}

// requestID reads the correlation ID the WithRequestID middleware stamped
// on the pending response.
func requestID(w http.ResponseWriter) string {
	return w.Header().Get(server.RequestIDHeader)
}

// route routes one keyed call through the fleet: affinity order, retries,
// hedging. It returns the first authoritative response (any HTTP status
// except 429) or, after the budget is spent, the last 429 — the caller
// relays it, Retry-After attached. A nil response with an error means
// every attempt died on the wire.
func (c *Coordinator) route(ctx context.Context, key string, call routedCall) (*backendResp, *backend, error) {
	order, affinity := c.routeOrder(key)
	if len(order) == 0 {
		return nil, nil, errors.New("no routable backend")
	}
	// Priority shedding: when every routable backend is saturated, bulk
	// traffic sheds at the coordinator (429 + Retry-After, synthesized
	// below by the caller's relay of this response) instead of queueing
	// ahead of interactive work on some backend.
	if call.priority == "bulk" && c.allSaturated(order) {
		c.metrics.bulkShed.Add(1)
		return &backendResp{
			status: http.StatusTooManyRequests,
			ctype:  "application/json",
			body:   []byte("{\n  \"error\": \"fleet saturated; bulk traffic shed\"\n}\n"),
		}, nil, nil
	}
	if affinity {
		c.metrics.affinityHits.Add(1)
	} else {
		c.metrics.fallbacks.Add(1)
	}

	var last429 *backendResp
	var last429From *backend
	var lastErr error
	backoff := c.cfg.RetryBackoff
	attempts := c.cfg.Retries + 1
	for i := 0; i < attempts; i++ {
		if i > 0 {
			c.metrics.retries.Add(1)
			select {
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			case <-time.After(jitter(backoff)):
			}
			backoff *= 2
			// Re-rank: a backend that died on the wire a moment ago is no
			// longer routable, so retries skip it automatically.
			order, _ = c.routeOrder(key)
			if len(order) == 0 {
				break
			}
		}
		target := order[i%len(order)]
		var resp *backendResp
		var winner *backend
		var err error
		if i == 0 && c.cfg.HedgeAfter > 0 && len(order) > 1 {
			resp, winner, err = c.hedgedSend(ctx, target, order[1], call)
		} else {
			winner = target
			resp, err = c.send(ctx, target, call)
		}
		if err != nil {
			lastErr = err
			continue
		}
		if resp.status == http.StatusTooManyRequests {
			last429, last429From = resp, winner
			continue
		}
		if winner == order[0] && affinity && i == 0 {
			winner.affinity.Add(1)
		} else {
			winner.fallback.Add(1)
		}
		return resp, winner, nil
	}
	if last429 != nil {
		return last429, last429From, nil
	}
	if lastErr == nil {
		lastErr = errors.New("no routable backend")
	}
	return nil, nil, lastErr
}

// send issues one routed POST to b and reads the response fully. A
// transport error (connection refused, reset, timeout) counts toward b's
// failure streak — the data path notices a dead backend faster than the
// next probe — unless the caller's context was the cause.
func (c *Coordinator) send(ctx context.Context, b *backend, call routedCall) (*backendResp, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+call.path, bytes.NewReader(call.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if call.id != "" {
		req.Header.Set(server.RequestIDHeader, call.id)
	}
	if call.tenant != "" {
		req.Header.Set(server.TenantHeader, call.tenant)
	}
	if call.priority != "" {
		req.Header.Set(server.PriorityHeader, call.priority)
	}
	b.inflight.Add(1)
	b.routed.Add(1)
	resp, err := c.cfg.Client.Do(req)
	b.inflight.Add(-1)
	if err != nil {
		if ctx.Err() == nil {
			b.errors.Add(1)
			c.recordFailure(b, err)
		}
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBackendResponse))
	if err != nil {
		if ctx.Err() == nil {
			b.errors.Add(1)
			c.recordFailure(b, err)
		}
		return nil, err
	}
	return &backendResp{status: resp.StatusCode, ctype: resp.Header.Get("Content-Type"), body: data}, nil
}

// recordFailure folds a data-path or probe failure into the registry and
// fleet counters.
func (c *Coordinator) recordFailure(b *backend, err error) {
	was := b.routable()
	state := b.noteFailure(err, &c.cfg)
	if was && state == StateDead {
		c.metrics.deaths.Add(1)
	}
}

// hedgedSend races primary against a delayed hedge to alt: primary is
// sent immediately, and if it has not answered within HedgeAfter the same
// body goes to alt; the first authoritative (non-429, non-error) response
// wins and the loser is canceled. Runs are deterministic, so serving the
// faster of two identical computations is safe by construction.
func (c *Coordinator) hedgedSend(ctx context.Context, primary, alt *backend, call routedCall) (*backendResp, *backend, error) {
	type result struct {
		resp *backendResp
		err  error
		b    *backend
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan result, 2)
	send := func(b *backend) {
		resp, err := c.send(hctx, b, call)
		ch <- result{resp, err, b}
	}
	go send(primary)

	timer := time.NewTimer(c.cfg.HedgeAfter)
	defer timer.Stop()
	outstanding, hedged := 1, false
	for {
		select {
		case r := <-ch:
			outstanding--
			authoritative := r.err == nil && r.resp.status != http.StatusTooManyRequests
			if authoritative || outstanding == 0 {
				if authoritative && hedged && r.b == alt {
					c.metrics.hedgeWins.Add(1)
				}
				return r.resp, r.b, r.err
			}
			// The first answer was an error or a 429; wait for the other.
		case <-timer.C:
			if !hedged {
				hedged = true
				c.metrics.hedges.Add(1)
				outstanding++
				go send(alt)
			}
		}
	}
}

// handlePrograms proxies capability discovery from the fleet: the first
// routable backend's /programs body is relayed verbatim.
func (c *Coordinator) handlePrograms(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	body, b, err := c.fetchPrograms(r.Context())
	if err != nil {
		c.shed(w, err)
		return
	}
	relay(w, b, &backendResp{status: http.StatusOK, ctype: "application/json", body: body})
}

// fetchPrograms retrieves the raw /programs document from any routable
// backend, trying each in registry order.
func (c *Coordinator) fetchPrograms(ctx context.Context) ([]byte, *backend, error) {
	backends := c.routableBackends()
	if len(backends) == 0 {
		return nil, nil, errors.New("no routable backend")
	}
	var lastErr error
	for _, b := range backends {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/programs", nil)
		if err != nil {
			return nil, nil, err
		}
		resp, err := c.cfg.Client.Do(req)
		if err != nil {
			lastErr = err
			if ctx.Err() == nil {
				c.recordFailure(b, err)
			}
			continue
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxBackendResponse))
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("programs from %s: status %d, %v", b.url, resp.StatusCode, err)
			continue
		}
		return data, b, nil
	}
	return nil, nil, fmt.Errorf("programs discovery failed: %w", lastErr)
}

// discoverPrograms returns the fleet's program names, cached after the
// first successful discovery (the registry is static per deployment).
func (c *Coordinator) discoverPrograms(ctx context.Context) ([]string, error) {
	c.programsMu.Lock()
	cached := c.programs
	c.programsMu.Unlock()
	if cached != nil {
		return cached, nil
	}
	body, _, err := c.fetchPrograms(ctx)
	if err != nil {
		return nil, err
	}
	var pr server.ProgramsResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return nil, fmt.Errorf("decoding programs: %w", err)
	}
	names := make([]string, 0, len(pr.Programs))
	for _, p := range pr.Programs {
		names = append(names, p.Name)
	}
	if len(names) == 0 {
		return nil, errors.New("backend reported an empty program registry")
	}
	c.programsMu.Lock()
	c.programs = names
	c.programsMu.Unlock()
	return names, nil
}
