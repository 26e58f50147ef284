// The routing Executor. The shared pipeline (server.Pipeline) reads,
// memoizes, parses and result-caches every request; what reaches Execute
// is a result-cache miss. Execute picks the attempt order (affinity first,
// least-loaded on saturation), then attempts with bounded jittered retries
// on connection errors and backend 429s, optionally hedging the first
// attempt. Backend responses are read fully before being relayed, so
// retries and hedges never entangle two response streams, and a relayed
// response is byte-identical to the backend's body — the fleet e2e pins
// served-through-coordinator == direct-daemon.
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

// Check leaves every limit to the backends: they cap budgets and know
// their registry, and their answers are relayed verbatim.
func (c *Coordinator) Check(*server.Request) error { return nil }

// Execute routes one request and relays the answer: a 200 body comes back
// to be cached, anything else as a *server.StatusError carrying the
// backend's status, headers and bytes. When every attempt died on the
// wire the fleet sheds (503); when the caller's context ended the routing,
// its error says why.
func (c *Coordinator) Execute(ctx context.Context, req *server.Request) ([]byte, int64, error) {
	resp, b, err := c.route(ctx, req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, 0, err
		}
		return nil, 0, server.Unavailable(fmt.Errorf("all backends failed: %w", err))
	}
	if resp.status != http.StatusOK {
		h := http.Header{}
		if b != nil {
			h.Set(BackendHeader, b.url)
		}
		if resp.ctype != "" {
			h.Set("Content-Type", resp.ctype)
		}
		if resp.status == http.StatusTooManyRequests {
			h.Set("Retry-After", "1")
		}
		return nil, 0, &server.StatusError{Status: resp.status, Header: h, Body: resp.body}
	}
	if req.Header != nil {
		req.Header.Set(BackendHeader, b.url)
	}
	return resp.body, 0, nil
}

// Programs is the fleet's program registry, discovered from a backend.
func (c *Coordinator) Programs(ctx context.Context) ([]string, error) {
	names, err := c.discoverPrograms(ctx)
	if err != nil {
		return nil, server.Unavailable(err)
	}
	return names, nil
}

// Width keeps every routable backend busy with two requests, plus two in
// flight to absorb a retry.
func (c *Coordinator) Width() int { return 2*len(c.routableBackends()) + 2 }

// Ready fails while no backend is routable, so an upstream balancer sheds
// too.
func (c *Coordinator) Ready() error {
	if len(c.routableBackends()) == 0 {
		return errors.New("no routable backends")
	}
	return nil
}

// Metrics is the /metrics document (FleetMetrics).
func (c *Coordinator) Metrics() any { return c.Snapshot() }

// route routes one request through the fleet: affinity order, retries,
// hedging. It returns the first authoritative response (any HTTP status
// except 429) or, after the budget is spent, the last 429 — the caller
// relays it, Retry-After attached. A nil response with an error means
// every attempt died on the wire.
func (c *Coordinator) route(ctx context.Context, req *server.Request) (*backendResp, *backend, error) {
	key := req.CacheKey()
	order, affinity := c.routeOrder(key)
	if len(order) == 0 {
		return nil, nil, errors.New("no routable backend")
	}
	// Priority shedding: when every routable backend is saturated, bulk
	// traffic sheds at the coordinator (429 + Retry-After, synthesized
	// below by the caller's relay of this response) instead of queueing
	// ahead of interactive work on some backend.
	if req.Priority == server.PriorityBulk && c.allSaturated(order) {
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
			resp, winner, err = c.hedgedSend(ctx, target, order[1], req)
		} else {
			winner = target
			resp, err = c.send(ctx, target, req)
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

// send issues one routed POST of req to b and reads the response fully. It
// forwards the request's identity: correlation ID, tenant (resolved by the
// pipeline, so backends account the real client, not the coordinator's
// address) and a bulk priority. A transport error (connection refused,
// reset, timeout) counts toward b's failure streak — the data path notices
// a dead backend faster than the next probe — unless the caller's context
// was the cause.
func (c *Coordinator) send(ctx context.Context, b *backend, req *server.Request) (*backendResp, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+req.Path, bytes.NewReader(req.Body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if req.ID != "" {
		hreq.Header.Set(server.RequestIDHeader, req.ID)
	}
	if req.Tenant != "" {
		hreq.Header.Set(server.TenantHeader, req.Tenant)
	}
	if req.Priority == server.PriorityBulk {
		hreq.Header.Set(server.PriorityHeader, "bulk")
	}
	b.inflight.Add(1)
	b.routed.Add(1)
	resp, err := c.cfg.Client.Do(hreq)
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
func (c *Coordinator) hedgedSend(ctx context.Context, primary, alt *backend, req *server.Request) (*backendResp, *backend, error) {
	type result struct {
		resp *backendResp
		err  error
		b    *backend
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan result, 2)
	send := func(b *backend) {
		resp, err := c.send(hctx, b, req)
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
	if !c.Accept(w, r, http.MethodGet) {
		return
	}
	body, b, err := c.fetchPrograms(r.Context())
	if err != nil {
		c.Fail(w, r.Context(), server.Unavailable(err))
		return
	}
	w.Header().Set(BackendHeader, b.url)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
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
