// Fleet campaigns: the coordinator owns the campaign resource and shards
// its points across healthy backends through the existing rendezvous
// routing — each point's /run body routes by the same CacheKey as direct
// traffic, so a point lands on the backend whose compiled-program and
// result caches are already warm, and a re-run campaign with one changed
// axis re-executes only the cold points. Point execution reuses the
// routed-call machinery (retries with re-ranking, hedging, least-loaded
// fallback), which is also the resilience story: a backend killed
// mid-campaign just makes its points re-route to survivors.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"mmxdsp/internal/campaign"
	"mmxdsp/internal/server"
)

// campaignLimits resolves the grid bounds from the coordinator config.
func (c *Coordinator) campaignLimits() campaign.Limits {
	lim := campaign.DefaultLimits()
	if c.cfg.CampaignMaxPoints > 0 {
		lim.MaxPoints = c.cfg.CampaignMaxPoints
	}
	return lim
}

// handleCampaign serves POST /campaign on the coordinator.
func (c *Coordinator) handleCampaign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if c.draining.Load() {
		c.shed(w, errors.New("coordinator is draining"))
		return
	}
	body, err := server.ReadBody(r, server.MaxRequestBody)
	if err != nil {
		writeError(w, server.RequestErrorStatus(err), err)
		return
	}
	spec, points, err := campaign.ParseSpec(body, c.campaignLimits())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	known, err := c.discoverPrograms(r.Context())
	if err != nil {
		c.shed(w, err)
		return
	}
	knownSet := make(map[string]bool, len(known))
	for _, name := range known {
		knownSet[name] = true
	}
	for _, p := range spec.Programs {
		if !knownSet[p] {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown program %q", p))
			return
		}
	}

	cam := campaign.New(c.campaignCtx, campaign.NewID(), spec, points, server.TenantKey(r))
	if err := c.campaigns.Add(cam); err != nil {
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	c.metrics.campaignsTotal.Add(1)

	// Campaign points route at bulk priority unless the creator asked for
	// interactive: at fleet saturation they shed (and retry) before any
	// interactive request queues behind them.
	priority := "bulk"
	if r.Header.Get(server.PriorityHeader) == "interactive" {
		priority = "interactive"
	}
	ex := &fleetCampaignExecutor{
		c:        c,
		tenant:   cam.Tenant,
		priority: priority,
		id:       requestID(w),
	}
	workers := c.cfg.CampaignWorkers
	if workers <= 0 {
		workers = 2*len(c.routableBackends()) + 2
	}
	go func() {
		campaign.Run(cam, ex, campaign.RunnerConfig{
			Workers: workers,
			OnPoint: c.metrics.recordCampaignPoint,
			Dir:     c.cfg.CampaignDir,
		})
		c.campaigns.Settle()
	}()
	writeJSON(w, http.StatusAccepted, server.StatusOfCampaign(cam, false))
}

// handleCampaignID serves GET/DELETE /campaign/{id} and
// GET /campaign/{id}/events on the coordinator, with the same resource
// semantics as the daemon tier.
func (c *Coordinator) handleCampaignID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/campaign/")
	id, sub, _ := strings.Cut(rest, "/")
	cam, ok := c.campaigns.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", id))
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, server.StatusOfCampaign(cam, r.URL.Query().Get("points") == "1"))
	case sub == "" && r.Method == http.MethodDelete:
		cam.Cancel()
		writeJSON(w, http.StatusOK, server.StatusOfCampaign(cam, false))
	case sub == "events" && r.Method == http.MethodGet:
		server.ServeCampaignEvents(w, r, cam)
	default:
		writeError(w, http.StatusMethodNotAllowed, errors.New("unsupported campaign operation"))
	}
}

// fleetCampaignExecutor runs grid points through the routed /run data
// path and the coordinator result cache.
type fleetCampaignExecutor struct {
	c        *Coordinator
	tenant   string
	priority string
	id       string
}

// campaignRouteRetries bounds re-attempts when the whole fleet answers
// 429; campaign points are patient batch work.
const campaignRouteRetries = 8

func (e *fleetCampaignExecutor) RunPoint(ctx context.Context, p campaign.Point) (campaign.PointResult, error) {
	rr, err := server.ParseRunRequest(p.Body)
	if err != nil {
		return campaign.PointResult{}, fmt.Errorf("point %d: %w", p.Index, err)
	}
	call := routedCall{
		path:     "/run",
		body:     p.Body,
		id:       e.id,
		tenant:   e.tenant,
		priority: e.priority,
	}
	route := func() ([]byte, error) {
		resp, _, err := e.c.route(ctx, rr.CacheKey(), call)
		if err != nil {
			return nil, err
		}
		if resp.status != http.StatusOK {
			return nil, &pointStatusError{status: resp.status, body: resp.body}
		}
		return resp.body, nil
	}
	var body []byte
	cached := false
	for attempt := 0; ; attempt++ {
		if e.c.results == nil {
			body, err = route()
		} else {
			var res *server.CachedResult
			var outcome server.ResultOutcome
			res, outcome, err = e.c.results.Do(ctx, rr.ResultKey(), route)
			if err == nil {
				e.c.metrics.recordResult(outcome)
				cached = outcome == server.ResultHit || outcome == server.ResultSpillHit ||
					outcome == server.ResultCoalesced
				body = res.Body
			}
		}
		var se *pointStatusError
		if errors.As(err, &se) && se.status == http.StatusTooManyRequests && attempt < campaignRouteRetries {
			select {
			case <-time.After(time.Duration(50*(attempt+1)) * time.Millisecond):
				continue
			case <-ctx.Done():
				return campaign.PointResult{}, ctx.Err()
			}
		}
		break
	}
	if err != nil {
		return campaign.PointResult{}, err
	}
	pr, err := campaign.ParsePointMetrics(body)
	if err != nil {
		return campaign.PointResult{}, err
	}
	pr.Cached = cached
	return pr, nil
}

// pointStatusError is a non-200 authoritative backend answer for a
// campaign point.
type pointStatusError struct {
	status int
	body   []byte
}

func (e *pointStatusError) Error() string {
	msg := strings.TrimSpace(string(e.body))
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return fmt.Sprintf("backend status %d: %s", e.status, msg)
}
