// Campaign endpoints: declarative ablation-sweep grids executed through
// the daemon's own /run machinery. POST /campaign expands and bounds the
// grid, admits it against the creator's tenant quotas (one concurrency
// slot for the campaign's lifetime, instruction debits only for points
// actually simulated), and runs points on a bounded worker pool behind
// the ordinary admission queue at bulk priority — a campaign never
// starves interactive traffic. Campaigns are resources: GET polls status,
// GET /events streams SSE progress, DELETE cancels through the same
// context plumbing as client disconnects (canceled campaigns report
// canceled points, never failed ones — the 499-not-5xx rule).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"mmxdsp/internal/campaign"
)

// Campaign serving defaults.
const (
	DefaultCampaignMaxPoints = 4096
	DefaultCampaignWorkers   = 4
	DefaultCampaignMaxActive = 4
)

// campaignLimits resolves the grid bounds from the config.
func (s *Server) campaignLimits() campaign.Limits {
	lim := campaign.DefaultLimits()
	if s.cfg.CampaignMaxPoints > 0 {
		lim.MaxPoints = s.cfg.CampaignMaxPoints
	}
	return lim
}

// CampaignStatus is the JSON body answering POST /campaign and
// GET /campaign/{id}. Artifacts are inlined once the campaign completes:
// they are deterministic functions of the grid and the simulation, so the
// same campaign produces the same artifact bytes on any tier.
type CampaignStatus struct {
	ID       string           `json:"id"`
	Status   string           `json:"status"`
	Programs []string         `json:"programs"`
	Axes     map[string][]int `json:"axes,omitempty"`
	Total    int              `json:"total"`
	Done     int              `json:"done"`
	Failed   int              `json:"failed"`
	Cached   int              `json:"cached"`
	Canceled int              `json:"canceled"`
	ETAms    int64            `json:"eta_ms"`
	// SimulatedInstrs is the tenant-quota debit so far (cache hits are
	// free).
	SimulatedInstrs int64 `json:"simulated_instrs"`
	// Points carries per-point detail when requested with ?points=1.
	Points []CampaignPoint `json:"points,omitempty"`
	// ArtifactsCSV / ArtifactsMarkdown are the sensitivity artifacts,
	// present once Status is "completed".
	ArtifactsCSV      string `json:"artifacts_csv,omitempty"`
	ArtifactsMarkdown string `json:"artifacts_markdown,omitempty"`
}

// CampaignPoint is one grid cell's status in a detailed listing.
type CampaignPoint struct {
	Index    int    `json:"index"`
	Program  string `json:"program"`
	Dispatch string `json:"dispatch"`
	Values   []int  `json:"values"`
	Status   string `json:"status"`
	Cached   bool   `json:"cached"`
	Cycles   uint64 `json:"cycles,omitempty"`
	Instrs   uint64 `json:"instrs,omitempty"`
	Error    string `json:"error,omitempty"`
}

// StatusOfCampaign renders the shared status envelope; the coordinator
// reuses it so both tiers answer identically shaped campaign resources.
func StatusOfCampaign(c *campaign.Campaign, includePoints bool) CampaignStatus {
	ev := c.Snapshot()
	st := CampaignStatus{
		ID:              c.ID,
		Status:          ev.Status,
		Programs:        c.Spec.Programs,
		Axes:            c.Spec.Axes,
		Total:           ev.Total,
		Done:            ev.Done,
		Failed:          ev.Failed,
		Cached:          ev.Cached,
		Canceled:        ev.Canceled,
		ETAms:           ev.ETAms,
		SimulatedInstrs: c.SimulatedInstrs(),
	}
	if csv, md := c.Artifacts(); len(csv) > 0 || len(md) > 0 {
		st.ArtifactsCSV = string(csv)
		st.ArtifactsMarkdown = string(md)
	}
	if includePoints {
		points := c.PointsSnapshot()
		st.Points = make([]CampaignPoint, len(points))
		for i, p := range points {
			st.Points[i] = CampaignPoint{
				Index:    p.Index,
				Program:  p.Program,
				Dispatch: p.Dispatch,
				Values:   p.Values,
				Status:   p.Status,
				Cached:   p.Cached,
				Cycles:   p.Cycles,
				Instrs:   p.Instrs,
				Error:    p.Err,
			}
		}
	}
	return st
}

// handleCampaign serves POST /campaign (create).
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errors.New("server is draining"))
		return
	}
	body, err := ReadBody(r, MaxRequestBody)
	if err != nil {
		writeError(w, RequestErrorStatus(err), err)
		return
	}
	spec, points, err := campaign.ParseSpec(body, s.campaignLimits())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	for _, p := range spec.Programs {
		if _, ok := s.cfg.Lookup(p); !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown program %q", p))
			return
		}
	}
	if _, err := s.capInstrs(spec.MaxInstrs); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	// The campaign occupies one tenant concurrency slot for its whole
	// lifetime; instruction quota is debited at completion with what was
	// actually simulated (cached points are free), mirroring /run.
	tenant := TenantKey(r)
	if err := s.tenants.Admit(tenant, time.Now()); err != nil {
		s.writeQuotaError(w, err)
		return
	}

	c := campaign.New(s.campaignCtx, campaign.NewID(), spec, points, tenant)
	if err := s.campaigns.Add(c); err != nil {
		s.tenants.Release(tenant, 0)
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	s.metrics.campaignsTotal.Add(1)

	// Campaign points are batch work: bulk priority unless the creator
	// explicitly asked for interactive.
	priority := PriorityBulk
	if r.Header.Get(PriorityHeader) == "interactive" {
		priority = PriorityInteractive
	}
	ex := &localCampaignExecutor{s: s, priority: priority}
	go func() {
		campaign.Run(c, ex, campaign.RunnerConfig{
			Workers: s.cfg.CampaignWorkers,
			OnPoint: s.metrics.recordCampaignPoint,
			Dir:     s.cfg.CampaignDir,
		})
		s.campaigns.Settle()
		s.tenants.Release(tenant, c.SimulatedInstrs())
	}()
	writeJSON(w, http.StatusAccepted, StatusOfCampaign(c, false))
}

// handleCampaignID serves GET/DELETE /campaign/{id} and
// GET /campaign/{id}/events.
func (s *Server) handleCampaignID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/campaign/")
	id, sub, _ := strings.Cut(rest, "/")
	c, ok := s.campaigns.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", id))
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, StatusOfCampaign(c, r.URL.Query().Get("points") == "1"))
	case sub == "" && r.Method == http.MethodDelete:
		c.Cancel()
		writeJSON(w, http.StatusOK, StatusOfCampaign(c, false))
	case sub == "events" && r.Method == http.MethodGet:
		ServeCampaignEvents(w, r, c)
	default:
		writeError(w, http.StatusMethodNotAllowed, errors.New("unsupported campaign operation"))
	}
}

// ServeCampaignEvents streams a campaign's progress as server-sent
// events: one "progress" event per update (lossy under backpressure —
// intermediate states may be skipped), and a final "done" event carrying
// the terminal snapshot, guaranteed to arrive. Shared by both tiers.
func ServeCampaignEvents(w http.ResponseWriter, r *http.Request, c *campaign.Campaign) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ch, unsubscribe := c.Subscribe()
	defer unsubscribe()
	writeEvent := func(name string, ev campaign.Event) bool {
		data, err := marshalEvent(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	for {
		select {
		case ev, open := <-ch:
			if !open {
				// Channel closed after the terminal event; emit the final
				// snapshot under its own name so clients need no counter
				// bookkeeping to know the stream is complete.
				writeEvent("done", c.Snapshot())
				return
			}
			if !writeEvent("progress", ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// marshalEvent renders one SSE payload (single-line JSON).
func marshalEvent(ev campaign.Event) ([]byte, error) {
	return json.Marshal(ev)
}

// localCampaignExecutor runs grid points through the daemon's own
// /run pipeline: result cache, single-flight, admission queue, compiled
// LRU. A point is one ordinary request minus the HTTP framing.
type localCampaignExecutor struct {
	s        *Server
	priority int
}

// campaignQueueRetries bounds retries when the admission queue sheds a
// point; campaign points are patient batch work, so brief saturation
// waits instead of failing the point.
const campaignQueueRetries = 8

func (e *localCampaignExecutor) RunPoint(ctx context.Context, p campaign.Point) (campaign.PointResult, error) {
	req, err := ParseRunRequest(p.Body)
	if err != nil {
		return campaign.PointResult{}, fmt.Errorf("point %d: %w", p.Index, err)
	}
	req.priority = e.priority
	if req.MaxInstrs, err = e.s.capInstrs(req.MaxInstrs); err != nil {
		return campaign.PointResult{}, fmt.Errorf("point %d: %w", p.Index, err)
	}
	pctx := ctx
	if t := req.timeout(e.s.cfg.DefaultTimeout); t > 0 {
		var cancel context.CancelFunc
		pctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	var retired int64
	for attempt := 0; ; attempt++ {
		res, outcome, err := e.s.runResult(pctx, req, &retired)
		if errors.Is(err, errQueueFull) && attempt < campaignQueueRetries {
			select {
			case <-time.After(time.Duration(50*(attempt+1)) * time.Millisecond):
				continue
			case <-ctx.Done():
				return campaign.PointResult{}, ctx.Err()
			}
		}
		if err != nil {
			return campaign.PointResult{}, err
		}
		pr, err := campaign.ParsePointMetrics(res.Body)
		if err != nil {
			return campaign.PointResult{}, err
		}
		pr.Cached = outcome == ResultHit || outcome == ResultSpillHit || outcome == ResultCoalesced
		return pr, nil
	}
}
