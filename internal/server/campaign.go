// Campaign endpoints: declarative ablation-sweep grids executed through
// the pipeline's own /run path, on either tier. POST /campaign expands and
// bounds the grid, checks its programs and budget against the tier,
// admits it against the creator's tenant quotas (one concurrency slot for
// the campaign's lifetime, instruction debits only for points actually
// simulated), and runs points on a bounded worker pool at bulk priority —
// a campaign never starves interactive traffic. On mmxd a point queues
// behind the admission pool; on mmxfleet it routes by the same affinity
// key as direct traffic, so it lands where the caches are warm, and a
// backend killed mid-campaign just makes its points re-route. Campaigns
// are resources: GET polls status, GET /events streams SSE progress,
// DELETE cancels through the same context plumbing as client disconnects
// (canceled campaigns report canceled points, never failed ones — the
// 499-not-5xx rule).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
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
func (p *Pipeline) campaignLimits() campaign.Limits {
	lim := campaign.DefaultLimits()
	if p.cfg.CampaignMaxPoints > 0 {
		lim.MaxPoints = p.cfg.CampaignMaxPoints
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
	Index   int    `json:"index"`
	Program string `json:"program"`
	Values  []int  `json:"values"`
	Status  string `json:"status"`
	Cached  bool   `json:"cached"`
	Cycles  uint64 `json:"cycles,omitempty"`
	Instrs  uint64 `json:"instrs,omitempty"`
	Error   string `json:"error,omitempty"`
}

// statusOfCampaign renders the status envelope of a campaign resource.
func statusOfCampaign(c *campaign.Campaign, includePoints bool) CampaignStatus {
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
				Index:   p.Index,
				Program: p.Program,
				Values:  p.Values,
				Status:  p.Status,
				Cached:  p.Cached,
				Cycles:  p.Cycles,
				Instrs:  p.Instrs,
				Error:   p.Err,
			}
		}
	}
	return st
}

// handleCampaign serves POST /campaign (create).
func (p *Pipeline) handleCampaign(w http.ResponseWriter, r *http.Request) {
	if !p.Accept(w, r, http.MethodPost) {
		return
	}
	body, err := ReadBody(r, MaxRequestBody)
	if err != nil {
		p.Fail(w, r.Context(), BadRequest(err))
		return
	}
	spec, points, err := campaign.ParseSpec(body, p.campaignLimits())
	if err != nil {
		p.Fail(w, r.Context(), BadRequest(err))
		return
	}
	if err := p.checkCampaign(r.Context(), spec, points); err != nil {
		p.Fail(w, r.Context(), err)
		return
	}

	// The campaign occupies one tenant concurrency slot for its whole
	// lifetime; instruction quota is debited at completion with what was
	// actually simulated (cached points are free), mirroring /run.
	from := RequestOf(w, r)
	if err := p.tenants.Admit(from.Tenant, time.Now()); err != nil {
		p.Fail(w, r.Context(), err)
		return
	}
	c := campaign.New(p.campaignCtx, campaign.NewID(), spec, points, from.Tenant)
	if err := p.campaigns.Add(c); err != nil {
		p.tenants.Release(from.Tenant, 0)
		p.Fail(w, r.Context(), &StatusError{Status: http.StatusTooManyRequests, Header: retryAfter("5"), Err: err})
		return
	}
	p.counts.campaignsTotal.Add(1)

	// Campaign points are batch work: bulk priority unless the creator
	// explicitly asked for interactive.
	ex := &pointExecutor{p: p, from: Request{ID: from.ID, Tenant: from.Tenant, Priority: PriorityBulk}}
	if r.Header.Get(PriorityHeader) == "interactive" {
		ex.from.Priority = PriorityInteractive
	}
	workers := p.cfg.CampaignWorkers
	if workers <= 0 {
		workers = p.ex.Width()
	}
	go func() {
		campaign.Run(c, ex, campaign.RunnerConfig{
			Workers: workers,
			OnPoint: p.counts.recordCampaignPoint,
			Dir:     p.cfg.CampaignDir,
		})
		p.campaigns.Settle()
		p.tenants.Release(from.Tenant, c.SimulatedInstrs())
	}()
	WriteJSON(w, http.StatusAccepted, statusOfCampaign(c, false))
}

// checkCampaign holds a grid to the tier before it starts: every program
// must be one the executor serves (404 otherwise), and the first point —
// points differ from it only in program and axis values, both checked —
// must pass the executor's limits, such as an instruction-budget cap.
func (p *Pipeline) checkCampaign(ctx context.Context, spec *campaign.Spec, points []campaign.Point) error {
	known, err := p.ex.Programs(ctx)
	if err != nil {
		return err
	}
	for _, name := range spec.Programs {
		if !slices.Contains(known, name) {
			return &StatusError{Status: http.StatusNotFound, Err: fmt.Errorf("unknown program %q", name)}
		}
	}
	if len(points) == 0 {
		return nil
	}
	return p.parse(&Request{Path: "/run", Body: points[0].Body})
}

// handleCampaignID serves GET/DELETE /campaign/{id} and
// GET /campaign/{id}/events.
func (p *Pipeline) handleCampaignID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/campaign/")
	id, sub, _ := strings.Cut(rest, "/")
	c, ok := p.campaigns.Get(id)
	if !ok {
		p.Fail(w, r.Context(), &StatusError{Status: http.StatusNotFound, Err: fmt.Errorf("unknown campaign %q", id)})
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		WriteJSON(w, http.StatusOK, statusOfCampaign(c, r.URL.Query().Get("points") == "1"))
	case sub == "" && r.Method == http.MethodDelete:
		c.Cancel()
		WriteJSON(w, http.StatusOK, statusOfCampaign(c, false))
	case sub == "events" && r.Method == http.MethodGet:
		p.serveCampaignEvents(w, r, c)
	default:
		p.Fail(w, r.Context(), &StatusError{Status: http.StatusMethodNotAllowed, Err: errors.New("unsupported campaign operation")})
	}
}

// serveCampaignEvents streams a campaign's progress as server-sent
// events: one "progress" event per update (lossy under backpressure —
// intermediate states may be skipped), and a final "done" event carrying
// the terminal snapshot, guaranteed to arrive.
func (p *Pipeline) serveCampaignEvents(w http.ResponseWriter, r *http.Request, c *campaign.Campaign) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		p.Fail(w, r.Context(), &StatusError{Status: http.StatusNotImplemented, Err: errors.New("streaming unsupported")})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ch, unsubscribe := c.Subscribe()
	defer unsubscribe()
	writeEvent := func(name string, ev campaign.Event) bool {
		data, err := json.Marshal(ev) // single-line JSON
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

// pointExecutor runs a campaign's points through the pipeline's result
// path: a point is one ordinary /run minus the HTTP framing, carrying the
// creator's request ID, tenant and the campaign's priority.
type pointExecutor struct {
	p    *Pipeline
	from Request
}

func (e *pointExecutor) RunPoint(ctx context.Context, pt campaign.Point) (campaign.PointResult, error) {
	req := e.from
	req.Path, req.Body = "/run", pt.Body
	body, outcome, err := e.p.runPoint(ctx, &req)
	if err != nil {
		return campaign.PointResult{}, err
	}
	pr, err := campaign.ParsePointMetrics(body)
	if err != nil {
		return campaign.PointResult{}, err
	}
	pr.Cached = outcome == ResultHit || outcome == ResultSpillHit || outcome == ResultCoalesced
	return pr, nil
}
