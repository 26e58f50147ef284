package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"time"

	"mmxdsp/internal/campaign"
	"mmxdsp/internal/core"
	"mmxdsp/internal/pentium"
	"mmxdsp/internal/server"
	"mmxdsp/internal/suite"
)

// pointChecks is how many campaign points are re-run in process, untimed,
// and compared with the report the fleet serves for them.
const pointChecks = 2

// campaignRun is one campaign as the client saw it.
type campaignRun struct {
	id     string
	reqID  string
	wall   time.Duration
	status server.CampaignStatus // detailed, fetched after the terminal event
}

// runCampaign posts one campaign to the coordinator and follows its event
// stream to the terminal event. reqID is sent on both requests, so the
// coordinator's backend hops for the campaign's points carry it too.
func runCampaign(f *fleet, rec *recorder, spec []byte, reqID string) (campaignRun, error) {
	r := campaignRun{reqID: reqID}
	hdr := map[string]string{server.RequestIDHeader: reqID}
	start := time.Now()
	s := rec.now()
	rep, err := f.do(http.MethodPost, "/campaign", spec, hdr)
	if err != nil {
		return r, err
	}
	if rec.on.Load() {
		rec.add(layerClient, "", "/campaign", reqID, s)
	}
	if rep.status != http.StatusAccepted {
		return r, fmt.Errorf("POST /campaign: status %d: %s", rep.status, rep.body)
	}
	var st server.CampaignStatus
	if err := json.Unmarshal(rep.body, &st); err != nil {
		return r, fmt.Errorf("POST /campaign: %w", err)
	}
	r.id = st.ID
	s = rec.now()
	if err := followEvents(f, st.ID, reqID); err != nil {
		return r, err
	}
	r.wall = time.Since(start)
	if rec.on.Load() {
		rec.add(layerClient, "", "/events", reqID, s)
	}
	err = f.getJSON(f.url, "/campaign/"+st.ID+"?points=1", &r.status)
	return r, err
}

// followEvents reads a campaign's SSE stream until its final "done" event.
func followEvents(f *fleet, id, reqID string) error {
	req, err := http.NewRequest(http.MethodGet, f.url+"/campaign/"+id+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set(server.RequestIDHeader, reqID)
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "event: done" {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	return fmt.Errorf("events of campaign %s ended before the done event", id)
}

// campaignProbe runs one cold campaign through the fleet, traced, after
// serve_warm's timed loop. The coordinator answers every serve_warm
// request from its result cache, so this is where the backend and campaign
// layers are priced: each of the campaign's 63 points misses both result
// caches and is simulated on a backend at the service default dispatch,
// with checks on.
func campaignProbe(o *outcome, f *fleet, rec *recorder, seed int64) error {
	pen := campaignPenalty(seed)
	spec, err := campaignSpec(suite.Names(), pen)
	if err != nil {
		return err
	}
	before, err := f.counters()
	if err != nil {
		return err
	}
	runtime.GC()
	rec.on.Store(true)
	r, err := runCampaign(f, rec, spec, "pb-campaign")
	rec.on.Store(false)
	if err != nil {
		return err
	}
	after, err := f.counters()
	if err != nil {
		return err
	}
	o.attempted += r.status.Total
	o.failed += r.status.Failed + r.status.Canceled
	checkCampaign(o, r)
	delta := after.sub(before)
	delta.serverLayers(o)
	if int(delta.resultMisses) != r.status.Total {
		o.fail("backend result fills %d, want one per campaign point (%d)", delta.resultMisses, r.status.Total)
	}
	campaignSpans(o, rec.snapshot(), r)
	if err := campaignParseProbe(o, spec); err != nil {
		return err
	}
	o.ledger["campaign"] = map[string]any{
		"points": r.status.Total, "l1_size": campaignL1Sizes, "l2_miss_penalty": pen, "wall_ms": ms(r.wall),
	}
	return checkPoints(o, f, spec, pen, rand.New(rand.NewSource(seed)))
}

// checkCampaign is the per-campaign correctness gate: every point done,
// none failed or canceled, none answered from a result cache.
func checkCampaign(o *outcome, r campaignRun) {
	st := r.status
	want := len(suite.Names()) * len(campaignL1Sizes)
	if st.Status != campaign.StatusCompleted || st.Total != want || st.Done != want ||
		st.Failed != 0 || st.Canceled != 0 || st.Cached != 0 {
		o.fail("campaign %s: status %s, %d/%d done, %d failed, %d canceled, %d cached (want %d cold points)",
			r.id, st.Status, st.Done, st.Total, st.Failed, st.Canceled, st.Cached, want)
	}
}

// checkPoints re-runs a seeded sample of the campaign's points in
// process and compares each with the report the fleet serves for it.
func checkPoints(o *outcome, f *fleet, spec []byte, l2Miss int, rng *rand.Rand) error {
	_, points, err := campaign.ParseSpec(spec, campaign.DefaultLimits())
	if err != nil {
		return fmt.Errorf("parse own spec: %w", err)
	}
	for _, i := range rng.Perm(len(points))[:pointChecks] {
		p := points[i]
		var rr server.RunRequest
		if err := json.Unmarshal(p.Body, &rr); err != nil || rr.Config == nil {
			return fmt.Errorf("point %d body %s: %v", p.Index, p.Body, err)
		}
		rep, err := f.do(http.MethodPost, "/run", p.Body, nil)
		if err != nil {
			return err
		}
		var served struct {
			Report json.RawMessage `json:"report"`
		}
		if err := json.Unmarshal(rep.body, &served); rep.status != http.StatusOK || err != nil {
			o.fail("point %d: status %d, %v", p.Index, rep.status, err)
			continue
		}
		b, ok := suite.ByName(p.Program)
		if !ok {
			return fmt.Errorf("point %d: unknown program %q", p.Index, p.Program)
		}
		cfg := pentium.DefaultConfig()
		cache := core.DefaultCacheSpec()
		cache.L1Size, cache.L2Miss = rr.Config.L1Size, l2Miss
		res, err := core.Run(b, core.Options{Pentium: &cfg, Cache: &cache})
		if err != nil {
			o.fail("point %d in process: %v", p.Index, err)
			continue
		}
		want, err := json.Marshal(res.Report)
		if err != nil {
			return err
		}
		var got bytes.Buffer
		if err := json.Compact(&got, served.Report); err != nil || !bytes.Equal(got.Bytes(), want) {
			o.fail("point %d (%s, l1_size %d, l2_miss_penalty %d): served report differs from in-process run",
				p.Index, p.Program, rr.Config.L1Size, l2Miss)
		}
	}
	return nil
}

// campaignSpans derives the backend figures from the campaign's spans:
// every backend hop of a point carries the campaign's request ID.
// server.busy_pct is the time each backend holds at least one point (one
// worker each, so a queued point means a busy worker) over the campaign
// wall times the number of backends.
func campaignSpans(o *outcome, spans []span, r campaignRun) {
	var handler []float64
	perNode := map[string][]span{}
	for _, s := range byReqID(spans, layerServer)[r.reqID] {
		handler = append(handler, float64(s.dur())/1e6)
		perNode[s.Node] = append(perNode[s.Node], s)
	}
	var busy float64
	for _, ss := range perNode {
		busy += float64(length(union(ss)))
	}
	o.set("server.handler_ms_p50", quantile(handler, 0.5))
	o.set("server.handler_ms_p99", quantile(handler, 0.99))
	o.set("server.busy_pct", pct(busy, float64(r.wall)*fleetBackends))
}

// campaignParseProbe times campaign.ParseSpec on the campaign's grid.
func campaignParseProbe(o *outcome, spec []byte) error {
	var parse []float64
	for r := 0; r < probeReps; r++ {
		runtime.GC()
		start := time.Now()
		_, _, err := campaign.ParseSpec(spec, campaign.DefaultLimits())
		parse = append(parse, ms(time.Since(start)))
		if err != nil {
			return fmt.Errorf("parse probe: %w", err)
		}
	}
	o.set("campaign.parse_ms", median(parse))
	return nil
}
