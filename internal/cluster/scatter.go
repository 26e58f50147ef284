// Scatter-gather: POST /suite fans one full table run across the fleet —
// one routed /run per program, so every request gets affinity routing,
// retries and hedging for free — and reassembles the gathered reports into
// the paper's Table 2/3 artifacts through core's existing renderers. With
// identical reports the artifacts are byte-identical to a single daemon's
// GET /table. An optional (part, of) shard selector serves a slice of the
// suite, cut with core.Partition, so an upstream tier can split the work
// further.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"mmxdsp/internal/core"
	"mmxdsp/internal/profile"
	"mmxdsp/internal/server"
)

// SuiteRequest is the JSON body of POST /suite. An empty body (or empty
// object) runs the whole suite with default options.
type SuiteRequest struct {
	// Dispatch selects the backends' interpreter: "" or any name
	// core.CanonicalDispatch accepts; parsing replaces it with its
	// canonical mode.
	Dispatch string `json:"dispatch,omitempty"`
	// TimeoutMS bounds each routed program run (0 = backend default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Config carries timing-model ablations, applied to every program.
	Config *server.ConfigOverride `json:"config,omitempty"`
	// Part/Of, when Of > 0, select shard Part (0-based) of a suite split
	// into Of contiguous parts.
	Part int `json:"part,omitempty"`
	Of   int `json:"of,omitempty"`
}

// SuiteResponse is the JSON body answering POST /suite. The table fields
// match the daemon's /table response byte for byte when the full suite ran.
type SuiteResponse struct {
	Dispatch  string `json:"dispatch"`
	Programs  int    `json:"programs"`
	Part      int    `json:"part,omitempty"`
	Of        int    `json:"of,omitempty"`
	Table2    string `json:"table2"`
	Table2CSV string `json:"table2_csv"`
	Table3    string `json:"table3"`
	Table3CSV string `json:"table3_csv"`
}

func (c *Coordinator) handleSuite(w http.ResponseWriter, r *http.Request) {
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
	req, err := parseSuiteRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	names, err := c.discoverPrograms(r.Context())
	if err != nil {
		c.shed(w, err)
		return
	}
	names, err = shardNames(names, req.Part, req.Of)
	if err != nil {
		// The selector parsed (part < of) but asks for finer sharding than
		// the fleet has programs. Partition clamps to len(names) parts, so
		// blindly indexing its result used to panic here; it is a client
		// error, answered as one.
		c.metrics.suiteFailed.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}

	reports, errs := c.scatter(r, names, req)
	if len(errs) > 0 {
		c.metrics.suiteFailed.Add(1)
		summary := fmt.Errorf("suite incomplete (%d of %d programs failed): %s",
			len(errs), len(names), strings.Join(errs, "; "))
		// A mid-scatter failure is only a fleet problem (502) when the fleet
		// actually failed; if the caller's context fired, the programs died
		// because the client went away (499) or its deadline hit (504).
		switch {
		case errors.Is(r.Context().Err(), context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, summary)
		case r.Context().Err() != nil:
			writeError(w, server.StatusClientClosedRequest, summary)
		default:
			writeError(w, http.StatusBadGateway, summary)
		}
		return
	}
	c.metrics.suiteRuns.Add(1)

	rs := core.ResultSetFromReports(reports)
	writeJSON(w, http.StatusOK, SuiteResponse{
		Dispatch:  req.Dispatch,
		Programs:  len(rs),
		Part:      req.Part,
		Of:        req.Of,
		Table2:    core.Table2(rs),
		Table2CSV: core.Table2CSV(rs),
		Table3:    core.Table3(rs),
		Table3CSV: core.Table3CSV(rs),
	})
}

// shardNames resolves a (part, of) selector against the discovered program
// list. Of == 0 means "no sharding". A selector finer than the program
// count is rejected: core.Partition clamps its part count to len(names),
// so indexing its result with the raw part number would walk off the end
// (historically a coordinator panic — now a 400).
func shardNames(names []string, part, of int) ([]string, error) {
	if of <= 0 {
		return names, nil
	}
	if of > len(names) {
		return nil, fmt.Errorf("shard selector of=%d exceeds the fleet's %d programs", of, len(names))
	}
	if part < 0 || part >= of {
		return nil, fmt.Errorf("bad shard selector part=%d of=%d", part, of)
	}
	return core.Partition(names, of)[part], nil
}

// parseSuiteRequest decodes a /suite body; empty means "whole suite,
// defaults".
func parseSuiteRequest(data []byte) (*SuiteRequest, error) {
	req := &SuiteRequest{}
	if len(bytes.TrimSpace(data)) == 0 {
		return req, nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return nil, fmt.Errorf("invalid JSON: %w", err)
	}
	mode, err := core.CanonicalDispatch(req.Dispatch)
	if err != nil {
		return nil, err
	}
	req.Dispatch = mode
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("negative timeout_ms %d", req.TimeoutMS)
	}
	if req.Of < 0 || (req.Of > 0 && (req.Part < 0 || req.Part >= req.Of)) {
		return nil, fmt.Errorf("bad shard selector part=%d of=%d", req.Part, req.Of)
	}
	return req, nil
}

// scatter fans the named programs across the fleet on a bounded worker
// pool (each worker owns one contiguous core.Partition shard) and gathers
// reports. Failed programs come back as error strings, in name order.
func (c *Coordinator) scatter(r *http.Request, names []string, req *SuiteRequest) ([]*profile.Report, []string) {
	workers := 2*len(c.routableBackends()) + 2
	type item struct {
		rep *profile.Report
		err error
	}
	results := make([]item, len(names))
	var wg sync.WaitGroup
	offset := 0
	for _, shard := range core.Partition(names, workers) {
		shard, off := shard, offset
		offset += len(shard)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, name := range shard {
				rep, err := c.runProgram(r, name, req)
				results[off+i] = item{rep, err}
			}
		}()
	}
	wg.Wait()

	reports := make([]*profile.Report, 0, len(names))
	var errs []string
	for i, it := range results {
		if it.err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", names[i], it.err))
			continue
		}
		reports = append(reports, it.rep)
	}
	return reports, errs
}

// runProgram routes one program of a scattered suite through the normal
// /run machinery (affinity, retries, hedging) and decodes its report. The
// run goes through the coordinator's result cache when enabled, so a
// /suite repeated under the same options — or overlapping plain /run
// traffic — costs no backend round-trips for the programs already cached.
func (c *Coordinator) runProgram(r *http.Request, name string, req *SuiteRequest) (*profile.Report, error) {
	rr := server.RunRequest{
		Program:   name,
		Dispatch:  req.Dispatch,
		TimeoutMS: req.TimeoutMS,
		SkipCheck: true, // /table semantics: validation is the tests' job
		Config:    req.Config,
	}
	body, err := json.Marshal(rr)
	if err != nil {
		return nil, err
	}
	respBody, err := c.fetchRun(r, &rr, body)
	if err != nil {
		return nil, err
	}
	var env struct {
		Report *profile.Report `json:"report"`
	}
	if err := json.Unmarshal(respBody, &env); err != nil {
		return nil, fmt.Errorf("decoding run response: %w", err)
	}
	if env.Report == nil {
		return nil, errors.New("run response carried no report")
	}
	return env.Report, nil
}

// fetchRun returns the response body of one routed 200 /run, through the
// result cache when enabled.
func (c *Coordinator) fetchRun(r *http.Request, rr *server.RunRequest, body []byte) ([]byte, error) {
	route := func() ([]byte, error) {
		resp, _, err := c.route(r.Context(), rr.CacheKey(), routedCall{
			path: "/run",
			body: body,
			id:   r.Header.Get(server.RequestIDHeader),
		})
		if err != nil {
			return nil, err
		}
		if resp.status != http.StatusOK {
			var e struct {
				Error string `json:"error"`
			}
			_ = json.Unmarshal(resp.body, &e)
			if e.Error == "" {
				e.Error = fmt.Sprintf("%d bytes", len(resp.body))
			}
			return nil, fmt.Errorf("backend status %d: %s", resp.status, e.Error)
		}
		return resp.body, nil
	}
	if c.results == nil {
		return route()
	}
	res, outcome, err := c.results.Do(r.Context(), rr.ResultKey(), route)
	if err != nil {
		return nil, err
	}
	c.metrics.recordResult(outcome)
	return res.Body, nil
}
