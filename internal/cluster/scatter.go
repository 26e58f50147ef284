// POST /suite fans one full table run across the fleet through the shared
// pipeline's suite fan-out (server.Pipeline.Suite) — one /run per program
// through the result cache and the router, so every program gets caching,
// affinity routing, retries and hedging, and carries the request's ID,
// tenant and priority to its backend — and reassembles the gathered
// reports into the paper's Table 2/3 artifacts through core's renderers.
// With identical reports the artifacts are byte-identical to a single
// daemon's GET /table, which runs the same fan-out. An optional (part, of)
// shard selector serves a slice of the suite, cut with core.Partition, so
// an upstream tier can split the work further.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"mmxdsp/internal/core"
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
	if !c.Accept(w, r, http.MethodPost) {
		return
	}
	body, err := server.ReadBody(r, server.MaxRequestBody)
	if err != nil {
		c.Fail(w, r.Context(), server.BadRequest(err))
		return
	}
	req, err := parseSuiteRequest(body)
	if err != nil {
		c.Fail(w, r.Context(), server.BadRequest(err))
		return
	}
	names, err := c.Programs(r.Context())
	if err != nil {
		c.Fail(w, r.Context(), err)
		return
	}
	names, err = shardNames(names, req.Part, req.Of)
	if err != nil {
		// The selector parsed (part < of) but asks for finer sharding than
		// the fleet has programs. Partition clamps to len(names) parts, so
		// blindly indexing its result used to panic here; it is a client
		// error, answered as one.
		c.metrics.suiteFailed.Add(1)
		c.Fail(w, r.Context(), server.BadRequest(err))
		return
	}

	tmpl := server.RunRequest{
		Dispatch:  req.Dispatch,
		TimeoutMS: req.TimeoutMS,
		SkipCheck: true, // /table semantics: validation is the tests' job
		Config:    req.Config,
	}
	rs, err := c.Suite(r.Context(), names, tmpl, server.RequestOf(w, r))
	if err != nil {
		// The failed programs decide the status: the client going away
		// (499) or its deadline (504) is not the fleet's fault.
		c.metrics.suiteFailed.Add(1)
		c.Fail(w, r.Context(), err)
		return
	}
	c.metrics.suiteRuns.Add(1)
	server.WriteJSON(w, http.StatusOK, SuiteResponse{
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
