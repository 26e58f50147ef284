// The daemon's own endpoints and its /run execution. A local /run is one
// core.RunCompiled of a cached compiled program under the request context,
// marshaled as-is, so a served result is byte-identical to marshaling a
// direct core.Run — the e2e suite pins this. /table renders the paper's
// tables from the pipeline's suite fan-out.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"mmxdsp/internal/core"
	"mmxdsp/internal/profile"
)

// RunResponse is the JSON body answering POST /run.
type RunResponse struct {
	Program  string `json:"program"`
	CacheHit bool   `json:"cache_hit"`
	// WallNS is core.Result.Wall: host time from the start of the
	// interpreter run until it has halted and the timing model has drained
	// every retired instruction. Queueing, compile and marshal are excluded.
	WallNS       int64           `json:"wall_ns"`
	InstrsPerSec float64         `json:"instrs_per_sec"`
	Blocks       core.BlockStats `json:"blocks"`
	// Report is the full simulation report; byte-identical to a direct
	// core.Run of the same request.
	Report *profile.Report `json:"report"`
}

// TableResponse is the JSON body answering GET /table.
type TableResponse struct {
	Programs  int    `json:"programs"`
	Table2    string `json:"table2"`
	Table2CSV string `json:"table2_csv"`
	Table3    string `json:"table3"`
	Table3CSV string `json:"table3_csv"`
}

// ProgramInfo describes one registered program for capability discovery.
type ProgramInfo struct {
	Name    string `json:"name"`    // paper-style name, e.g. "fft.mmx"
	Base    string `json:"base"`    // benchmark family, e.g. "fft"
	Version string `json:"version"` // "c", "fp" or "mmx"
	Kind    string `json:"kind"`    // "kernel" or "application"
	Descr   string `json:"descr"`
}

// ProgramsResponse is the JSON body answering GET /programs: the daemon's
// program registry. A coordinator fronting several daemons discovers the
// suite here instead of hardcoding it.
type ProgramsResponse struct {
	Programs []ProgramInfo `json:"programs"`
}

// marshalResponse renders v exactly as WriteJSON would put it on the wire
// (two-space indent plus trailing newline), so bytes served fresh and
// bytes replayed from the result cache are identical by construction.
func marshalResponse(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteCachedResult serves a cached (or just-computed) response: the
// strong ETag always, 304 with no body when If-None-Match revalidates,
// the stored bytes otherwise. The ResultCacheHeader says how the bytes
// were produced.
func WriteCachedResult(w http.ResponseWriter, r *http.Request, res *CachedResult, outcome ResultOutcome) {
	w.Header().Set("ETag", res.ETag)
	w.Header().Set(ResultCacheHeader, outcome.String())
	if etagMatches(r.Header.Get("If-None-Match"), res.ETag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(res.Body)
}

// executeRun is one local /run under an admission slot: compile (through
// the cache), one interpreter run, marshal. The returned bytes are exactly
// what goes on the wire; the count is the instructions simulated.
func (s *Server) executeRun(ctx context.Context, req *RunRequest) ([]byte, int64, error) {
	comp, hit, err := s.compiledFor(req)
	if err != nil {
		return nil, 0, err
	}
	res, err := core.RunCompiled(comp, req.options(ctx))
	if err != nil {
		return nil, 0, err
	}
	s.metrics.recordRun(req.Program, res.Report.DynamicInstructions, res.Wall)
	s.metrics.recordTraces(res.Traces)

	body, err := marshalResponse(RunResponse{
		Program:      req.Program,
		CacheHit:     hit,
		WallNS:       res.Wall.Nanoseconds(),
		InstrsPerSec: res.InstrsPerSec(),
		Blocks:       res.Blocks,
		Report:       res.Report,
	})
	return body, int64(res.Report.DynamicInstructions), err
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	if !s.Accept(w, r, http.MethodGet) {
		return
	}
	q := r.URL.Query()
	tmpl := RunRequest{SkipCheck: true}
	if v := q.Get("timeout_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			s.Fail(w, r.Context(), BadRequest(errors.New("bad timeout_ms")))
			return
		}
		tmpl.TimeoutMS = ms
	}
	if err := core.CheckDispatch(q.Get("dispatch")); err != nil {
		s.Fail(w, r.Context(), BadRequest(err))
		return
	}
	ctx, cancel := withTimeout(r.Context(), tmpl.timeout(s.cfg.DefaultTimeout))
	defer cancel()
	res, outcome, err := s.table(ctx, tmpl, RequestOf(w, r))
	if err != nil {
		s.Fail(w, ctx, err)
		return
	}
	WriteCachedResult(w, r, res, outcome)
}

// table answers the Table 2/3 artifacts for tmpl's options. The whole
// table is one cacheable result, keyed like a run with an empty program
// slot ("table|..."): the registry is static per deployment, so the
// config pins the artifact bytes. A miss fans the suite out
// through the pipeline, one admission slot per program, so a table never
// holds a slot while it waits for others and shares its per-program
// results with /run traffic.
func (s *Server) table(ctx context.Context, tmpl RunRequest, from *Request) (*CachedResult, ResultOutcome, error) {
	return s.do(ctx, "table|"+tmpl.ResultKey(), func() ([]byte, error) {
		names, err := s.Programs(ctx)
		if err != nil {
			return nil, err
		}
		rs, err := s.Suite(ctx, names, tmpl, from)
		if err != nil {
			return nil, err
		}
		return marshalResponse(TableResponse{
			Programs:  len(rs),
			Table2:    core.Table2(rs),
			Table2CSV: core.Table2CSV(rs),
			Table3:    core.Table3(rs),
			Table3CSV: core.Table3CSV(rs),
		})
	})
}

// WarmSuite renders and caches the whole-suite /table artifact, so a
// daemon answers its first table request — and, through the shared result
// and compiled-program caches, first per-program runs — warm instead of
// paying the full sweep in request latency. Intended to run before serving
// starts; it uses the same admission, caches and metrics as a live
// request.
func (s *Server) WarmSuite(ctx context.Context) error {
	// The template mirrors handleTable's exactly so the cached bytes key
	// identically to later GET /table traffic.
	if _, _, err := s.table(ctx, RunRequest{SkipCheck: true}, &Request{}); err != nil {
		return fmt.Errorf("warm suite: %w", err)
	}
	return nil
}

func (s *Server) handlePrograms(w http.ResponseWriter, r *http.Request) {
	if !s.Accept(w, r, http.MethodGet) {
		return
	}
	benches := s.cfg.Benchmarks()
	resp := ProgramsResponse{Programs: make([]ProgramInfo, 0, len(benches))}
	for _, b := range benches {
		resp.Programs = append(resp.Programs, ProgramInfo{
			Name: b.Name(), Base: b.Base, Version: b.Version,
			Kind: b.Kind, Descr: b.Descr,
		})
	}
	WriteJSON(w, http.StatusOK, resp)
}
