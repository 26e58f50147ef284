// HTTP handlers. The /run path is the serving hot loop: admission, cache
// lookup, one core.RunCompiled under the request context, JSON out. The
// profile.Report is marshaled as-is, so a served result is byte-identical
// to marshaling a direct core.Run — the e2e suite pins this.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mmxdsp/internal/core"
	"mmxdsp/internal/profile"
)

// StatusClientClosedRequest is the nginx-convention status for "client
// went away before the response": the body is never seen, but the code
// keeps access logs and tests honest about why the run ended.
const StatusClientClosedRequest = 499

// RunResponse is the JSON body answering POST /run.
type RunResponse struct {
	Program  string `json:"program"`
	Dispatch string `json:"dispatch"` // canonical mode of the requested name
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
	Dispatch  string `json:"dispatch"`
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
// program registry plus the dispatch modes every program accepts. A
// coordinator fronting several daemons discovers capabilities here instead
// of hardcoding the suite.
type ProgramsResponse struct {
	Programs      []ProgramInfo `json:"programs"`
	DispatchModes []string      `json:"dispatch_modes"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client is gone if this fails; nothing to do
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// marshalResponse renders v exactly as writeJSON would put it on the wire
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

// runStatus maps a run failure to an HTTP status using the request
// context: deadline -> 504, cancellation (disconnect or drain) -> 499,
// anything else -> 500.
func runStatus(ctx context.Context, err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	case ctx.Err() != nil:
		// The context fired but the interpreter surfaced a different
		// error first (e.g. a budget fault racing the deadline).
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
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
	req, err := ParseRunRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req.priority = parsePriority(r.Header.Get(PriorityHeader))
	if req.MaxInstrs, err = s.capInstrs(req.MaxInstrs); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Program existence is checked before admission so unknown names stay
	// cheap 404s; compilation itself happens under the admission slot (a
	// flood of cold-cache requests must shed before doing compile work).
	if _, ok := s.cfg.Lookup(req.Program); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown program %q", req.Program))
		return
	}

	tenant := TenantKey(r)
	if err := s.tenants.Admit(tenant, time.Now()); err != nil {
		s.writeQuotaError(w, err)
		return
	}
	var retired int64
	defer func() { s.tenants.Release(tenant, retired) }()

	ctx, cancel := s.requestContext(r, req.timeout(s.cfg.DefaultTimeout))
	defer cancel()
	res, outcome, err := s.runResult(ctx, req, &retired)
	if err != nil {
		if errors.Is(err, errQueueFull) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		status := runStatus(ctx, err)
		if status == http.StatusGatewayTimeout || status == StatusClientClosedRequest {
			s.metrics.canceled.Add(1)
		} else {
			s.metrics.runsFailed.Add(1)
		}
		writeError(w, status, err)
		return
	}
	WriteCachedResult(w, r, res, outcome)
}

// runResult answers one validated /run through the result cache:
// a hit replays stored bytes without touching admission or the
// interpreter; a miss single-flights executeRun so concurrent identical
// requests simulate once. With caching disabled every request executes.
func (s *Server) runResult(ctx context.Context, req *RunRequest, retired *int64) (*CachedResult, ResultOutcome, error) {
	if s.results == nil {
		body, err := s.executeRun(ctx, req, retired)
		if err != nil {
			return nil, ResultBypass, err
		}
		key := req.ResultKey()
		return &CachedResult{Key: key, ETag: ETagFor(key, body), Body: body}, ResultBypass, nil
	}
	return s.results.Do(ctx, req.ResultKey(), func() ([]byte, error) {
		return s.executeRun(ctx, req, retired)
	})
}

// executeRun is the uncached serving path: admission, compile (under the
// admission slot), one interpreter run, marshal. The returned bytes are
// exactly what goes on the wire. retired reports the instructions actually
// simulated, for per-tenant quota debits (zero on cache hits, which never
// reach here).
func (s *Server) executeRun(ctx context.Context, req *RunRequest, retired *int64) ([]byte, error) {
	release, err := s.acquire(ctx, req.priority)
	if err != nil {
		return nil, err
	}
	defer release()

	comp, hit, err := s.compiledFor(req)
	if err != nil {
		return nil, err
	}
	res, err := core.RunCompiled(comp, req.options(ctx))
	if err != nil {
		return nil, err
	}
	*retired = int64(res.Report.DynamicInstructions)
	s.metrics.recordRun(req.Program, res.Report.DynamicInstructions, res.Wall)
	s.metrics.recordTraces(res.Traces)

	return marshalResponse(RunResponse{
		Program:      req.Program,
		Dispatch:     req.dispatchMode(),
		CacheHit:     hit,
		WallNS:       res.Wall.Nanoseconds(),
		InstrsPerSec: res.InstrsPerSec(),
		Blocks:       res.Blocks,
		Report:       res.Report,
	})
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errors.New("server is draining"))
		return
	}
	q := r.URL.Query()
	req := &RunRequest{Dispatch: q.Get("dispatch"), SkipCheck: true}
	if v := q.Get("timeout_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, errors.New("bad timeout_ms"))
			return
		}
		req.TimeoutMS = ms
	}
	if _, err := core.CanonicalDispatch(req.Dispatch); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	ctx, cancel := s.requestContext(r, req.timeout(s.cfg.DefaultTimeout))
	defer cancel()
	// The whole table is one cacheable result, keyed like a run with an
	// empty program slot ("table|..."): the registry is static per
	// deployment, so (dispatch, config) pins the artifact bytes.
	res, outcome, err := s.tableResult(ctx, req)
	if err != nil {
		if errors.Is(err, errQueueFull) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		status := runStatus(ctx, err)
		if status == http.StatusGatewayTimeout || status == StatusClientClosedRequest {
			s.metrics.canceled.Add(1)
		} else {
			s.metrics.runsFailed.Add(1)
		}
		writeError(w, status, err)
		return
	}
	WriteCachedResult(w, r, res, outcome)
}

// tableResult mirrors runResult for GET /table.
func (s *Server) tableResult(ctx context.Context, req *RunRequest) (*CachedResult, ResultOutcome, error) {
	key := "table|" + req.ResultKey()
	if s.results == nil {
		body, err := s.executeTable(ctx, req)
		if err != nil {
			return nil, ResultBypass, err
		}
		return &CachedResult{Key: key, ETag: ETagFor(key, body), Body: body}, ResultBypass, nil
	}
	return s.results.Do(ctx, key, func() ([]byte, error) {
		return s.executeTable(ctx, req)
	})
}

// WarmSuite renders and caches the whole-suite /table artifact for each
// given dispatch name (any name core.CanonicalDispatch accepts),
// so a daemon answers its first table request — and, through the shared
// compiled-program cache, first per-program runs — warm instead of paying
// the full sweep in request latency. Intended to run before serving starts;
// it uses the same admission, caches and metrics as a live request.
func (s *Server) WarmSuite(ctx context.Context, modes []string) error {
	for _, mode := range modes {
		if _, err := core.CanonicalDispatch(mode); err != nil {
			return fmt.Errorf("warm suite: %w", err)
		}
		// The request mirrors handleTable's exactly so the cached bytes key
		// identically to later GET /table traffic.
		req := &RunRequest{Dispatch: mode, SkipCheck: true}
		if _, _, err := s.tableResult(ctx, req); err != nil {
			return fmt.Errorf("warm suite (%s): %w", mode, err)
		}
	}
	return nil
}

// executeTable renders the Table 2/3 artifacts uncached. A table request
// occupies one admission slot for its whole suite sweep; the sweep itself
// fans out on an internal pool so the suite finishes in roughly
// max-program time rather than summed time.
func (s *Server) executeTable(ctx context.Context, req *RunRequest) ([]byte, error) {
	release, err := s.acquire(ctx, req.priority)
	if err != nil {
		return nil, err
	}
	defer release()

	rs, err := s.runSuite(ctx, req)
	if err != nil {
		return nil, err
	}
	return marshalResponse(TableResponse{
		Dispatch:  req.dispatchMode(),
		Programs:  len(rs),
		Table2:    core.Table2(rs),
		Table2CSV: core.Table2CSV(rs),
		Table3:    core.Table3(rs),
		Table3CSV: core.Table3CSV(rs),
	})
}

// runSuite runs every registered benchmark through the cache on a bounded
// internal pool, returning the keyed result set the table renderers
// consume. The first error wins; the context aborts the stragglers.
func (s *Server) runSuite(ctx context.Context, req *RunRequest) (core.ResultSet, error) {
	benches := s.cfg.Benchmarks()
	type item struct {
		name string
		res  *core.Result
		err  error
	}
	jobs := make(chan core.Benchmark)
	out := make(chan item, len(benches))
	workers := s.cfg.Workers
	if workers > len(benches) {
		workers = len(benches)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for bench := range jobs {
				name := bench.Name()
				if err := ctx.Err(); err != nil {
					out <- item{name: name, err: err}
					continue
				}
				one := *req
				one.Program = name
				comp, _, err := s.compiledFor(&one)
				if err != nil {
					out <- item{name: name, err: err}
					continue
				}
				res, err := core.RunCompiled(comp, one.options(ctx))
				if err != nil {
					out <- item{name: name, err: err}
					continue
				}
				s.metrics.recordRun(name, res.Report.DynamicInstructions, res.Wall)
				s.metrics.recordTraces(res.Traces)
				out <- item{name: name, res: res}
			}
		}()
	}
	for _, bench := range benches {
		jobs <- bench
	}
	close(jobs)
	wg.Wait()
	close(out)

	rs := make(core.ResultSet, len(benches))
	var firstErr error
	for it := range out {
		if it.err != nil {
			if firstErr == nil {
				firstErr = it.err
			}
			continue
		}
		rs[it.name] = it.res
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return rs, nil
}

func (s *Server) handlePrograms(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	benches := s.cfg.Benchmarks()
	resp := ProgramsResponse{
		Programs:      make([]ProgramInfo, 0, len(benches)),
		DispatchModes: core.DispatchNames(),
	}
	for _, b := range benches {
		resp.Programs = append(resp.Programs, ProgramInfo{
			Name: b.Name(), Base: b.Base, Version: b.Version,
			Kind: b.Kind, Descr: b.Descr,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshot())
}
