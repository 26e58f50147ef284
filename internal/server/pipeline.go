// The request pipeline both tiers serve. mmxd and mmxfleet answer /run,
// /asm, /campaign (+ /{id}, /{id}/events), /healthz and /metrics through
// this one implementation and differ only in their Executor: mmxd executes
// locally (worker-pool admission, the compiled-program LRU,
// core.RunCompiled, marshal), mmxfleet routes to a backend (rendezvous,
// retries, hedging, relay). Each /run or /asm request goes
//
//	method/drain check -> ReadBody -> body-digest memo -> strict parse and
//	Executor.Check -> tenant admit -> ResultCache.Do -> Executor.Execute ->
//	WriteCachedResult
//
// and every failure on the way is answered by Fail, the one place either
// tier maps an error to an HTTP status. Campaign points and the whole-suite
// fan-outs (/table on mmxd, /suite on mmxfleet) get their per-program
// reports through the same result path (runPoint), so caching, single
// flight and saturation retries are written once.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mmxdsp/internal/campaign"
	"mmxdsp/internal/core"
	"mmxdsp/internal/profile"
)

// Executor is the tier-specific half of the pipeline.
type Executor interface {
	// Check applies the tier's own limits to a freshly parsed /run or /asm
	// request before it is keyed: mmxd caps the instruction budget and
	// rejects unknown programs, mmxfleet leaves both to its backends. It
	// must be a pure function of the request and the tier's fixed
	// configuration, because the body memo remembers its outcome.
	Check(req *Request) error
	// Execute answers one request with its 200 body and the instructions
	// it simulated (the tenant's quota debit). Any other answer is an
	// error; a *StatusError carries one the tier decided itself, such as a
	// relayed backend response or a shed.
	Execute(ctx context.Context, req *Request) (body []byte, simulated int64, err error)
	// Programs lists the programs campaigns may name and suite fan-outs
	// run.
	Programs(ctx context.Context) ([]string, error)
	// Width bounds the concurrent programs of one fan-out, and of one
	// campaign when the tier sets no campaign worker count.
	Width() int
	// Ready reports why the tier cannot take work (nil when it can); a
	// non-nil answer makes /healthz 503.
	Ready() error
	// Metrics renders the tier's /metrics document.
	Metrics() any
}

// Request is one /run or /asm request on its way to an Executor: the body
// as received and parsed, and the identity of whoever asked.
type Request struct {
	Path string // "/run" or "/asm"
	Body []byte // as received; a router forwards it verbatim
	Run  *RunRequest
	Asm  *AsmRequest // set instead of Run on /asm

	ID       string // X-Request-ID, forwarded on every hop
	Tenant   string // accounting identity (TenantKey)
	Priority int    // PriorityInteractive or PriorityBulk
	// Header collects response headers for a freshly executed answer (the
	// router names its backend here); nil off the HTTP path.
	Header http.Header
}

// RequestOf returns the identity an HTTP request lends the work it starts:
// the X-Request-ID that WithRequestID stamped on the response, the tenant
// and the priority.
func RequestOf(w http.ResponseWriter, r *http.Request) *Request {
	return &Request{
		ID:       w.Header().Get(RequestIDHeader),
		Tenant:   TenantKey(r),
		Priority: parsePriority(r.Header.Get(PriorityHeader)),
		Header:   w.Header(),
	}
}

// run returns the request's run options (for /asm, its RunRequest view).
func (r *Request) run() *RunRequest {
	if r.Asm != nil {
		return r.Asm.runRequest()
	}
	return r.Run
}

// CacheKey is the routing affinity key of the parsed request.
func (r *Request) CacheKey() string {
	if r.Asm != nil {
		return r.Asm.CacheKey()
	}
	return r.Run.CacheKey()
}

// ResultKey is the result-cache key of the parsed request.
func (r *Request) ResultKey() string {
	if r.Asm != nil {
		return r.Asm.ResultKey()
	}
	return r.Run.ResultKey()
}

// PipelineConfig is what a tier's configuration resolves to for the shared
// pipeline; zero values select the documented defaults.
type PipelineConfig struct {
	// Results answers repeats from stored bytes; nil executes every
	// request. The body memo exists only alongside it, with its capacity.
	Results *ResultCache
	// MaxSourceBytes caps /asm listings (default DefaultMaxSourceBytes).
	MaxSourceBytes int
	// DefaultTimeout bounds requests that set no timeout_ms (0 = none).
	DefaultTimeout time.Duration
	// Tenants does per-tenant admission and accounting; nil admits
	// everything and accounts nothing, for a router whose backends do both.
	Tenants *TenantLimiter
	// CampaignDir, CampaignMaxPoints and CampaignMaxActive mean what they
	// mean on Config. CampaignWorkers bounds one campaign's concurrent
	// points; 0 selects Executor.Width at creation.
	CampaignDir       string
	CampaignMaxPoints int
	CampaignWorkers   int
	CampaignMaxActive int
}

// Pipeline is the shared serving half of a tier. Both tiers embed one and
// implement Executor.
type Pipeline struct {
	ex      Executor
	cfg     PipelineConfig
	mux     *http.ServeMux
	results *ResultCache // nil when result caching is disabled
	memo    *bodyMemo    // nil with results
	tenants *TenantLimiter
	counts  counters

	draining atomic.Bool
	// campaigns is the campaign registry; campaignCtx scopes running
	// campaigns to the tier's lifetime (canceled on drain, so campaigns
	// stop with the tier instead of outliving its HTTP requests).
	campaigns      *campaign.Store
	campaignCtx    context.Context
	campaignCancel context.CancelFunc
}

// NewPipeline builds the pipeline in front of ex and mounts its endpoints;
// the tier adds its own with Handle.
func NewPipeline(ex Executor, cfg PipelineConfig) *Pipeline {
	if cfg.MaxSourceBytes <= 0 {
		cfg.MaxSourceBytes = DefaultMaxSourceBytes
	}
	if cfg.CampaignMaxActive <= 0 {
		cfg.CampaignMaxActive = DefaultCampaignMaxActive
	}
	p := &Pipeline{
		ex:        ex,
		cfg:       cfg,
		mux:       http.NewServeMux(),
		results:   cfg.Results,
		tenants:   cfg.Tenants,
		campaigns: campaign.NewStore(cfg.CampaignMaxActive, 0),
	}
	if p.results != nil {
		p.memo = newBodyMemo(p.results.capacity)
	}
	p.campaignCtx, p.campaignCancel = context.WithCancel(context.Background())
	p.mux.Handle("/run", p.frontDoor("/run", MaxRequestBody, &p.counts.runRequests))
	p.mux.Handle("/asm", p.frontDoor("/asm", AsmBodyLimit(cfg.MaxSourceBytes), &p.counts.asmRequests))
	p.mux.HandleFunc("/campaign", p.handleCampaign)
	p.mux.HandleFunc("/campaign/", p.handleCampaignID)
	p.mux.HandleFunc("/healthz", p.handleHealthz)
	p.mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, p.ex.Metrics())
	})
	return p
}

// Handle mounts a tier-specific endpoint next to the shared ones.
func (p *Pipeline) Handle(pattern string, h http.HandlerFunc) { p.mux.Handle(pattern, h) }

// Handler returns the tier's HTTP handler. Every response carries an
// X-Request-ID, and every routed hop forwards it.
func (p *Pipeline) Handler() http.Handler { return WithRequestID(p.mux) }

// StartDrain flips the tier into drain mode: /healthz reports 503 so load
// balancers stop routing, and new work is refused with 503 while requests
// already admitted run to completion (http.Server.Shutdown then waits for
// those). Running campaigns are canceled — their points stop through the
// same context plumbing as any canceled run. The binaries call this on
// SIGTERM/SIGINT.
func (p *Pipeline) StartDrain() {
	p.draining.Store(true)
	p.campaignCancel()
}

// Draining reports whether StartDrain has been called.
func (p *Pipeline) Draining() bool { return p.draining.Load() }

// errDraining answers new work while the tier drains.
var errDraining = errors.New("server is draining")

// Accept admits a request to an endpoint that takes method, answering the
// 405 or the drain 503 itself when it does not.
func (p *Pipeline) Accept(w http.ResponseWriter, r *http.Request, method string) bool {
	switch {
	case r.Method != method:
		p.Fail(w, r.Context(), &StatusError{Status: http.StatusMethodNotAllowed, Err: fmt.Errorf("%s required", method)})
	case p.draining.Load():
		p.Fail(w, r.Context(), Unavailable(errDraining))
	default:
		return true
	}
	return false
}

// frontDoor returns the handler of a keyed POST endpoint: path names it
// (and is forwarded by a router), limit caps its body, and accepted counts
// the requests whose body was accepted.
func (p *Pipeline) frontDoor(path string, limit int, accepted *expvar.Int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !p.Accept(w, r, http.MethodPost) {
			return
		}
		body, err := ReadBody(r, limit)
		if err != nil {
			p.Fail(w, r.Context(), BadRequest(err))
			return
		}
		req := RequestOf(w, r)
		req.Path, req.Body = path, body
		keys, err := p.keysFor(req)
		if err != nil {
			p.Fail(w, r.Context(), err)
			return
		}
		accepted.Add(1)
		if err := p.tenants.Admit(req.Tenant, time.Now()); err != nil {
			p.Fail(w, r.Context(), err)
			return
		}
		var simulated int64
		defer func() { p.tenants.Release(req.Tenant, simulated) }()

		ctx, cancel := withTimeout(r.Context(), keys.timeout)
		defer cancel()
		res, outcome, err := p.result(ctx, req, keys.result, &simulated)
		if err != nil {
			p.Fail(w, ctx, err)
			return
		}
		WriteCachedResult(w, r, res, outcome)
	}
}

// withTimeout bounds ctx by d when d is positive.
func withTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}

// keysFor keys a front-door request, parsing its body at most once per
// distinct (path, body) while the memo remembers it. Parsing is a pure
// function of the path, the bytes and the tier's fixed limits, so a memo
// hit keys exactly as the parse would have; only successful parses are
// memoized, so every 400, 404 and 413 is derived fresh.
func (p *Pipeline) keysFor(req *Request) (memoKeys, error) {
	if p.memo == nil {
		return p.keysOf(req)
	}
	d := bodyDigest(req.Path, req.Body)
	if keys, ok := p.memo.get(d); ok {
		p.counts.memoHits.Add(1)
		return keys, nil
	}
	keys, err := p.keysOf(req)
	if err == nil {
		p.memo.put(d, keys)
	}
	return keys, err
}

// keysOf parses req and returns its keys.
func (p *Pipeline) keysOf(req *Request) (memoKeys, error) {
	if err := p.parse(req); err != nil {
		return memoKeys{}, err
	}
	return memoKeys{result: req.ResultKey(), timeout: req.run().timeout(p.cfg.DefaultTimeout)}, nil
}

// parse decodes req.Body strictly for req.Path and applies the executor's
// limits.
func (p *Pipeline) parse(req *Request) error {
	if req.Path == "/asm" {
		a, err := ParseAsmRequest(req.Body, p.cfg.MaxSourceBytes)
		if err != nil {
			return BadRequest(err)
		}
		req.Asm = a
	} else {
		rr, err := ParseRunRequest(req.Body)
		if err != nil {
			return BadRequest(err)
		}
		req.Run = rr
	}
	return p.ex.Check(req)
}

// result answers one keyed request through the result cache: a hit replays
// stored bytes without reaching the executor; a miss single-flights one
// execution. simulated receives the instructions the execution retired.
func (p *Pipeline) result(ctx context.Context, req *Request, key string, simulated *int64) (*CachedResult, ResultOutcome, error) {
	return p.do(ctx, key, func() ([]byte, error) {
		if req.Run == nil && req.Asm == nil {
			// A memo hit whose result has since been evicted.
			if err := p.parse(req); err != nil {
				return nil, err
			}
		}
		body, n, err := p.ex.Execute(ctx, req)
		*simulated = n
		var pe *core.PanicError
		if errors.As(err, &pe) {
			p.counts.runPanics.Add(1)
		}
		return body, err
	})
}

// do answers key through the result cache, or by running fill when result
// caching is off.
func (p *Pipeline) do(ctx context.Context, key string, fill func() ([]byte, error)) (*CachedResult, ResultOutcome, error) {
	if p.results == nil {
		body, err := fill()
		if err != nil {
			return nil, ResultBypass, err
		}
		return &CachedResult{Key: key, ETag: ETagFor(key, body), Body: body}, ResultBypass, nil
	}
	return p.results.Do(ctx, key, fill)
}

// pointRetries bounds the retries of a campaign point or suite program the
// tier sheds with 429; such work is patient, so brief saturation waits
// instead of failing it.
const pointRetries = 8

// runPoint answers one /run body on behalf of a campaign point or a suite
// program: the front door's path without the memo or tenant admission
// (the work it belongs to was admitted once), retried while the tier is
// saturated.
func (p *Pipeline) runPoint(ctx context.Context, req *Request) ([]byte, ResultOutcome, error) {
	if err := p.parse(req); err != nil {
		return nil, ResultMiss, err
	}
	key := req.ResultKey()
	ctx, cancel := withTimeout(ctx, req.run().timeout(p.cfg.DefaultTimeout))
	defer cancel()
	for attempt := 0; ; attempt++ {
		var simulated int64
		res, outcome, err := p.result(ctx, req, key, &simulated)
		if overloaded(err) && attempt < pointRetries {
			select {
			case <-time.After(time.Duration(50*(attempt+1)) * time.Millisecond):
				continue
			case <-ctx.Done():
				return nil, outcome, ctx.Err()
			}
		}
		if err != nil {
			return nil, outcome, err
		}
		return res.Body, outcome, nil
	}
}

// overloaded reports whether err is the tier shedding work it could take
// later: a full admission queue or a relayed 429.
func overloaded(err error) bool {
	var se *StatusError
	return errors.Is(err, errQueueFull) || (errors.As(err, &se) && se.Status == http.StatusTooManyRequests)
}

// Suite runs every named program with tmpl's options through runPoint,
// Executor.Width at a time, and gathers their reports: the fan-out behind
// mmxd's /table and mmxfleet's /suite. from lends the programs its request
// ID, tenant and priority. With identical reports the result set renders
// the same Table 2/3 bytes on either tier.
func (p *Pipeline) Suite(ctx context.Context, names []string, tmpl RunRequest, from *Request) (core.ResultSet, error) {
	reports := make([]*profile.Report, len(names))
	errs := make([]error, len(names))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(p.ex.Width(), len(names)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(names); i = int(next.Add(1) - 1) {
				reports[i], errs[i] = p.report(ctx, names[i], tmpl, from)
			}
		}()
	}
	wg.Wait()
	se := &suiteError{total: len(names)}
	for i, err := range errs {
		if err != nil {
			if se.first == nil {
				se.first = err
			}
			se.failed = append(se.failed, fmt.Sprintf("%s: %v", names[i], err))
		}
	}
	if se.first != nil {
		return nil, se
	}
	return core.ResultSetFromReports(reports), nil
}

// report runs one program of a suite fan-out and decodes its report.
func (p *Pipeline) report(ctx context.Context, name string, tmpl RunRequest, from *Request) (*profile.Report, error) {
	tmpl.Program = name
	body, err := json.Marshal(tmpl)
	if err != nil {
		return nil, err
	}
	req := &Request{Path: "/run", Body: body, ID: from.ID, Tenant: from.Tenant, Priority: from.Priority}
	data, _, err := p.runPoint(ctx, req)
	if err != nil {
		return nil, err
	}
	var env struct {
		Report *profile.Report `json:"report"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("decoding run response: %w", err)
	}
	if env.Report == nil {
		return nil, errors.New("run response carried no report")
	}
	return env.Report, nil
}

// suiteError is a fan-out whose programs failed: its message lists every
// failure, and it answers with the status of the first.
type suiteError struct {
	total  int
	failed []string
	first  error
}

func (e *suiteError) Error() string {
	return fmt.Sprintf("suite incomplete (%d of %d programs failed): %s",
		len(e.failed), e.total, strings.Join(e.failed, "; "))
}

func (e *suiteError) Unwrap() error { return e.first }

func (p *Pipeline) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if p.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if err := p.ex.Ready(); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}
