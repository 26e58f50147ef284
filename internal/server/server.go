// Package server is the mmxd simulation service: an HTTP/JSON daemon that
// serves simulated Pentium-with-MMX benchmark runs on top of the
// concurrent suite runner, and the request pipeline the mmxfleet
// coordinator (internal/cluster) shares with it.
//
// The pipeline (pipeline.go) is the serving path of both tiers: body
// reading, the body-digest memo, strict parsing, tenant admission, the
// result cache, campaigns, the whole-suite fan-out and error answers. The
// tiers differ only in their Executor — the one step that turns an
// accepted request into response bytes. The daemon's Server is the local
// Executor: it bounds concurrency with a worker pool plus an admission
// queue that sheds load with 429s, amortizes program construction with a
// bounded LRU of compiled artifacts, threads per-request contexts into the
// interpreter's poll hook so deadlines, client disconnects and drain all
// halt simulation mid-run, and exposes its internals through /metrics.
//
// Endpoints (the pipeline's, then the daemon's own):
//
//	POST /run       run one benchmark (RunRequest -> RunResponse)
//	POST /asm       run a submitted listing (AsmRequest -> AsmResponse)
//	POST /campaign  run an ablation-sweep grid (plus GET/DELETE
//	                /campaign/{id} and GET /campaign/{id}/events)
//	GET  /healthz   liveness (503 while draining)
//	GET  /metrics   JSON counter snapshot (MetricsSnapshot)
//	GET  /table     run the suite, return the paper's Table 2/3 artifacts
//	GET  /programs  the program registry (ProgramsResponse) — capability
//	                discovery for coordinators fronting several daemons
//
// Every response carries an X-Request-ID header: the client's value when
// supplied, a generated one otherwise. Error paths included — the ID is
// stamped before the handler runs, so fleet logs can correlate a request
// across a coordinator and the backend it was routed (or hedged) to.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"mmxdsp/internal/core"
	"mmxdsp/internal/suite"
)

// Config tunes the daemon; zero values select the documented defaults.
type Config struct {
	// CacheEntries bounds the compiled-program LRU (default 64 — the full
	// suite, with room for submitted /asm listings).
	CacheEntries int
	// ResultCacheEntries bounds the result-cache LRU of marshaled response
	// bytes (default 512; negative disables result caching). Simulation is
	// deterministic, so a cached response is byte-identical to re-running.
	ResultCacheEntries int
	// ResultCacheDir, when non-empty, enables the persistent result spill
	// tier: cached responses are also written there and survive daemon
	// restarts. Ignored when result caching is disabled.
	ResultCacheDir string
	// ResultCacheSpillMaxBytes and ResultCacheSpillMaxFiles bound the spill
	// directory (0 = unlimited): after each spill write, oldest-modified
	// result files are deleted until both bounds hold. Ignored without
	// ResultCacheDir.
	ResultCacheSpillMaxBytes int64
	ResultCacheSpillMaxFiles int
	// Workers bounds concurrently executing simulations (default
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker slot; beyond it the
	// server answers 429 (default 64).
	QueueDepth int
	// DefaultTimeout applies to requests that set no timeout_ms; 0 means
	// no server-imposed deadline.
	DefaultTimeout time.Duration
	// MaxInstrsCap, when positive, caps (and defaults) every request's
	// instruction budget, protecting the daemon from unbounded synthetic
	// programs.
	MaxInstrsCap int64
	// AsmMaxInstrsCap caps (and defaults) POST /asm instruction budgets.
	// User-submitted programs may loop forever, so this cap is always on:
	// 0 selects DefaultAsmMaxInstrs, negative disables (trusted setups
	// only). When MaxInstrsCap is also set the tighter bound wins.
	AsmMaxInstrsCap int64
	// MaxSourceBytes caps POST /asm source listings; beyond it the server
	// answers 413. 0 selects DefaultMaxSourceBytes.
	MaxSourceBytes int
	// Tenant configures per-tenant accounting (rate, concurrency and
	// instruction quotas) for /run and /asm; the zero value admits
	// everything but still records per-tenant counters.
	Tenant TenantLimits
	// CampaignDir, when non-empty, persists completed campaigns'
	// sensitivity artifacts (points.csv + sensitivity.md) under
	// CampaignDir/<id>/ with atomic writes.
	CampaignDir string
	// CampaignMaxPoints bounds one campaign's expanded grid (default
	// DefaultCampaignMaxPoints).
	CampaignMaxPoints int
	// CampaignWorkers bounds one campaign's concurrent points (default
	// DefaultCampaignWorkers); points still queue through the ordinary
	// admission pool.
	CampaignWorkers int
	// CampaignMaxActive bounds concurrently running campaigns (default
	// DefaultCampaignMaxActive); beyond it POST /campaign answers 429.
	CampaignMaxActive int
	// Lookup resolves program names; nil selects the suite registry.
	// Tests substitute synthetic registries (e.g. non-terminating
	// programs for cancellation coverage).
	Lookup func(string) (core.Benchmark, bool)
	// Benchmarks lists the programs /table runs; nil selects the full
	// suite.
	Benchmarks func() []core.Benchmark
}

// Server is one daemon instance: the shared Pipeline in front of the local
// Executor. Create with New; it is ready to serve as soon as Handler is
// mounted.
type Server struct {
	*Pipeline
	cfg     Config
	cache   *codeCache
	metrics *metrics

	// admit is the worker pool: bounded concurrency plus a two-priority
	// admission queue that sheds bulk traffic first (see admit.go).
	admit *admitter
}

// New builds a Server from the configuration.
func New(cfg Config) *Server {
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 64
	}
	if cfg.ResultCacheEntries == 0 {
		cfg.ResultCacheEntries = 512
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Lookup == nil {
		cfg.Lookup = suite.ByName
	}
	if cfg.Benchmarks == nil {
		cfg.Benchmarks = suite.All
	}
	if cfg.AsmMaxInstrsCap == 0 {
		cfg.AsmMaxInstrsCap = DefaultAsmMaxInstrs
	}
	if cfg.CampaignWorkers <= 0 {
		cfg.CampaignWorkers = DefaultCampaignWorkers
	}
	s := &Server{
		cfg:     cfg,
		cache:   newCodeCache(cfg.CacheEntries),
		metrics: newMetrics(),
		admit:   newAdmitter(cfg.Workers, cfg.QueueDepth),
	}
	var results *ResultCache
	if cfg.ResultCacheEntries > 0 {
		results = NewResultCache(cfg.ResultCacheEntries, cfg.ResultCacheDir)
		results.SetSpillLimits(cfg.ResultCacheSpillMaxBytes, cfg.ResultCacheSpillMaxFiles)
	}
	s.Pipeline = NewPipeline(s, PipelineConfig{
		Results:           results,
		MaxSourceBytes:    cfg.MaxSourceBytes,
		DefaultTimeout:    cfg.DefaultTimeout,
		Tenants:           NewTenantLimiter(cfg.Tenant),
		CampaignDir:       cfg.CampaignDir,
		CampaignMaxPoints: cfg.CampaignMaxPoints,
		CampaignWorkers:   cfg.CampaignWorkers,
		CampaignMaxActive: cfg.CampaignMaxActive,
	})
	s.Handle("/table", s.handleTable)
	s.Handle("/programs", s.handlePrograms)
	return s
}

// Check is the local half of request validation: it applies the
// instruction-budget caps and rejects unknown programs, so unknown names
// stay cheap 404s that never reach admission.
func (s *Server) Check(req *Request) error {
	var err error
	if req.Asm != nil {
		if req.Asm.MaxInstrs, err = s.capAsmInstrs(req.Asm.MaxInstrs); err != nil {
			return BadRequest(err)
		}
		return nil
	}
	if req.Run.MaxInstrs, err = s.capInstrs(req.Run.MaxInstrs); err != nil {
		return BadRequest(err)
	}
	if _, ok := s.cfg.Lookup(req.Run.Program); !ok {
		return &StatusError{Status: http.StatusNotFound, Err: fmt.Errorf("unknown program %q", req.Run.Program)}
	}
	return nil
}

// Execute runs one request on this daemon: a worker slot (compilation
// happens under it, so a flood of cold requests sheds before doing compile
// work), the compiled program, one interpreter run, the marshaled answer.
func (s *Server) Execute(ctx context.Context, req *Request) ([]byte, int64, error) {
	release, err := s.acquire(ctx, req.Priority)
	if err != nil {
		return nil, 0, err
	}
	defer release()
	if req.Asm != nil {
		return s.executeAsm(ctx, req.Asm)
	}
	return s.executeRun(ctx, req.Run)
}

// Programs lists the registry /table runs and campaigns may name.
func (s *Server) Programs(context.Context) ([]string, error) {
	benches := s.cfg.Benchmarks()
	names := make([]string, len(benches))
	for i, b := range benches {
		names[i] = b.Name()
	}
	return names, nil
}

// Width is the worker-pool size: a /table fan-out keeps every slot busy
// and no more.
func (s *Server) Width() int { return s.cfg.Workers }

// Ready always holds: a daemon that is not draining takes work.
func (s *Server) Ready() error { return nil }

// Metrics is the /metrics document (MetricsSnapshot).
func (s *Server) Metrics() any { return s.snapshot() }

// acquire admits one request into the worker pool at the given priority,
// queueing up to cfg.QueueDepth waiters (bulk capped to half). The release
// function must be called exactly once after the run retires.
func (s *Server) acquire(ctx context.Context, priority int) (release func(), err error) {
	release, err = s.admit.acquire(ctx, priority)
	if errors.Is(err, errQueueFull) {
		s.metrics.rejected.Add(1)
	}
	return release, err
}

// capInstrs applies the server-side instruction-budget ceiling.
func (s *Server) capInstrs(req int64) (int64, error) {
	if s.cfg.MaxInstrsCap <= 0 {
		return req, nil
	}
	if req == 0 {
		return s.cfg.MaxInstrsCap, nil
	}
	if req > s.cfg.MaxInstrsCap {
		return 0, fmt.Errorf("max_instrs %d exceeds the server cap %d", req, s.cfg.MaxInstrsCap)
	}
	return req, nil
}

// compiledFor resolves a benchmark through the compiled-program cache.
func (s *Server) compiledFor(req *RunRequest) (*core.Compiled, bool, error) {
	bench, ok := s.cfg.Lookup(req.Program)
	if !ok {
		return nil, false, fmt.Errorf("unknown program %q", req.Program)
	}
	return s.cache.get(req.Program, func() (*core.Compiled, error) {
		return core.CompileBenchmark(bench)
	})
}
