// Package cluster is the mmxfleet coordinator: a stateless-ish front for N
// mmxd backends that scales the simulation service horizontally. It keeps
// a health-checked backend registry (periodic /healthz probes, exponential
// backoff between failed probes, a backend is dead after a streak of
// failures and re-admitted on the first success), routes each POST /run by
// rendezvous (HRW) hashing on the compiled-cache key so repeat requests
// land where the artifact is already compiled, and falls back to
// least-loaded routing when the affinity target is saturated or down.
//
// Per-request resilience: bounded retries with jittered backoff on
// connection errors and backend 429s, an optional hedged second request
// after a latency threshold, and coordinator-level shedding with
// Retry-After when no backend is routable. POST /suite scatter-gathers one
// full table run across the fleet and reassembles byte-identical Table 2/3
// artifacts through core's existing comparison path.
//
// Endpoints:
//
//	POST /run       route one benchmark run to a backend (mmxd schema)
//	POST /asm       route one user-submitted program by source hash
//	POST /suite     scatter-gather a full table run across the fleet
//	POST /campaign  shard an ablation-sweep grid across the fleet
//	                (plus GET/DELETE /campaign/{id}, GET /campaign/{id}/events)
//	GET  /programs  capability discovery, proxied from the fleet
//	GET  /healthz   coordinator liveness (503 when no backend is routable)
//	GET  /metrics   fleet-wide snapshot (FleetMetrics)
package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"mmxdsp/internal/campaign"
	"mmxdsp/internal/server"
)

// Config tunes the coordinator; zero values select the documented
// defaults.
type Config struct {
	// Backends lists the mmxd base URLs (e.g. "http://127.0.0.1:8931").
	// At least one is required.
	Backends []string

	// ProbeInterval spaces periodic health probes (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round-trip (default 1s).
	ProbeTimeout time.Duration
	// FailThreshold is the consecutive-probe-failure streak after which a
	// backend is marked dead (default 3). Probes continue — with
	// exponential backoff up to MaxProbeBackoff — and the first success
	// re-admits the backend.
	FailThreshold int
	// MaxProbeBackoff caps the probe backoff for failing backends
	// (default 30s).
	MaxProbeBackoff time.Duration

	// Retries is the per-request retry budget after the first attempt,
	// spent on connection errors and backend 429s (default 2). Each retry
	// goes to the next backend in affinity order.
	Retries int
	// RetryBackoff is the base of the jittered exponential backoff between
	// attempts (default 25ms).
	RetryBackoff time.Duration
	// HedgeAfter, when positive, arms a hedged second request to the
	// next-choice backend if the first has not answered within the
	// threshold. Runs are deterministic and side-effect-free on the
	// backend (idempotent), so the faster answer simply wins.
	HedgeAfter time.Duration

	// MaxInflight, when positive, marks a backend saturated once the
	// coordinator has that many requests outstanding to it, diverting
	// affinity traffic to the least-loaded backend.
	MaxInflight int64
	// QueueSaturation marks a backend saturated when its last-probed
	// admission-queue depth reaches this value (default 16; negative
	// disables the check).
	QueueSaturation int64

	// MaxSourceBytes bounds the source listing accepted by POST /asm before
	// it is routed (default server.DefaultMaxSourceBytes). Backends enforce
	// their own cap too; rejecting here saves the round-trip.
	MaxSourceBytes int

	// ResultCacheEntries bounds the coordinator's result cache of marshaled
	// /run response bytes (default 512; negative disables it). A hit is
	// answered locally — no backend round-trip — and /suite gathers its
	// per-program reports through the same cache. Runs are deterministic,
	// so cached bytes equal whatever a backend would recompute.
	ResultCacheEntries int

	// CampaignDir, when non-empty, persists completed campaigns'
	// sensitivity artifacts under CampaignDir/<id>/ with atomic writes.
	CampaignDir string
	// CampaignMaxPoints bounds one campaign's expanded grid (default
	// server.DefaultCampaignMaxPoints).
	CampaignMaxPoints int
	// CampaignWorkers bounds one campaign's concurrently routed points
	// (default 2*routable backends + 2, resolved per campaign).
	CampaignWorkers int
	// CampaignMaxActive bounds concurrently running campaigns before
	// POST /campaign answers 429 (default server.DefaultCampaignMaxActive).
	CampaignMaxActive int

	// Client issues backend requests; nil selects a pooled default with no
	// overall timeout (per-request contexts bound each call).
	Client *http.Client
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.MaxProbeBackoff <= 0 {
		cfg.MaxProbeBackoff = 30 * time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 25 * time.Millisecond
	}
	if cfg.QueueSaturation == 0 {
		cfg.QueueSaturation = 16
	}
	if cfg.MaxSourceBytes <= 0 {
		cfg.MaxSourceBytes = server.DefaultMaxSourceBytes
	}
	if cfg.ResultCacheEntries == 0 {
		cfg.ResultCacheEntries = 512
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
		}}
	}
	return cfg
}

// Coordinator fronts the fleet. Create with New, start probing with Start,
// mount Handler.
type Coordinator struct {
	cfg      Config
	backends []*backend
	results  *server.ResultCache // nil when result caching is disabled
	memo     *bodyMemo           // parsed /run and /asm keys; nil with results
	metrics  *fleetMetrics
	mux      *http.ServeMux

	draining atomic.Bool

	// programs caches the discovered program list (see discoverPrograms).
	programsMu sync.Mutex
	programs   []string

	// campaigns is the campaign registry; campaignCtx scopes running
	// campaigns to the coordinator lifetime (canceled on drain).
	campaigns      *campaign.Store
	campaignCtx    context.Context
	campaignCancel context.CancelFunc

	stopOnce sync.Once
	stop     chan struct{}
	proberWG sync.WaitGroup
}

// New builds a Coordinator over the configured backends.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends configured")
	}
	if cfg.CampaignMaxActive <= 0 {
		cfg.CampaignMaxActive = server.DefaultCampaignMaxActive
	}
	c := &Coordinator{
		cfg:       cfg,
		metrics:   newFleetMetrics(),
		stop:      make(chan struct{}),
		campaigns: campaign.NewStore(cfg.CampaignMaxActive, 0),
	}
	c.campaignCtx, c.campaignCancel = context.WithCancel(context.Background())
	if cfg.ResultCacheEntries > 0 {
		c.results = server.NewResultCache(cfg.ResultCacheEntries, "")
		c.memo = newBodyMemo(cfg.ResultCacheEntries)
	}
	seen := map[string]bool{}
	for _, raw := range cfg.Backends {
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: bad backend URL %q", raw)
		}
		base := u.Scheme + "://" + u.Host
		if seen[base] {
			return nil, fmt.Errorf("cluster: duplicate backend %q", base)
		}
		seen[base] = true
		c.backends = append(c.backends, newBackend(base))
	}
	c.mux = http.NewServeMux()
	c.mux.Handle("/run", c.frontDoor("/run", server.MaxRequestBody, parseRunKeys, &c.metrics.requests))
	c.mux.Handle("/asm", c.frontDoor("/asm", server.AsmBodyLimit(cfg.MaxSourceBytes), c.asmKeys, &c.metrics.asmRequests))
	c.mux.HandleFunc("/suite", c.handleSuite)
	c.mux.HandleFunc("/campaign", c.handleCampaign)
	c.mux.HandleFunc("/campaign/", c.handleCampaignID)
	c.mux.HandleFunc("/programs", c.handlePrograms)
	c.mux.HandleFunc("/healthz", c.handleHealthz)
	c.mux.HandleFunc("/metrics", c.handleMetrics)
	return c, nil
}

// Start launches the health prober. Stop ends it.
func (c *Coordinator) Start() {
	c.proberWG.Add(1)
	go c.probeLoop()
}

// Stop halts the prober and waits for it to exit. Safe to call more than
// once.
func (c *Coordinator) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.proberWG.Wait()
}

// StartDrain flips the coordinator into drain mode: /healthz reports 503
// and new requests are refused while in-flight ones finish. Running
// campaigns are canceled so their point routing stops with the
// coordinator.
func (c *Coordinator) StartDrain() {
	c.draining.Store(true)
	c.campaignCancel()
}

// Handler returns the coordinator's HTTP handler. Every response carries
// an X-Request-ID, propagated to (and echoed by) the backends a request is
// routed to.
func (c *Coordinator) Handler() http.Handler { return server.WithRequestID(c.mux) }

// Backends returns the registry's current view, for logs and tests.
func (c *Coordinator) Backends() []BackendStatus {
	out := make([]BackendStatus, len(c.backends))
	for i, b := range c.backends {
		out[i] = b.status()
	}
	return out
}

// jitter returns d scaled by a uniform factor in [0.5, 1.5) — enough
// spread to break retry synchronization across clients.
func jitter(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}
