// Package cluster is the mmxfleet coordinator: a stateless-ish front for N
// mmxd backends that scales the simulation service horizontally. It serves
// the same request pipeline as mmxd (server.Pipeline: body reading and
// memo, parsing, result cache, campaigns, fan-outs, error answers) and
// differs from it only in its server.Executor: where mmxd simulates, the
// Coordinator routes. Tenant quotas are the backends': every routed
// request carries its tenant. It keeps a health-checked
// backend registry (periodic /healthz probes, exponential backoff between
// failed probes, a backend is dead after a streak of failures and
// re-admitted on the first success), routes each request by rendezvous
// (HRW) hashing on its affinity key so repeat requests land where the
// artifact is already compiled, and falls back to least-loaded routing
// when the affinity target is saturated or down.
//
// Per-request resilience: bounded retries with jittered backoff on
// connection errors and backend 429s, an optional hedged second request
// after a latency threshold, and coordinator-level shedding with
// Retry-After when no backend is routable. A backend's non-200 answer is
// relayed verbatim and never cached.
//
// Endpoints (the shared pipeline's, then the coordinator's own):
//
//	POST /run       route one benchmark run to a backend (mmxd schema)
//	POST /asm       route one user-submitted program by source hash
//	POST /campaign  shard an ablation-sweep grid across the fleet
//	                (plus GET/DELETE /campaign/{id}, GET /campaign/{id}/events)
//	GET  /healthz   coordinator liveness (503 when no backend is routable)
//	GET  /metrics   fleet-wide snapshot (FleetMetrics)
//	POST /suite     fan one full table run out across the fleet and
//	                reassemble byte-identical Table 2/3 artifacts
//	GET  /programs  capability discovery, proxied from the fleet
package cluster

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

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
	// /run and /asm response bytes (default 512; negative disables it). A
	// hit is answered locally — no backend round-trip — and /suite and
	// campaigns gather their per-program reports through the same cache.
	// Runs are deterministic, so cached bytes equal whatever a backend
	// would recompute.
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

// Coordinator fronts the fleet: the shared pipeline in front of the routing
// Executor. Create with New, start probing with Start, mount Handler.
type Coordinator struct {
	*server.Pipeline
	cfg      Config
	backends []*backend
	metrics  *fleetMetrics

	// programs caches the discovered program list (see discoverPrograms).
	programsMu sync.Mutex
	programs   []string

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
	c := &Coordinator{
		cfg:     cfg,
		metrics: &fleetMetrics{},
		stop:    make(chan struct{}),
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
	var results *server.ResultCache
	if cfg.ResultCacheEntries > 0 {
		results = server.NewResultCache(cfg.ResultCacheEntries, "")
	}
	// No tenant limiter: backends enforce quotas on the tenant every
	// routed request carries.
	c.Pipeline = server.NewPipeline(c, server.PipelineConfig{
		Results:           results,
		MaxSourceBytes:    cfg.MaxSourceBytes,
		CampaignDir:       cfg.CampaignDir,
		CampaignMaxPoints: cfg.CampaignMaxPoints,
		CampaignWorkers:   cfg.CampaignWorkers,
		CampaignMaxActive: cfg.CampaignMaxActive,
	})
	c.Handle("/suite", c.handleSuite)
	c.Handle("/programs", c.handlePrograms)
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
