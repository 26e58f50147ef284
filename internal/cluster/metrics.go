// Fleet observability. Same design as the daemon's metrics: expvar vars
// held on the Coordinator (not the process-global registry), rendered as
// one JSON document together with the per-backend registry view.
package cluster

import (
	"expvar"
	"net/http"
	"time"

	"mmxdsp/internal/campaign"
	"mmxdsp/internal/server"
)

// fleetMetrics is the coordinator's counter set.
type fleetMetrics struct {
	requests      expvar.Int // /run requests accepted for routing
	affinityHits  expvar.Int // routed to the HRW first choice
	fallbacks     expvar.Int // affinity target saturated, least-loaded used
	retries       expvar.Int // extra attempts after conn errors / 429s
	hedges        expvar.Int // hedged second requests launched
	hedgeWins     expvar.Int // hedges that answered before the primary
	shed          expvar.Int // 503s for "no routable backend"
	probeFailures expvar.Int
	deaths        expvar.Int // healthy/suspect -> dead transitions
	readmissions  expvar.Int // dead/suspect -> healthy transitions
	suiteRuns     expvar.Int // /suite scatter-gathers served
	suiteFailed   expvar.Int // /suite requests answered with an error status
	asmRequests   expvar.Int // /asm requests accepted for routing
	bulkShed      expvar.Int // bulk-priority 429s synthesized at saturation

	resultHits      expvar.Int // result-cache hits (no backend round-trip)
	resultMisses    expvar.Int // result-cache misses (routed to a backend)
	resultCoalesced expvar.Int // requests that waited on an identical in-flight miss
	bodyMemoHits    expvar.Int // /run and /asm bodies keyed without re-parsing

	// Campaign accounting: campaigns created, points settled by outcome,
	// and a dedicated latency window for per-point wall times (points are
	// batch work; they stay out of any interactive quantiles).
	campaignsTotal         expvar.Int
	campaignPoints         expvar.Int
	campaignPointsCached   expvar.Int
	campaignPointsFailed   expvar.Int
	campaignPointsCanceled expvar.Int
	campaignLatency        server.LatencyWindow
}

// recordCampaignPoint accounts one settled campaign point; it is the
// campaign.RunnerConfig.OnPoint hook on the fleet tier.
func (m *fleetMetrics) recordCampaignPoint(wall time.Duration, outcome string, cached bool) {
	m.campaignPoints.Add(1)
	switch outcome {
	case campaign.PointFailed:
		m.campaignPointsFailed.Add(1)
	case campaign.PointCanceled:
		m.campaignPointsCanceled.Add(1)
	default:
		if cached {
			m.campaignPointsCached.Add(1)
		}
		m.campaignLatency.Add(wall)
	}
}

// recordResult accounts one result-cache outcome for a routed /run or a
// gathered /suite program.
func (m *fleetMetrics) recordResult(outcome server.ResultOutcome) {
	switch outcome {
	case server.ResultHit, server.ResultSpillHit:
		m.resultHits.Add(1)
	case server.ResultCoalesced:
		m.resultCoalesced.Add(1)
	default:
		m.resultMisses.Add(1)
	}
}

func newFleetMetrics() *fleetMetrics { return &fleetMetrics{} }

// FleetMetrics is the JSON document served by the coordinator's /metrics.
type FleetMetrics struct {
	Backends []BackendStatus `json:"backends"`

	Requests     int64 `json:"requests"`
	AffinityHits int64 `json:"affinity_routed"`
	Fallbacks    int64 `json:"fallback_routed"`
	Retries      int64 `json:"retries"`
	Hedges       int64 `json:"hedges_launched"`
	HedgeWins    int64 `json:"hedge_wins"`
	Shed         int64 `json:"shed_503"`

	ProbeFailures int64 `json:"probe_failures"`
	Deaths        int64 `json:"backend_deaths"`
	Readmissions  int64 `json:"backend_readmissions"`
	SuiteRuns     int64 `json:"suite_runs"`
	SuiteFailed   int64 `json:"suite_failed"`

	// Multi-tenant front door: user-submitted /asm requests routed, and
	// bulk-priority requests shed with 429 when the whole fleet is saturated.
	AsmRequests int64 `json:"asm_requests"`
	BulkShed    int64 `json:"bulk_shed_429"`

	// Result-cache effectiveness (all zero when result caching is off).
	// JSON names match the daemon tier so tooling extracts both the same way.
	ResultHits      int64   `json:"result_cache_hits"`
	ResultMisses    int64   `json:"result_cache_misses"`
	ResultCoalesced int64   `json:"result_cache_coalesced"`
	ResultHitRate   float64 `json:"result_cache_hit_rate"`
	// BodyMemoHits counts /run and /asm requests keyed from the front
	// door's memo instead of a fresh parse (zero when result caching is
	// off).
	BodyMemoHits int64 `json:"body_memo_hits"`

	// Campaign accounting. JSON names match the daemon tier so tooling
	// extracts both the same way.
	CampaignsActive        int64   `json:"campaigns_active"`
	CampaignsTotal         int64   `json:"campaigns_total"`
	CampaignPoints         int64   `json:"campaign_points_total"`
	CampaignPointsCached   int64   `json:"campaign_points_cached"`
	CampaignPointsFailed   int64   `json:"campaign_points_failed"`
	CampaignPointsCanceled int64   `json:"campaign_points_canceled"`
	CampaignPointWallP50   float64 `json:"campaign_point_wall_ms_p50"`
	CampaignPointWallP99   float64 `json:"campaign_point_wall_ms_p99"`

	Draining bool `json:"draining"`
}

// Snapshot materializes the current fleet counters and registry view.
func (c *Coordinator) Snapshot() FleetMetrics {
	m := c.metrics
	hits := m.resultHits.Value()
	coalesced := m.resultCoalesced.Value()
	misses := m.resultMisses.Value()
	var hitRate float64
	if total := hits + coalesced + misses; total > 0 {
		hitRate = float64(hits+coalesced) / float64(total)
	}
	var campP50, campP99 float64
	if q := m.campaignLatency.Quantiles(0.50, 0.99); q != nil {
		campP50, campP99 = q[0], q[1]
	}
	return FleetMetrics{
		Backends:      c.Backends(),
		Requests:      m.requests.Value(),
		AffinityHits:  m.affinityHits.Value(),
		Fallbacks:     m.fallbacks.Value(),
		Retries:       m.retries.Value(),
		Hedges:        m.hedges.Value(),
		HedgeWins:     m.hedgeWins.Value(),
		Shed:          m.shed.Value(),
		ProbeFailures: m.probeFailures.Value(),
		Deaths:        m.deaths.Value(),
		Readmissions:  m.readmissions.Value(),
		SuiteRuns:     m.suiteRuns.Value(),
		SuiteFailed:   m.suiteFailed.Value(),
		AsmRequests:   m.asmRequests.Value(),
		BulkShed:      m.bulkShed.Value(),

		ResultHits:      hits,
		ResultMisses:    misses,
		ResultCoalesced: coalesced,
		ResultHitRate:   hitRate,
		BodyMemoHits:    m.bodyMemoHits.Value(),

		CampaignsActive:        int64(c.campaigns.Active()),
		CampaignsTotal:         m.campaignsTotal.Value(),
		CampaignPoints:         m.campaignPoints.Value(),
		CampaignPointsCached:   m.campaignPointsCached.Value(),
		CampaignPointsFailed:   m.campaignPointsFailed.Value(),
		CampaignPointsCanceled: m.campaignPointsCanceled.Value(),
		CampaignPointWallP50:   campP50,
		CampaignPointWallP99:   campP99,

		Draining: c.draining.Load(),
	}
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Snapshot())
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if c.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if len(c.routableBackends()) == 0 {
		http.Error(w, "no routable backends", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}
