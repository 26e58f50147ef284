// Fleet observability. Same design as the daemon's metrics: expvar vars
// held on the Coordinator (not the process-global registry), rendered as
// one JSON document together with the per-backend registry view and the
// shared pipeline's counters (server.PipelineStats).
package cluster

import (
	"expvar"

	"mmxdsp/internal/server"
)

// fleetMetrics is the routing Executor's counter set.
type fleetMetrics struct {
	affinityHits  expvar.Int // routed to the HRW first choice
	fallbacks     expvar.Int // affinity target saturated, least-loaded used
	retries       expvar.Int // extra attempts after conn errors / 429s
	hedges        expvar.Int // hedged second requests launched
	hedgeWins     expvar.Int // hedges that answered before the primary
	probeFailures expvar.Int
	deaths        expvar.Int // healthy/suspect -> dead transitions
	readmissions  expvar.Int // dead/suspect -> healthy transitions
	suiteRuns     expvar.Int // /suite fan-outs served
	suiteFailed   expvar.Int // /suite requests answered with an error status
	bulkShed      expvar.Int // bulk-priority 429s synthesized at saturation
}

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

	// Multi-tenant front door: user-submitted /asm requests accepted, and
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

	// Campaign accounting, in the daemon tier's JSON names.
	server.CampaignMetrics

	Draining bool `json:"draining"`
}

// Snapshot materializes the current fleet counters and registry view.
func (c *Coordinator) Snapshot() FleetMetrics {
	m := c.metrics
	ps := c.Stats()
	rs := ps.Results
	return FleetMetrics{
		Backends:      c.Backends(),
		Requests:      ps.RunRequests,
		AffinityHits:  m.affinityHits.Value(),
		Fallbacks:     m.fallbacks.Value(),
		Retries:       m.retries.Value(),
		Hedges:        m.hedges.Value(),
		HedgeWins:     m.hedgeWins.Value(),
		Shed:          ps.Shed,
		ProbeFailures: m.probeFailures.Value(),
		Deaths:        m.deaths.Value(),
		Readmissions:  m.readmissions.Value(),
		SuiteRuns:     m.suiteRuns.Value(),
		SuiteFailed:   m.suiteFailed.Value(),
		AsmRequests:   ps.AsmRequests,
		BulkShed:      m.bulkShed.Value(),

		ResultHits:      int64(rs.Hits + rs.SpillHits),
		ResultMisses:    int64(rs.Misses),
		ResultCoalesced: int64(rs.Coalesced),
		ResultHitRate:   rs.HitRate(),
		BodyMemoHits:    ps.MemoHits,

		CampaignMetrics: ps.Campaigns,

		Draining: ps.Draining,
	}
}
