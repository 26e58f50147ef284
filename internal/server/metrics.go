// Observability. Counters are expvar vars held on the Server and its
// Pipeline (not the process-global expvar registry, which panics on
// duplicate names and would make the daemon untestable side by side). The
// pipeline's counters — requests, answers by kind, campaigns — are the same
// on both tiers (PipelineStats); mmxd's /metrics renders them as one JSON
// document together with the local executor's gauges — queue depth, cache
// hit rate, per-benchmark run counts, aggregate simulated instr/s, and
// p50/p99 wall-time quantiles over a sliding window.
package server

import (
	"expvar"
	"sort"
	"sync"
	"time"

	"mmxdsp/internal/campaign"
	"mmxdsp/internal/vm"
)

// latencyWindowSize bounds the sliding window the wall-time quantiles are
// computed over; at serving rates this covers the recent past without
// unbounded growth.
const latencyWindowSize = 1024

// LatencyWindow is a fixed-size ring of recent wall times; the p50/p99
// gauges of run and campaign-point wall times derive from one each.
type LatencyWindow struct {
	mu   sync.Mutex
	buf  [latencyWindowSize]float64 // milliseconds
	n    int                        // filled slots
	next int                        // ring cursor
}

// Add records one wall-time sample.
func (l *LatencyWindow) Add(d time.Duration) {
	ms := float64(d.Nanoseconds()) / 1e6
	l.mu.Lock()
	l.buf[l.next] = ms
	l.next = (l.next + 1) % latencyWindowSize
	if l.n < latencyWindowSize {
		l.n++
	}
	l.mu.Unlock()
}

// Quantiles returns the requested quantiles (0..1) in milliseconds, nil
// when the window is empty.
func (l *LatencyWindow) Quantiles(qs ...float64) []float64 {
	l.mu.Lock()
	samples := append([]float64(nil), l.buf[:l.n]...)
	l.mu.Unlock()
	if len(samples) == 0 {
		return nil
	}
	sort.Float64s(samples)
	out := make([]float64, len(qs))
	for i, q := range qs {
		idx := int(q * float64(len(samples)-1))
		out[i] = samples[idx]
	}
	return out
}

// metrics is the local executor's counter set.
type metrics struct {
	runsOK     expvar.Int
	runsByName expvar.Map // per-benchmark completed run counts

	rejected expvar.Int // 429s from admission-queue overflow
	asmRuns  expvar.Int // user-submitted programs actually simulated

	instrs expvar.Int // simulated instructions retired across all runs
	wallNS expvar.Int // host nanoseconds spent inside cpu.Run

	// Trace-dispatch aggregates, summed over every served run:
	// superblocks formed, tree child paths attached, and the
	// iteration/exit split the side-exit rate derives from.
	tracesFormed expvar.Int
	treeNodes    expvar.Int
	traceIters   expvar.Int
	traceExits   expvar.Int

	latency LatencyWindow
}

func newMetrics() *metrics {
	m := &metrics{}
	m.runsByName.Init()
	return m
}

// recordRun accounts one completed (successful) run.
func (m *metrics) recordRun(name string, instrs uint64, wall time.Duration) {
	m.runsOK.Add(1)
	m.runsByName.Add(name, 1)
	m.instrs.Add(int64(instrs))
	m.wallNS.Add(wall.Nanoseconds())
	m.latency.Add(wall)
}

// recordTraces folds one run's trace-dispatch stats into the aggregates.
// A run that formed no trace contributes nothing (it has no iterations,
// exits or tree nodes).
func (m *metrics) recordTraces(ts vm.TraceStats) {
	if ts.Formed == 0 {
		return
	}
	m.tracesFormed.Add(int64(ts.Formed))
	m.treeNodes.Add(int64(ts.TreeNodes))
	m.traceIters.Add(int64(ts.Iters))
	m.traceExits.Add(int64(ts.Exits))
}

// counters is the shared pipeline's counter set.
type counters struct {
	runRequests expvar.Int // /run bodies accepted
	asmRequests expvar.Int // /asm bodies accepted
	memoHits    expvar.Int // bodies keyed without re-parsing

	shed       expvar.Int // 503s: drain, or no backend reachable
	canceled   expvar.Int // answers ended by a deadline, disconnect or drain
	failed     expvar.Int // 500s
	tenantShed expvar.Int // 429s from per-tenant quotas (tenant.go)
	runPanics  expvar.Int // executions that panicked (core.PanicError)

	// Campaign accounting: campaigns created, points settled by outcome,
	// and a separate latency window for per-point wall times (campaign
	// points are batch work; mixing them into a request window would skew
	// interactive p99s).
	campaignsTotal         expvar.Int
	campaignPoints         expvar.Int
	campaignPointsCached   expvar.Int
	campaignPointsFailed   expvar.Int
	campaignPointsCanceled expvar.Int
	campaignLatency        LatencyWindow
}

// recordCampaignPoint accounts one settled campaign point; it is the
// campaign.RunnerConfig.OnPoint hook.
func (c *counters) recordCampaignPoint(wall time.Duration, outcome string, cached bool) {
	c.campaignPoints.Add(1)
	switch outcome {
	case campaign.PointFailed:
		c.campaignPointsFailed.Add(1)
	case campaign.PointCanceled:
		c.campaignPointsCanceled.Add(1)
	default:
		if cached {
			c.campaignPointsCached.Add(1)
		}
		c.campaignLatency.Add(wall)
	}
}

// CampaignMetrics is the campaign block of both tiers' /metrics: running
// and lifetime campaigns, and settled points by outcome with their own
// wall-time quantiles.
type CampaignMetrics struct {
	CampaignsActive        int64   `json:"campaigns_active"`
	CampaignsTotal         int64   `json:"campaigns_total"`
	CampaignPoints         int64   `json:"campaign_points_total"`
	CampaignPointsCached   int64   `json:"campaign_points_cached"`
	CampaignPointsFailed   int64   `json:"campaign_points_failed"`
	CampaignPointsCanceled int64   `json:"campaign_points_canceled"`
	CampaignPointWallP50   float64 `json:"campaign_point_wall_ms_p50"`
	CampaignPointWallP99   float64 `json:"campaign_point_wall_ms_p99"`
}

// PipelineStats is what the shared pipeline counts; each tier's /metrics
// document reports its share.
type PipelineStats struct {
	RunRequests, AsmRequests int64 // bodies accepted at /run and /asm
	MemoHits                 int64
	MemoEntries              int
	Shed, Canceled, Failed   int64
	TenantShed, RunPanics    int64
	Tenants                  map[string]TenantStats
	Results                  ResultCacheStats // zero when result caching is off
	Campaigns                CampaignMetrics
	Draining                 bool
}

// Stats snapshots the pipeline's counters.
func (p *Pipeline) Stats() PipelineStats {
	c := &p.counts
	ps := PipelineStats{
		RunRequests: c.runRequests.Value(),
		AsmRequests: c.asmRequests.Value(),
		MemoHits:    c.memoHits.Value(),
		Shed:        c.shed.Value(),
		Canceled:    c.canceled.Value(),
		Failed:      c.failed.Value(),
		TenantShed:  c.tenantShed.Value(),
		RunPanics:   c.runPanics.Value(),
		Tenants:     p.tenants.Stats(),
		Campaigns: CampaignMetrics{
			CampaignsActive:        int64(p.campaigns.Active()),
			CampaignsTotal:         c.campaignsTotal.Value(),
			CampaignPoints:         c.campaignPoints.Value(),
			CampaignPointsCached:   c.campaignPointsCached.Value(),
			CampaignPointsFailed:   c.campaignPointsFailed.Value(),
			CampaignPointsCanceled: c.campaignPointsCanceled.Value(),
		},
		Draining: p.draining.Load(),
	}
	if q := c.campaignLatency.Quantiles(0.50, 0.99); q != nil {
		ps.Campaigns.CampaignPointWallP50, ps.Campaigns.CampaignPointWallP99 = q[0], q[1]
	}
	if p.results != nil {
		ps.Results = p.results.Stats()
		ps.MemoEntries = p.memo.len()
	}
	return ps
}

// instrsPerSec returns the aggregate simulated throughput over all served
// runs (simulated instructions per host second inside the interpreter).
func (m *metrics) instrsPerSec() float64 {
	ns := m.wallNS.Value()
	if ns <= 0 {
		return 0
	}
	return float64(m.instrs.Value()) / (float64(ns) / 1e9)
}

// MetricsSnapshot is the JSON document served by /metrics.
type MetricsSnapshot struct {
	QueueDepth   int64   `json:"queue_depth"`
	ActiveRuns   int64   `json:"active_runs"`
	Rejected     int64   `json:"rejected_429"`
	Canceled     int64   `json:"canceled_runs"`
	RunsOK       int64   `json:"runs_ok"`
	RunsFailed   int64   `json:"runs_failed"`
	InstrsPerSec float64 `json:"instrs_per_sec"`
	// RunPanics counts runs that panicked (each answered 500, never
	// cached).
	RunPanics int64 `json:"run_panics"`

	// Multi-tenant accounting: user-submitted (/asm) runs simulated,
	// per-tenant quota 429s, and per-tenant admission counters.
	AsmRuns    int64                  `json:"asm_runs"`
	TenantShed int64                  `json:"tenant_shed_429"`
	Tenants    map[string]TenantStats `json:"tenants,omitempty"`

	CacheEntries   int     `json:"cache_entries"`
	CacheCapacity  int     `json:"cache_capacity"`
	CacheHits      uint64  `json:"cache_hits"`
	CacheMisses    uint64  `json:"cache_misses"`
	CacheEvictions uint64  `json:"cache_evictions"`
	CacheHitRate   float64 `json:"cache_hit_rate"`

	// Result-cache effectiveness (all zero when result caching is off).
	ResultEntries   int    `json:"result_cache_entries"`
	ResultCapacity  int    `json:"result_cache_capacity"`
	ResultHits      uint64 `json:"result_cache_hits"`
	ResultSpillHits uint64 `json:"result_cache_spill_hits"`
	ResultMisses    uint64 `json:"result_cache_misses"`
	ResultCoalesced uint64 `json:"result_cache_coalesced"`
	ResultEvictions uint64 `json:"result_cache_evictions"`
	// ResultSpillEvictions counts spill files deleted by the bounded
	// spill-directory GC.
	ResultSpillEvictions uint64  `json:"result_cache_spill_evictions"`
	ResultHitRate        float64 `json:"result_cache_hit_rate"`

	// Trace-dispatch aggregates over all served runs (all zero
	// until one runs): superblocks formed, trace-tree child paths attached,
	// and side exits as a share of trace entries.
	TracesFormed     int64   `json:"traces_formed"`
	TreeNodes        int64   `json:"tree_nodes"`
	TraceSideExitPct float64 `json:"trace_side_exit_pct"`

	CampaignMetrics

	WallMSP50 float64 `json:"wall_ms_p50"`
	WallMSP99 float64 `json:"wall_ms_p99"`

	RunsByProgram map[string]int64 `json:"runs_by_program"`

	Draining bool `json:"draining"`
}

// snapshot materializes the current counters.
func (s *Server) snapshot() MetricsSnapshot {
	m := s.metrics
	ps := s.Stats()
	cs := s.cache.stats()
	rs := ps.Results
	active, queued := s.admit.stats()
	snap := MetricsSnapshot{
		QueueDepth:   queued,
		ActiveRuns:   active,
		Rejected:     m.rejected.Value(),
		Canceled:     ps.Canceled,
		RunsOK:       m.runsOK.Value(),
		RunsFailed:   ps.Failed,
		InstrsPerSec: m.instrsPerSec(),
		RunPanics:    ps.RunPanics,

		AsmRuns:    m.asmRuns.Value(),
		TenantShed: ps.TenantShed,
		Tenants:    ps.Tenants,

		CacheEntries:   cs.Entries,
		CacheCapacity:  cs.Capacity,
		CacheHits:      cs.Hits,
		CacheMisses:    cs.Misses,
		CacheEvictions: cs.Evictions,
		CacheHitRate:   cs.HitRate(),

		ResultEntries:        rs.Entries,
		ResultCapacity:       rs.Capacity,
		ResultHits:           rs.Hits,
		ResultSpillHits:      rs.SpillHits,
		ResultMisses:         rs.Misses,
		ResultCoalesced:      rs.Coalesced,
		ResultEvictions:      rs.Evictions,
		ResultSpillEvictions: rs.SpillEvictions,
		ResultHitRate:        rs.HitRate(),

		TracesFormed: m.tracesFormed.Value(),
		TreeNodes:    m.treeNodes.Value(),

		CampaignMetrics: ps.Campaigns,

		RunsByProgram: map[string]int64{},
		Draining:      ps.Draining,
	}
	if total := m.traceIters.Value() + m.traceExits.Value(); total > 0 {
		snap.TraceSideExitPct = 100 * float64(m.traceExits.Value()) / float64(total)
	}
	if q := m.latency.Quantiles(0.50, 0.99); q != nil {
		snap.WallMSP50, snap.WallMSP99 = q[0], q[1]
	}
	m.runsByName.Do(func(kv expvar.KeyValue) {
		if v, ok := kv.Value.(*expvar.Int); ok {
			snap.RunsByProgram[kv.Key] = v.Value()
		}
	})
	return snap
}
