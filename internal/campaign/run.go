package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// PointResult is the structured outcome of one executed point.
type PointResult struct {
	Cycles   uint64
	Instrs   uint64
	L1Misses uint64
	L2Misses uint64
	// Cached marks a result-cache answer (no simulation work done).
	Cached bool
}

// Executor runs one grid point. mmxd executes locally through its result
// cache and admission control; mmxfleet routes the point to its
// cache-affine backend. ctx is the campaign context joined with any
// per-point deadline; an error caused by cancellation must wrap
// context.Canceled so the runner classifies the point canceled, not
// failed.
type Executor interface {
	RunPoint(ctx context.Context, p Point) (PointResult, error)
}

// RunnerConfig tunes campaign execution.
type RunnerConfig struct {
	// Workers bounds concurrent points (<=0 selects 4). The executor's
	// own admission control provides the hard backpressure; this only
	// keeps one campaign from monopolizing the queue.
	Workers int
	// OnPoint observes each settled point for metrics: wall is the
	// point's execution time, outcome one of PointDone/PointFailed/
	// PointCanceled.
	OnPoint func(wall time.Duration, outcome string, cached bool)
	// Dir, when non-empty, is the tier's CampaignDir: a completed
	// campaign's artifacts are persisted under Dir/<id>/ before the
	// completed status becomes visible.
	Dir string
}

// Run executes every point of the campaign through ex and blocks until
// the campaign reaches a terminal status. Tiers call it on a background
// goroutine; cancellation arrives through the campaign's own context.
func Run(c *Campaign, ex Executor, cfg RunnerConfig) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = 4
	}
	if n := len(c.points); workers > n {
		workers = n
	}
	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := range c.points {
			select {
			case idx <- i:
			case <-c.ctx.Done():
				// Drain: remaining points are canceled, not dropped, so
				// counters always sum to the total — in /metrics too.
				c.markCanceled(i)
				if cfg.OnPoint != nil {
					cfg.OnPoint(0, PointCanceled, false)
				}
			}
		}
	}()
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range idx {
				runOne(c, ex, cfg, i)
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	c.finish(cfg.Dir)
}

// runOne executes and classifies a single point.
func runOne(c *Campaign, ex Executor, cfg RunnerConfig, i int) {
	if c.ctx.Err() != nil {
		c.markCanceled(i)
		if cfg.OnPoint != nil {
			cfg.OnPoint(0, PointCanceled, false)
		}
		return
	}
	c.markRunning(i)
	start := time.Now()
	res, err := ex.RunPoint(c.ctx, c.points[i].Point)
	wall := time.Since(start)
	outcome := PointDone
	switch {
	case err == nil:
		c.markDone(i, res)
	case c.ctx.Err() != nil || errors.Is(err, context.Canceled):
		// Client-initiated cancellation is never the fleet's fault: the
		// point is canceled, not failed (the 499 classification).
		outcome = PointCanceled
		c.markCanceled(i)
	default:
		outcome = PointFailed
		c.markFailed(i, err)
	}
	if cfg.OnPoint != nil {
		cfg.OnPoint(wall, outcome, err == nil && res.Cached)
	}
}

// ParsePointMetrics extracts the simulation metrics from a marshaled /run
// response body. Both tiers execute points through their ordinary /run
// machinery (which is what makes caching and routing free), so the
// structured outcome is recovered from the response envelope.
func ParsePointMetrics(body []byte) (PointResult, error) {
	var env struct {
		Report *struct {
			Cycles              uint64
			DynamicInstructions uint64
			L1Misses            uint64
			L2Misses            uint64
		} `json:"report"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return PointResult{}, fmt.Errorf("decoding point response: %w", err)
	}
	if env.Report == nil {
		return PointResult{}, fmt.Errorf("point response has no report")
	}
	return PointResult{
		Cycles:   env.Report.Cycles,
		Instrs:   env.Report.DynamicInstructions,
		L1Misses: env.Report.L1Misses,
		L2Misses: env.Report.L2Misses,
	}, nil
}
