package campaign

import (
	"context"
	"sync"
	"time"
)

// Campaign statuses.
const (
	StatusRunning   = "running"
	StatusCompleted = "completed"
	StatusCanceled  = "canceled"
)

// Point statuses.
const (
	PointPending  = "pending"
	PointRunning  = "running"
	PointDone     = "done"
	PointFailed   = "failed"
	PointCanceled = "canceled"
)

// PointState is one grid cell plus its execution outcome.
type PointState struct {
	Point
	Status string
	// Cached marks a point answered by a result cache (either tier) with
	// zero simulation work.
	Cached bool
	// Err carries the failure message for PointFailed points.
	Err string
	// Simulation outcome, valid when Status == PointDone.
	Cycles   uint64
	Instrs   uint64
	L1Misses uint64
	L2Misses uint64
}

// Event is one progress update, streamed over SSE and embedded in status
// responses. Counters are cumulative; a terminal event has Status set to
// StatusCompleted or StatusCanceled.
type Event struct {
	Status   string `json:"status"`
	Total    int    `json:"total"`
	Done     int    `json:"done"`
	Failed   int    `json:"failed"`
	Cached   int    `json:"cached"`
	Canceled int    `json:"canceled"`
	// ETAms estimates remaining wall time from the observed point rate
	// (0 until the first point retires, and for terminal events).
	ETAms int64 `json:"eta_ms"`
}

// Campaign is one submitted grid: the expanded points, live progress
// counters, subscriber fan-out and (on completion) rendered artifacts.
type Campaign struct {
	ID      string
	Spec    *Spec
	Tenant  string
	Created time.Time

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	points   []PointState
	status   string
	done     int
	failed   int
	cached   int
	canceled int
	started  time.Time
	finished time.Time
	// simInstrs sums instructions actually simulated (cache hits are
	// free), mirroring the tenant-quota debit rule.
	simInstrs int64
	subs      map[int]chan Event
	nextSub   int
	// csv and markdown hold the rendered artifacts once terminal.
	csv      []byte
	markdown []byte
	doneCh   chan struct{}
}

// New builds a campaign around an expanded grid. parent scopes the
// campaign's lifetime (typically the server's drain context — NOT the
// creating HTTP request, which returns immediately).
func New(parent context.Context, id string, spec *Spec, points []Point, tenant string) *Campaign {
	ctx, cancel := context.WithCancel(parent)
	c := &Campaign{
		ID:      id,
		Spec:    spec,
		Tenant:  tenant,
		Created: time.Now(),
		ctx:     ctx,
		cancel:  cancel,
		points:  make([]PointState, len(points)),
		status:  StatusRunning,
		started: time.Now(),
		subs:    make(map[int]chan Event),
		doneCh:  make(chan struct{}),
	}
	for i, p := range points {
		c.points[i] = PointState{Point: p, Status: PointPending}
	}
	return c
}

// Context returns the campaign's cancellation context; point executions
// run under it.
func (c *Campaign) Context() context.Context { return c.ctx }

// Cancel stops the campaign: queued points stay unrun and in-flight points
// are interrupted through the usual context plumbing. Idempotent.
func (c *Campaign) Cancel() { c.cancel() }

// Done returns a channel closed when the campaign reaches a terminal
// status.
func (c *Campaign) Done() <-chan struct{} { return c.doneCh }

// Status returns the current status string.
func (c *Campaign) Status() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.status
}

// SimulatedInstrs returns instructions actually simulated so far (the
// tenant-quota debit).
func (c *Campaign) SimulatedInstrs() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.simInstrs
}

// Snapshot returns the current progress event.
func (c *Campaign) Snapshot() Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eventLocked()
}

// PointsSnapshot copies the per-point states (for status listings and
// tests).
func (c *Campaign) PointsSnapshot() []PointState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]PointState(nil), c.points...)
}

// Artifacts returns the rendered CSV and Markdown, empty until the
// campaign completes.
func (c *Campaign) Artifacts() (csv, markdown []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.csv, c.markdown
}

// eventLocked builds the progress event; callers hold mu.
func (c *Campaign) eventLocked() Event {
	ev := Event{
		Status:   c.status,
		Total:    len(c.points),
		Done:     c.done,
		Failed:   c.failed,
		Cached:   c.cached,
		Canceled: c.canceled,
	}
	settled := c.done + c.failed + c.canceled
	if c.status == StatusRunning && c.done > 0 && settled < len(c.points) {
		elapsed := time.Since(c.started)
		perPoint := elapsed / time.Duration(c.done)
		ev.ETAms = int64(perPoint * time.Duration(len(c.points)-settled) / time.Millisecond)
	}
	return ev
}

// Subscribe registers a progress listener. Events are delivered lossily
// (a slow reader skips intermediate updates) but never block the runner;
// the channel closes when the campaign reaches a terminal status, after
// which the subscriber reads the final state via Snapshot.
func (c *Campaign) Subscribe() (<-chan Event, func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextSub
	c.nextSub++
	ch := make(chan Event, 16)
	if c.status != StatusRunning {
		// Already terminal: deliver the final event and close.
		ch <- c.eventLocked()
		close(ch)
		return ch, func() {}
	}
	c.subs[id] = ch
	ch <- c.eventLocked()
	return ch, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if _, ok := c.subs[id]; ok {
			delete(c.subs, id)
			close(ch)
		}
	}
}

// publishLocked fans the current event out to subscribers, dropping
// updates a full subscriber has not drained; callers hold mu.
func (c *Campaign) publishLocked() {
	ev := c.eventLocked()
	for _, ch := range c.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// markRunning transitions a pending point to running.
func (c *Campaign) markRunning(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.points[i].Status = PointRunning
}

// markDone records a successful point.
func (c *Campaign) markDone(i int, res PointResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ps := &c.points[i]
	ps.Status = PointDone
	ps.Cached = res.Cached
	ps.Cycles = res.Cycles
	ps.Instrs = res.Instrs
	ps.L1Misses = res.L1Misses
	ps.L2Misses = res.L2Misses
	c.done++
	if res.Cached {
		c.cached++
	} else {
		c.simInstrs += int64(res.Instrs)
	}
	c.publishLocked()
}

// markFailed records a genuinely failed point (never used for
// cancellation — canceled campaigns report zero failures by
// construction, mirroring the 499-vs-5xx run classification).
func (c *Campaign) markFailed(i int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.points[i].Status = PointFailed
	c.points[i].Err = err.Error()
	c.failed++
	c.publishLocked()
}

// markCanceled records a point stopped by campaign cancellation.
func (c *Campaign) markCanceled(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.points[i].Status = PointCanceled
	c.canceled++
	c.publishLocked()
}

// finish moves the campaign to its terminal status, renders artifacts for
// completed campaigns (persisting them under dir when it is non-empty),
// publishes the terminal event and closes every subscriber. The status
// only becomes visible when the lock is released, after the artifact files
// exist, so no reader sees completed before points.csv is on disk.
func (c *Campaign) finish(dir string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.status != StatusRunning {
		return
	}
	if c.ctx.Err() != nil || c.canceled > 0 {
		c.status = StatusCanceled
	} else {
		c.status = StatusCompleted
		c.csv, c.markdown = renderArtifacts(c.Spec, c.points)
		if dir != "" {
			_ = persist(dir, c.ID, c.csv, c.markdown) // best-effort; artifacts stay inline
		}
	}
	c.finished = time.Now()
	c.cancel()
	ev := c.eventLocked()
	for id, ch := range c.subs {
		// The terminal event must not be lost to a full buffer: drop one
		// stale update to make room, then close.
		select {
		case ch <- ev:
		default:
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- ev:
			default:
			}
		}
		close(ch)
		delete(c.subs, id)
	}
	close(c.doneCh)
}

// Terminal reports whether the campaign has finished (any terminal
// status).
func (c *Campaign) Terminal() bool {
	select {
	case <-c.doneCh:
		return true
	default:
		return false
	}
}
