// Two-level priority admission. The worker pool used to be a plain channel
// semaphore: first-come, first-served, which lets a bulk tenant's batch
// flood queue ahead of every interactive request. The admitter keeps the
// same contract (bounded concurrency, bounded queue, context-aware waits)
// but holds two FIFO queues and always grants freed slots to interactive
// waiters first; bulk waiters are additionally capped to half the queue,
// so at saturation bulk traffic sheds (429 + Retry-After) while
// interactive traffic still has queue room — the "shed low-priority
// first" half of the multi-tenant story (tenant.go is the other half).
package server

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Request priorities, set by the X-Mmx-Priority header.
const (
	PriorityInteractive = iota // default: humans waiting on the response
	PriorityBulk               // batch/backfill traffic; first to shed
	numPriorities
)

// PriorityHeader names the request priority: "interactive" (default) or
// "bulk". Coordinators forward a bulk priority to backends.
const PriorityHeader = "X-Mmx-Priority"

// errQueueFull is returned by acquire when the admission queue (or the
// bulk share of it) is at capacity; Fail answers it 429 + Retry-After.
var errQueueFull = errors.New("admission queue full")

// admitWaiter is one queued request. granted flags the handoff: a releaser
// that grants the slot sets it under the admitter lock, so a waiter whose
// context fires can tell whether it now owns a slot it must give back.
type admitWaiter struct {
	ready   chan struct{}
	granted bool
}

// admitter is the two-priority worker pool.
type admitter struct {
	mu      sync.Mutex
	workers int // concurrent slot count
	depth   int // total queued waiters allowed
	bulkCap int // queued bulk waiters allowed (≤ depth)
	active  int
	queues  [numPriorities]*list.List
}

func newAdmitter(workers, depth int) *admitter {
	bulkCap := depth / 2
	if bulkCap < 1 {
		bulkCap = 1
	}
	a := &admitter{workers: workers, depth: depth, bulkCap: bulkCap}
	for i := range a.queues {
		a.queues[i] = list.New()
	}
	return a
}

func (a *admitter) queuedLocked() int {
	n := 0
	for _, q := range a.queues {
		n += q.Len()
	}
	return n
}

// acquire admits one request at the given priority, queueing until a slot
// frees or ctx fires. The returned release must be called exactly once.
func (a *admitter) acquire(ctx context.Context, priority int) (release func(), err error) {
	if priority < 0 || priority >= numPriorities {
		priority = PriorityInteractive
	}
	a.mu.Lock()
	if a.active < a.workers {
		a.active++
		a.mu.Unlock()
		return a.release, nil
	}
	if a.queuedLocked() >= a.depth ||
		(priority == PriorityBulk && a.queues[PriorityBulk].Len() >= a.bulkCap) {
		a.mu.Unlock()
		return nil, errQueueFull
	}
	w := &admitWaiter{ready: make(chan struct{})}
	el := a.queues[priority].PushBack(w)
	a.mu.Unlock()

	select {
	case <-w.ready:
		return a.release, nil
	case <-ctx.Done():
		a.mu.Lock()
		if w.granted {
			// The grant raced the cancellation: we own a slot. Hand it on.
			a.grantLocked()
			a.mu.Unlock()
			return nil, ctx.Err()
		}
		a.queues[priority].Remove(el)
		a.mu.Unlock()
		return nil, ctx.Err()
	}
}

// grantLocked hands the caller's slot to the highest-priority waiter, or
// retires it when no one is waiting. Callers hold a.mu.
func (a *admitter) grantLocked() {
	for _, q := range a.queues {
		if el := q.Front(); el != nil {
			q.Remove(el)
			w := el.Value.(*admitWaiter)
			w.granted = true
			close(w.ready)
			return
		}
	}
	a.active--
}

func (a *admitter) release() {
	a.mu.Lock()
	a.grantLocked()
	a.mu.Unlock()
}

// stats reports (active slot holders, queued waiters) for /metrics.
func (a *admitter) stats() (active, queued int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int64(a.active), int64(a.queuedLocked())
}

// parsePriority maps the PriorityHeader value onto a priority level;
// anything but "bulk" (including absence) is interactive, so the header is
// opt-in for batch clients and never breaks existing ones.
func parsePriority(v string) int {
	if v == "bulk" {
		return PriorityBulk
	}
	return PriorityInteractive
}
