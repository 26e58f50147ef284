// Per-tenant accounting: token-bucket rate limits, concurrent-run caps and
// windowed instruction quotas, keyed by the X-Mmx-Tenant header (falling
// back to the client IP, so unlabeled traffic is still isolated per
// source). The limiter is deliberately cheap — one mutex, one bounded
// LRU map of tenant states — because it sits in front of every request,
// including result-cache hits: rate limits meter requests, while the
// instruction quota is debited only with instructions actually simulated,
// so cached replays never consume quota.
package server

import (
	"container/list"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// TenantHeader carries the accounting key for a request. Coordinators
// resolve it (defaulting to the client IP) and forward it to backends, so
// fleet-wide quotas see one identity per tenant regardless of routing.
const TenantHeader = "X-Mmx-Tenant"

// maxTrackedTenants bounds the tenant-state table; beyond it the least
// recently active tenant is dropped (its bucket refills from scratch on
// return, which only ever errs in the tenant's favor).
const maxTrackedTenants = 1024

// TenantLimits configures per-tenant accounting; the zero value disables
// all limits (every request admitted, accounting still recorded).
type TenantLimits struct {
	// Rate is the steady-state request rate (requests/second) each tenant
	// may sustain; Burst is the bucket size (defaults to max(1, Rate)).
	// Rate 0 = unlimited.
	Rate  float64
	Burst int
	// MaxConcurrent caps a tenant's in-flight requests (queued included);
	// 0 = unlimited.
	MaxConcurrent int
	// InstrQuota caps simulated instructions per tenant per Window
	// (default window: one minute); 0 = unlimited. Only instructions
	// actually simulated count — result-cache hits are free.
	InstrQuota int64
	Window     time.Duration
}

func (l TenantLimits) enabled() bool {
	return l.Rate > 0 || l.MaxConcurrent > 0 || l.InstrQuota > 0
}

// QuotaError is a per-tenant admission refusal; Fail answers it 429
// with a Retry-After header.
type QuotaError struct {
	Tenant     string
	Reason     string
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("tenant %q over %s quota (retry in %s)", e.Tenant, e.Reason, e.RetryAfter)
}

// tenantState is one tenant's live accounting.
type tenantState struct {
	key         string
	tokens      float64
	lastRefill  time.Time
	inflight    int
	windowStart time.Time
	windowUsed  int64 // instructions simulated this window

	admitted uint64 // lifetime admits
	shed     uint64 // lifetime quota refusals
}

// TenantLimiter tracks per-tenant state under one lock. A nil limiter
// admits everything and records nothing.
type TenantLimiter struct {
	limits TenantLimits
	mu     sync.Mutex
	order  *list.List // LRU of *tenantState
	elems  map[string]*list.Element
}

// NewTenantLimiter builds a limiter for the given limits (zero = record
// accounting but never refuse).
func NewTenantLimiter(limits TenantLimits) *TenantLimiter {
	if limits.Burst <= 0 {
		limits.Burst = int(limits.Rate)
		if limits.Burst < 1 {
			limits.Burst = 1
		}
	}
	if limits.Window <= 0 {
		limits.Window = time.Minute
	}
	return &TenantLimiter{
		limits: limits,
		order:  list.New(),
		elems:  make(map[string]*list.Element),
	}
}

// stateLocked returns (creating if needed) the tenant's state, refreshing
// its LRU position and evicting the coldest tenant beyond the table bound.
func (l *TenantLimiter) stateLocked(tenant string, now time.Time) *tenantState {
	if el, ok := l.elems[tenant]; ok {
		l.order.MoveToFront(el)
		return el.Value.(*tenantState)
	}
	st := &tenantState{
		key:         tenant,
		tokens:      float64(l.limits.Burst),
		lastRefill:  now,
		windowStart: now,
	}
	l.elems[tenant] = l.order.PushFront(st)
	for l.order.Len() > maxTrackedTenants {
		oldest := l.order.Back()
		l.order.Remove(oldest)
		delete(l.elems, oldest.Value.(*tenantState).key)
	}
	return st
}

// Admit accounts one request arrival for the tenant, refusing with a
// *QuotaError when a limit is exceeded. On success the tenant holds one
// in-flight slot until Release.
func (l *TenantLimiter) Admit(tenant string, now time.Time) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stateLocked(tenant, now)

	if lim := l.limits.MaxConcurrent; lim > 0 && st.inflight >= lim {
		st.shed++
		return &QuotaError{Tenant: tenant, Reason: "concurrency", RetryAfter: time.Second}
	}
	if rate := l.limits.Rate; rate > 0 {
		st.tokens += now.Sub(st.lastRefill).Seconds() * rate
		if max := float64(l.limits.Burst); st.tokens > max {
			st.tokens = max
		}
		st.lastRefill = now
		if st.tokens < 1 {
			st.shed++
			wait := time.Duration((1 - st.tokens) / rate * float64(time.Second))
			return &QuotaError{Tenant: tenant, Reason: "rate", RetryAfter: wait}
		}
		st.tokens--
	}
	if quota := l.limits.InstrQuota; quota > 0 {
		if since := now.Sub(st.windowStart); since >= l.limits.Window {
			st.windowStart, st.windowUsed = now, 0
		}
		if st.windowUsed >= quota {
			st.shed++
			left := l.limits.Window - now.Sub(st.windowStart)
			if left < time.Second {
				left = time.Second
			}
			return &QuotaError{Tenant: tenant, Reason: "instruction", RetryAfter: left}
		}
	}
	st.inflight++
	st.admitted++
	return nil
}

// Release returns the tenant's in-flight slot and debits the instructions
// the request actually simulated (zero for cache hits and failures).
func (l *TenantLimiter) Release(tenant string, instrs int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.elems[tenant]; ok {
		st := el.Value.(*tenantState)
		if st.inflight > 0 {
			st.inflight--
		}
		st.windowUsed += instrs
	}
}

// TenantStats is one tenant's accounting snapshot for /metrics.
type TenantStats struct {
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
	Inflight int    `json:"inflight"`
}

// Stats snapshots per-tenant accounting, most recently active first.
func (l *TenantLimiter) Stats() map[string]TenantStats {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]TenantStats, len(l.elems))
	for el := l.order.Front(); el != nil; el = el.Next() {
		st := el.Value.(*tenantState)
		out[st.key] = TenantStats{Admitted: st.admitted, Shed: st.shed, Inflight: st.inflight}
	}
	return out
}

// TenantKey resolves the accounting identity for a request: the
// TenantHeader when present, the client IP otherwise.
func TenantKey(r *http.Request) string {
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil || host == "" {
		return r.RemoteAddr
	}
	return host
}

// retryAfterSeconds renders a Retry-After value, rounding up with a floor
// of one second (Retry-After speaks integral seconds).
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}
