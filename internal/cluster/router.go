// Cache-affinity routing. Each request is keyed by its affinity key
// (server.Request.CacheKey: program or source hash, config), and
// backends are ranked by rendezvous (highest-random-weight) hashing of
// (backend, key): every coordinator ranks identically with no shared
// state, each key has a stable first choice so repeat requests hit a warm
// cache, and when a backend dies only its own keys remap — the rest of the
// fleet keeps its results and artifacts hot. The first choice is overridden
// only when it is saturated (coordinator in-flight or probed queue depth
// over threshold), in which case the least-loaded routable backend takes
// the request.
package cluster

import (
	"hash/fnv"
	"sort"
)

// hrwScore is the rendezvous weight of backend url for key.
func hrwScore(url, key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(url))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(key))
	return h.Sum64()
}

// rank orders the routable backends by descending rendezvous weight for
// key. Index 0 is the affinity target; later entries are the deterministic
// retry/hedge order.
func (c *Coordinator) rank(key string) []*backend {
	backends := c.routableBackends()
	type scored struct {
		b     *backend
		score uint64
	}
	ranked := make([]scored, len(backends))
	for i, b := range backends {
		ranked[i] = scored{b, hrwScore(b.url, key)}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].b.url < ranked[j].b.url // total order for equal hashes
	})
	out := make([]*backend, len(ranked))
	for i, s := range ranked {
		out[i] = s.b
	}
	return out
}

// saturated reports whether the affinity target should be bypassed.
func (c *Coordinator) saturated(b *backend) bool {
	if c.cfg.MaxInflight > 0 && b.inflight.Load() >= c.cfg.MaxInflight {
		return true
	}
	return c.cfg.QueueSaturation > 0 && b.load() >= c.cfg.QueueSaturation
}

// allSaturated reports whether every backend in the attempt order is
// saturated — the condition under which bulk-priority traffic sheds at
// the coordinator instead of queueing ahead of interactive work.
func (c *Coordinator) allSaturated(order []*backend) bool {
	for _, b := range order {
		if !c.saturated(b) {
			return false
		}
	}
	return len(order) > 0
}

// routeOrder returns the attempt order for key: the HRW ranking, with the
// least-loaded backend promoted to the front when the affinity target is
// saturated. The second return reports whether the affinity choice held.
func (c *Coordinator) routeOrder(key string) ([]*backend, bool) {
	ranked := c.rank(key)
	if len(ranked) <= 1 || !c.saturated(ranked[0]) {
		return ranked, true
	}
	least := 0
	for i, b := range ranked {
		if b.load() < ranked[least].load() {
			least = i
		}
	}
	if least == 0 {
		// Everyone is at least as loaded as the affinity target; stick
		// with affinity and let admission control sort it out.
		return ranked, true
	}
	reordered := make([]*backend, 0, len(ranked))
	reordered = append(reordered, ranked[least])
	for i, b := range ranked {
		if i != least {
			reordered = append(reordered, b)
		}
	}
	return reordered, false
}
