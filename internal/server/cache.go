// The compiled-program cache. Building a suite benchmark synthesizes its
// workload data and macro-assembles the program, and compiling lowers its
// basic blocks to micro-ops — work that depends on the program alone, not
// on the dispatch mode or the timing configuration a request runs it
// under. The cache keys immutable core.Compiled artifacts by what shapes
// them — the program name, or "asm:" + the source hash of a submitted
// listing — with bounded LRU eviction, so a warm daemon serves every mode
// and ablation of a program straight into vm.NewWithCode / pentium.Bind
// without re-entering the assembler.
package server

import (
	"container/list"
	"sync"

	"mmxdsp/internal/core"
)

// cacheEntry is one slot. The sync.Once serializes compilation so that
// concurrent first requests for the same key compile exactly once; the
// entry is immutable afterwards, so readers outside the cache lock are
// safe even if the entry gets evicted underneath them.
type cacheEntry struct {
	key  string
	once sync.Once
	comp *core.Compiled
	err  error
}

// CacheStats is a point-in-time snapshot of cache effectiveness counters.
type CacheStats struct {
	Entries   int
	Capacity  int
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// HitRate returns hits as a fraction of lookups (0 when idle).
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// codeCache is a bounded LRU of compiled programs.
type codeCache struct {
	mu        sync.Mutex
	capacity  int
	order     *list.List // front = most recently used; values are *cacheEntry
	elems     map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

func newCodeCache(capacity int) *codeCache {
	if capacity < 1 {
		capacity = 1
	}
	return &codeCache{
		capacity: capacity,
		order:    list.New(),
		elems:    make(map[string]*list.Element, capacity),
	}
}

// get returns the compiled artifact for key, invoking compile exactly once
// per cache residency. The second return reports whether the entry was
// already present (a hit — possibly still compiling under another
// request's Once, which then blocks only the requests that need it).
func (c *codeCache) get(key string, compile func() (*core.Compiled, error)) (*core.Compiled, bool, error) {
	c.mu.Lock()
	if el, ok := c.elems[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		entry := el.Value.(*cacheEntry)
		c.mu.Unlock()
		entry.once.Do(func() { entry.comp, entry.err = compile() })
		return entry.comp, true, entry.err
	}
	c.misses++
	entry := &cacheEntry{key: key}
	el := c.order.PushFront(entry)
	c.elems[key] = el
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.elems, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
	c.mu.Unlock()

	entry.once.Do(func() { entry.comp, entry.err = compile() })
	if entry.err != nil {
		// Do not cache failures: builds are deterministic today, but a
		// resident error would turn any transient failure into a permanent
		// one for the key's lifetime.
		c.mu.Lock()
		if el, ok := c.elems[key]; ok && el.Value.(*cacheEntry) == entry {
			c.order.Remove(el)
			delete(c.elems, key)
		}
		c.mu.Unlock()
	}
	return entry.comp, false, entry.err
}

// stats snapshots the counters.
func (c *codeCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.order.Len(),
		Capacity:  c.capacity,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
