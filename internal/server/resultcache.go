// The result cache. Simulation here is a pure function of
// (program, dispatch, config, budget, check): the paper's Table 2/3
// numbers never change for a fixed configuration, so the dominant
// production traffic shape — many users repeating the same few configs —
// is answered fastest by not simulating at all. The cache keys fully
// marshaled response bytes by RunRequest.ResultKey (the compiled-artifact
// key extended with the fields that shape the response but not the
// artifact), holds them in a bounded LRU, single-flights concurrent
// identical misses so the simulation runs once, stamps each entry with a
// strong ETag (hash of key + bytes, so identical results validate across
// restarts and across tiers), and optionally spills entries to a directory
// so a restarted daemon answers warm traffic without re-simulating.
//
// The shared pipeline holds one on each tier: on mmxd a fill runs the
// interpreter, on the coordinator it routes to a backend, and there a hit
// never costs a backend round-trip.
package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ResultCacheHeader reports how the response was produced: "hit" (memory),
// "spill" (loaded from the persistent tier), "coalesced" (waited on an
// identical in-flight request), "miss" (executed and cached) or "bypass"
// (cache disabled; executed).
const ResultCacheHeader = "X-Mmx-Result-Cache"

// ResultOutcome classifies one ResultCache.Do call for metrics and the
// ResultCacheHeader.
type ResultOutcome int

const (
	ResultMiss ResultOutcome = iota
	ResultHit
	ResultSpillHit
	ResultCoalesced
	ResultBypass
)

// String returns the ResultCacheHeader value for the outcome.
func (o ResultOutcome) String() string {
	switch o {
	case ResultHit:
		return "hit"
	case ResultSpillHit:
		return "spill"
	case ResultCoalesced:
		return "coalesced"
	case ResultBypass:
		return "bypass"
	default:
		return "miss"
	}
}

// CachedResult is one immutable cached response: the canonical key, the
// marshaled body bytes exactly as first served, and the strong ETag
// derived from both.
type CachedResult struct {
	Key  string
	ETag string
	Body []byte
}

// ETagFor computes the strong entity tag for a (key, body) pair. It hashes
// the key alongside the bytes so two different requests whose bodies
// happen to collide still get distinct validators, and it is deterministic
// across processes — a coordinator and a backend caching the same bytes
// under the same key agree on the tag.
func ETagFor(key string, body []byte) string {
	h := sha256.New()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write(body)
	sum := h.Sum(nil)
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// etagMatches implements the strong If-None-Match comparison against a
// single entity tag: any member of the comma-separated candidate list
// matching, or "*", satisfies the condition.
func etagMatches(ifNoneMatch, etag string) bool {
	if ifNoneMatch == "" {
		return false
	}
	for _, cand := range strings.Split(ifNoneMatch, ",") {
		cand = strings.TrimSpace(cand)
		if cand == "*" || cand == etag {
			return true
		}
	}
	return false
}

// ResultCacheStats is a point-in-time snapshot of result-cache counters.
type ResultCacheStats struct {
	Entries   int
	Capacity  int
	Hits      uint64 // memory hits
	SpillHits uint64 // entries revived from the spill directory
	Misses    uint64 // fills that executed (spill also missed)
	Coalesced uint64 // callers that waited on an identical in-flight fill
	Evictions uint64
	// SpillEvictions counts spill files deleted by the size/count-bounded
	// garbage collection of the spill directory.
	SpillEvictions uint64
}

// HitRate returns the fraction of lookups answered without executing:
// memory hits, spill hits and coalesced waits over all lookups.
func (s ResultCacheStats) HitRate() float64 {
	served := s.Hits + s.SpillHits + s.Coalesced
	total := served + s.Misses
	if total == 0 {
		return 0
	}
	return float64(served) / float64(total)
}

// resultFlight is one in-flight fill; res is nil if the fill failed.
type resultFlight struct {
	done chan struct{}
	res  *CachedResult
}

// ResultCache is a bounded LRU of marshaled response bytes with
// single-flight fills and an optional persistent spill tier.
type ResultCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; values are *CachedResult
	elems    map[string]*list.Element
	inflight map[string]*resultFlight
	dir      string // spill directory; empty = memory only

	// Spill-directory bounds (0 = unlimited). spillMu serializes the
	// scan-and-evict garbage collection; spillEvictions counts deleted
	// files and is atomic so GC never contends with Stats on c.mu.
	spillMaxBytes  int64
	spillMaxFiles  int
	spillMu        sync.Mutex
	spillEvictions atomic.Uint64

	hits      uint64
	spillHits uint64
	misses    uint64
	coalesced uint64
	evictions uint64
}

// NewResultCache builds a cache bounded to capacity in-memory entries
// (minimum 1). dir, when non-empty, enables the persistent spill tier:
// every filled entry is also written there (atomic create + rename) and
// memory misses consult it before executing, so warm results survive a
// daemon restart. Spill files are verified on load (key match + ETag
// recomputation) and corrupt ones are discarded.
func NewResultCache(capacity int, dir string) *ResultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &ResultCache{
		capacity: capacity,
		order:    list.New(),
		elems:    make(map[string]*list.Element, capacity),
		inflight: make(map[string]*resultFlight),
		dir:      dir,
	}
}

// SetSpillLimits bounds the spill directory to maxBytes of result files
// and maxFiles entries (0 = unlimited for either). After every spill write
// the cache deletes oldest-modified result files until both bounds hold
// again, so the directory tracks the warm working set instead of growing
// without bound across restarts.
func (c *ResultCache) SetSpillLimits(maxBytes int64, maxFiles int) {
	c.spillMu.Lock()
	c.spillMaxBytes = maxBytes
	c.spillMaxFiles = maxFiles
	c.spillMu.Unlock()
}

// Do returns the cached result for key, filling it at most once across
// concurrent callers: the first caller to miss executes fill while later
// identical requests wait for its result instead of executing again. Fill
// errors are never cached — each waiter then retries and the first to
// re-enter becomes the new filler, so a canceled leader does not poison
// its followers. ctx bounds only this caller's wait, not the fill itself.
func (c *ResultCache) Do(ctx context.Context, key string, fill func() ([]byte, error)) (*CachedResult, ResultOutcome, error) {
	coalesced := false
	for {
		c.mu.Lock()
		if el, ok := c.elems[key]; ok {
			c.order.MoveToFront(el)
			c.hits++
			res := el.Value.(*CachedResult)
			c.mu.Unlock()
			outcome := ResultHit
			if coalesced {
				outcome = ResultCoalesced
			}
			return res, outcome, nil
		}
		if f, ok := c.inflight[key]; ok {
			c.coalesced++
			c.mu.Unlock()
			coalesced = true
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, ResultCoalesced, ctx.Err()
			}
			if f.res != nil {
				return f.res, ResultCoalesced, nil
			}
			continue // the filler failed; retry, possibly becoming the filler
		}
		f := &resultFlight{done: make(chan struct{})}
		c.inflight[key] = f
		c.mu.Unlock()

		res, outcome, err := c.lead(key, f, fill)
		if coalesced && err == nil {
			outcome = ResultCoalesced
		}
		return res, outcome, err
	}
}

// lead runs the fill for the flight f registered under key, then caches
// the result and releases the flight. The release is deferred so a
// panicking fill still frees the key: its waiters see a failed flight and
// retry instead of blocking until their deadlines, and the panic goes on
// to the caller.
func (c *ResultCache) lead(key string, f *resultFlight, fill func() ([]byte, error)) (res *CachedResult, outcome ResultOutcome, err error) {
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		if res != nil {
			c.insertLocked(res)
		}
		if outcome == ResultSpillHit {
			c.spillHits++
		} else {
			c.misses++
		}
		c.mu.Unlock()
		f.res = res
		close(f.done)
	}()
	return c.fillOnce(key, fill)
}

// fillOnce produces the entry for key: from the spill tier if present,
// by executing fill otherwise. Successful fills are spilled best-effort.
func (c *ResultCache) fillOnce(key string, fill func() ([]byte, error)) (*CachedResult, ResultOutcome, error) {
	if res := c.loadSpill(key); res != nil {
		return res, ResultSpillHit, nil
	}
	body, err := fill()
	if err != nil {
		return nil, ResultMiss, err
	}
	res := &CachedResult{Key: key, ETag: ETagFor(key, body), Body: body}
	c.storeSpill(res)
	return res, ResultMiss, nil
}

// insertLocked adds res under the LRU discipline. Callers hold c.mu.
func (c *ResultCache) insertLocked(res *CachedResult) {
	if el, ok := c.elems[res.Key]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.elems[res.Key] = c.order.PushFront(res)
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.elems, oldest.Value.(*CachedResult).Key)
		c.evictions++
	}
}

// Stats snapshots the counters.
func (c *ResultCache) Stats() ResultCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ResultCacheStats{
		Entries:        c.order.Len(),
		Capacity:       c.capacity,
		Hits:           c.hits,
		SpillHits:      c.spillHits,
		Misses:         c.misses,
		Coalesced:      c.coalesced,
		Evictions:      c.evictions,
		SpillEvictions: c.spillEvictions.Load(),
	}
}

// spillEnvelope is the on-disk spill format. The key is stored verbatim so
// a load can reject hash-name collisions, and the ETag doubles as the
// integrity check: a loaded body whose recomputed tag differs is corrupt.
type spillEnvelope struct {
	Key  string `json:"key"`
	ETag string `json:"etag"`
	Body []byte `json:"body"` // encoding/json base64s []byte
}

// spillPath names the spill file for key: content-addressed by the key
// hash, so arbitrary key bytes never escape into filesystem names.
func (c *ResultCache) spillPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:])+".result.json")
}

// storeSpill writes res to the spill tier via create-temp + rename, so a
// crash mid-write never leaves a torn file under the final name. Spilling
// is best-effort: a full or read-only disk degrades to memory-only.
func (c *ResultCache) storeSpill(res *CachedResult) {
	if c.dir == "" {
		return
	}
	data, err := json.Marshal(spillEnvelope{Key: res.Key, ETag: res.ETag, Body: res.Body})
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(c.dir, ".spill-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), c.spillPath(res.Key)); err != nil {
		os.Remove(tmp.Name())
		return
	}
	c.gcSpill()
}

// spillSuffix names result files in the spill directory; GC only ever
// touches files with this suffix, so an operator pointing the cache at a
// shared directory cannot lose unrelated files.
const spillSuffix = ".result.json"

// gcSpill enforces the spill-directory bounds: while the directory holds
// more than spillMaxFiles result files or more than spillMaxBytes of them,
// delete the oldest-modified first. Best-effort like the rest of the spill
// tier — races with concurrent loads just make a future load miss.
func (c *ResultCache) gcSpill() {
	c.spillMu.Lock()
	defer c.spillMu.Unlock()
	maxBytes, maxFiles := c.spillMaxBytes, c.spillMaxFiles
	if maxBytes <= 0 && maxFiles <= 0 {
		return
	}
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	type spillFile struct {
		path  string
		size  int64
		mtime time.Time
	}
	var files []spillFile
	var total int64
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), spillSuffix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, spillFile{
			path:  filepath.Join(c.dir, e.Name()),
			size:  info.Size(),
			mtime: info.ModTime(),
		})
		total += info.Size()
	}
	over := func() bool {
		return (maxFiles > 0 && len(files) > maxFiles) ||
			(maxBytes > 0 && total > maxBytes)
	}
	if !over() {
		return
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	for len(files) > 0 && over() {
		f := files[0]
		files = files[1:]
		total -= f.size
		if os.Remove(f.path) == nil {
			c.spillEvictions.Add(1)
		}
	}
}

// loadSpill revives key from the spill tier, verifying the stored key and
// recomputing the ETag over the loaded bytes. Anything that fails
// verification is deleted and treated as a miss.
func (c *ResultCache) loadSpill(key string) *CachedResult {
	if c.dir == "" {
		return nil
	}
	path := c.spillPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var env spillEnvelope
	if err := json.Unmarshal(data, &env); err != nil || env.Key != key || ETagFor(key, env.Body) != env.ETag {
		os.Remove(path)
		return nil
	}
	return &CachedResult{Key: env.Key, ETag: env.ETag, Body: env.Body}
}
