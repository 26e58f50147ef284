// The coordinator's one front door for POST /run and POST /asm: read the
// body once into a buffer sized by Content-Length, digest (path, body),
// and look the digest up in a bounded LRU memo of the keys an earlier
// parse of the same bytes produced. A hit goes straight to routeCached; a
// miss parses with the endpoint's unchanged strict parser and memoizes only
// a successful parse, so every 400 and 413 is derived fresh.
//
// Parsing is a pure function of (path, body bytes, the coordinator's fixed
// MaxSourceBytes), so the memo is a cache of a pure function and a hit
// routes exactly as the parse would have. Entries hold only the two key
// strings, never the listing. The memo shares the result cache's capacity
// (an entry is only useful while its result can be cached) and does not
// exist when result caching is off. /metrics counts hits as
// body_memo_hits.
package cluster

import (
	"container/list"
	"crypto/sha256"
	"errors"
	"expvar"
	"net/http"
	"sync"

	"mmxdsp/internal/server"
)

// requestKeys is what parsing a /run or /asm body yields for routing: the
// compiled-artifact (affinity) key and the result-cache key.
type requestKeys struct {
	cache, result string
}

// keyParser parses one request body into its routing keys.
type keyParser func(body []byte) (requestKeys, error)

// frontDoor returns the handler for a keyed POST endpoint: path names the
// endpoint (and is forwarded to the backend), limit caps the body, parse
// keys it, and accepted counts requests that reach routing.
func (c *Coordinator) frontDoor(path string, limit int, parse keyParser, accepted *expvar.Int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
			return
		}
		if c.draining.Load() {
			c.shed(w, errors.New("coordinator is draining"))
			return
		}
		body, err := server.ReadBody(r, limit)
		if err != nil {
			writeError(w, server.RequestErrorStatus(err), err)
			return
		}
		keys, err := c.keysFor(path, body, parse)
		if err != nil {
			writeError(w, server.RequestErrorStatus(err), err)
			return
		}
		accepted.Add(1)
		c.routeCached(w, r, keys.cache, keys.result, callFor(w, r, path, body))
	}
}

// keysFor parses body at most once per distinct (path, body) while the
// memo remembers it.
func (c *Coordinator) keysFor(path string, body []byte, parse keyParser) (requestKeys, error) {
	if c.memo == nil {
		return parse(body)
	}
	d := bodyDigest(path, body)
	if keys, ok := c.memo.get(d); ok {
		c.metrics.bodyMemoHits.Add(1)
		return keys, nil
	}
	keys, err := parse(body)
	if err == nil {
		c.memo.put(d, keys)
	}
	return keys, err
}

// digest identifies one (path, body) pair.
type digest [sha256.Size]byte

// bodyDigest hashes path and body with a separator, so identical bytes
// posted to different endpoints never share a memo entry.
func bodyDigest(path string, body []byte) digest {
	h := sha256.New()
	h.Write([]byte(path))
	h.Write([]byte{0})
	h.Write(body)
	var d digest
	h.Sum(d[:0])
	return d
}

// bodyMemo is a bounded LRU from body digest to parsed keys.
type bodyMemo struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; values are *memoEntry
	elems    map[digest]*list.Element
}

type memoEntry struct {
	d    digest
	keys requestKeys
}

func newBodyMemo(capacity int) *bodyMemo {
	return &bodyMemo{
		capacity: capacity,
		order:    list.New(),
		elems:    make(map[digest]*list.Element, capacity),
	}
}

func (m *bodyMemo) get(d digest) (requestKeys, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.elems[d]
	if !ok {
		return requestKeys{}, false
	}
	m.order.MoveToFront(el)
	return el.Value.(*memoEntry).keys, true
}

func (m *bodyMemo) put(d digest, keys requestKeys) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.elems[d]; ok {
		m.order.MoveToFront(el)
		return
	}
	m.elems[d] = m.order.PushFront(&memoEntry{d: d, keys: keys})
	for m.order.Len() > m.capacity {
		oldest := m.order.Back()
		m.order.Remove(oldest)
		delete(m.elems, oldest.Value.(*memoEntry).d)
	}
}

// len reports the number of memoized bodies.
func (m *bodyMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}
