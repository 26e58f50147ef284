// The body memo: the front door's bounded LRU from a digest of (path, body)
// to what an earlier parse of the same bytes produced. A byte-identical
// repeat of a /run or /asm body is keyed without decoding it again — for a
// listing, without re-reading and re-hashing hundreds of KB of JSON.
// Entries hold the result key and the resolved deadline, never the body.
// The memo shares the result cache's capacity (an entry is only useful
// while its result can be cached) and does not exist without one.
package server

import (
	"container/list"
	"crypto/sha256"
	"sync"
	"time"
)

// memoKeys is what keying a front-door request yields.
type memoKeys struct {
	result  string
	timeout time.Duration
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
	keys memoKeys
}

func newBodyMemo(capacity int) *bodyMemo {
	return &bodyMemo{
		capacity: capacity,
		order:    list.New(),
		elems:    make(map[digest]*list.Element, capacity),
	}
}

func (m *bodyMemo) get(d digest) (memoKeys, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.elems[d]
	if !ok {
		return memoKeys{}, false
	}
	m.order.MoveToFront(el)
	return el.Value.(*memoEntry).keys, true
}

func (m *bodyMemo) put(d digest, keys memoKeys) {
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
