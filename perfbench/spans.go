package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mmxdsp/internal/server"
)

// Layer names a span records. Spans of one request share its X-Request-ID,
// which the coordinator forwards to every backend hop it makes for it.
const (
	layerClient  = "client"  // the generator's HTTP call, send to body read
	layerCluster = "cluster" // the coordinator's Handler()
	layerServer  = "server"  // a backend's Handler()
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder's epoch.
type span struct {
	Layer string `json:"layer"`
	Node  string `json:"node,omitempty"` // which server, for handler spans
	Op    string `json:"op"`
	ReqID string `json:"req_id,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory while it is on; they are written out
// once, when the benchmark ends.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add records a span that started at start (from r.now) and ends now.
func (r *recorder) add(layer, node, op, reqID string, start int64) {
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{Layer: layer, Node: node, Op: op, ReqID: reqID, Start: start, End: end})
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// wrap times every request through node's handler h under the given
// layer while the recorder is on; while it is off the wrapper only loads
// one flag.
func (r *recorder) wrap(layer, node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		start := r.now()
		h.ServeHTTP(w, req)
		r.add(layer, node, req.URL.Path, req.Header.Get(server.RequestIDHeader), start)
	})
}

// dump writes the spans as JSON lines to path.
func (r *recorder) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// interval is a half-open [lo, hi) time range in nanoseconds.
type interval struct{ lo, hi int64 }

// union merges spans into sorted, disjoint intervals.
func union(spans []span) []interval {
	iv := make([]interval, 0, len(spans))
	for _, s := range spans {
		if s.End > s.Start {
			iv = append(iv, interval{s.Start, s.End})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	out := iv[:0]
	for _, x := range iv {
		if n := len(out); n > 0 && x.lo <= out[n-1].hi {
			if x.hi > out[n-1].hi {
				out[n-1].hi = x.hi
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

func length(iv []interval) int64 {
	var t int64
	for _, x := range iv {
		t += x.hi - x.lo
	}
	return t
}

// overlap returns the total length of the intersection of two sorted,
// disjoint interval lists.
func overlap(a, b []interval) int64 {
	var t int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi)
		if hi > lo {
			t += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return t
}

// selfTime is a layer's self time: the time its spans cover minus the
// part of it their child spans cover. Overlapping children (parallel
// backend hops) and children that stick out of the parent count once.
func selfTime(parents, children []span) int64 {
	p := union(parents)
	return length(p) - overlap(p, union(children))
}

// byReqID groups spans of one layer by request ID.
func byReqID(spans []span, layer string) map[string][]span {
	out := map[string][]span{}
	for _, s := range spans {
		if s.Layer == layer && s.ReqID != "" {
			out[s.ReqID] = append(out[s.ReqID], s)
		}
	}
	return out
}
