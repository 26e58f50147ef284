// Tests for the pipeline's /run and /asm front door, driven through a stub
// Executor that counts executions the way a backend would: the body-digest
// memo must be invisible on the wire (a memo hit answers exactly what a
// fresh parse would), every rejection must be derived fresh, and the memo
// is bounded by the result cache it serves. Both tiers mount this front
// door; FuzzCoordinatorFrontDoor (internal/cluster) drives it on each.
package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

const firBody = `{"program":"fir.mmx","dispatch":"block","skip_check":true}`

// stubExecutor stands in for a tier: it accepts every parsed request and
// answers it with a small deterministic body, counting executions per
// endpoint.
type stubExecutor struct {
	runs, asmRuns atomic.Int64
}

func (e *stubExecutor) Check(*Request) error { return nil }

func (e *stubExecutor) Execute(_ context.Context, req *Request) ([]byte, int64, error) {
	if req.Asm != nil {
		e.asmRuns.Add(1)
		return fmt.Appendf(nil, `{"program":"asm","body_bytes":%d,"report":{"Cycles":42}}`, len(req.Body)), 0, nil
	}
	e.runs.Add(1)
	return fmt.Appendf(nil, `{"program":%q,"report":{"Name":%q,"Cycles":42}}`, req.Run.Program, req.Run.Program), 0, nil
}

func (e *stubExecutor) Programs(context.Context) ([]string, error) { return []string{"fir.mmx"}, nil }
func (e *stubExecutor) Width() int                                 { return 1 }
func (e *stubExecutor) Ready() error                               { return nil }
func (e *stubExecutor) Metrics() any                               { return struct{}{} }

// newStubPipeline serves a pipeline over a stub executor with results
// result-cache entries (0: result caching off).
func newStubPipeline(t *testing.T, results, maxSourceBytes int) (*Pipeline, *stubExecutor, *httptest.Server) {
	t.Helper()
	f := &stubExecutor{}
	cfg := PipelineConfig{MaxSourceBytes: maxSourceBytes}
	if results > 0 {
		cfg.Results = NewResultCache(results, "")
	}
	p := NewPipeline(f, cfg)
	ts := httptest.NewServer(p.Handler())
	t.Cleanup(ts.Close)
	return p, f, ts
}

// post sends one POST to url+path and returns the response with its body.
func post(t *testing.T, url, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestFrontDoorMemoHitMatchesParsedHit: a byte-identical repeat is keyed
// from the memo, and it answers the same body, ETag and result-cache
// outcome as a byte-different repeat of the same request that had to be
// parsed.
func TestFrontDoorMemoHitMatchesParsedHit(t *testing.T) {
	p, f, ts := newStubPipeline(t, 64, 0)

	for _, tc := range []struct{ path, body, respaced string }{
		{"/run", firBody, "{ \"program\": \"fir.mmx\", \"dispatch\": \"block\", \"skip_check\": true }"},
		{"/asm", `{"source":"halt\n","name":"h"}`, "{\"source\": \"halt\\n\", \"name\": \"h\"}\n"},
	} {
		if resp, _ := post(t, ts.URL, tc.path, tc.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s cold: status %d", tc.path, resp.StatusCode)
		}
		before := p.Stats().MemoHits
		memoResp, memoBody := post(t, ts.URL, tc.path, tc.body)
		if got := p.Stats().MemoHits - before; got != 1 {
			t.Fatalf("%s byte-identical repeat: body_memo_hits +%d, want +1", tc.path, got)
		}
		parsedResp, parsedBody := post(t, ts.URL, tc.path, tc.respaced)
		if got := p.Stats().MemoHits - before; got != 1 {
			t.Fatalf("%s byte-different repeat hit the memo (+%d)", tc.path, got)
		}
		if string(memoBody) != string(parsedBody) {
			t.Errorf("%s: memo hit body differs from parsed hit:\n%s\n%s", tc.path, memoBody, parsedBody)
		}
		for _, h := range []string{"ETag", ResultCacheHeader, "Content-Type"} {
			if m, p := memoResp.Header.Get(h), parsedResp.Header.Get(h); m != p || m == "" {
				t.Errorf("%s: %s memo %q vs parsed %q", tc.path, h, m, p)
			}
		}
	}
	if f.runs.Load() != 1 || f.asmRuns.Load() != 1 {
		t.Errorf("executor fills: run %d asm %d, want 1 each", f.runs.Load(), f.asmRuns.Load())
	}
}

// TestFrontDoorRejectionsAreNotMemoized: an invalid or oversized body
// answers the same status and bytes every time and leaves no memo entry.
func TestFrontDoorRejectionsAreNotMemoized(t *testing.T) {
	p, f, ts := newStubPipeline(t, 64, 64)

	for _, tc := range []struct {
		path, body string
		status     int
	}{
		{"/run", `{"program":"fir.mmx","dispatch":"warp"}`, http.StatusBadRequest},
		{"/run", `not json`, http.StatusBadRequest},
		{"/run", firBody + strings.Repeat(" ", MaxRequestBody), http.StatusRequestEntityTooLarge},
		{"/asm", `{"source":""}`, http.StatusBadRequest},
		{"/asm", `{"source":"` + strings.Repeat("n", 65) + `"}`, http.StatusRequestEntityTooLarge},
		{"/asm", `{"source":"halt"}` + strings.Repeat(" ", AsmBodyLimit(64)), http.StatusRequestEntityTooLarge},
	} {
		resp1, body1 := post(t, ts.URL, tc.path, tc.body)
		resp2, body2 := post(t, ts.URL, tc.path, tc.body)
		if resp1.StatusCode != tc.status || resp2.StatusCode != tc.status {
			t.Errorf("%s %.40q: statuses %d, %d, want %d", tc.path, tc.body, resp1.StatusCode, resp2.StatusCode, tc.status)
		}
		if string(body1) != string(body2) {
			t.Errorf("%s %.40q: repeat answered different bytes:\n%s\n%s", tc.path, tc.body, body1, body2)
		}
	}
	if n := p.memo.len(); n != 0 {
		t.Errorf("rejected bodies left %d memo entries", n)
	}
	if hits := p.Stats().MemoHits; hits != 0 {
		t.Errorf("body_memo_hits = %d after rejections only", hits)
	}
	if f.runs.Load()+f.asmRuns.Load() != 0 {
		t.Error("a rejected body reached the executor")
	}
}

// TestFrontDoorEquivalentBodiesFillOnce: byte-different encodings of one
// request (reordered fields, extra whitespace) share one result key, so
// they cost one executor fill and answer identical bytes.
func TestFrontDoorEquivalentBodiesFillOnce(t *testing.T) {
	p, f, ts := newStubPipeline(t, 64, 0)

	variants := []string{
		`{"program":"fir.mmx","dispatch":"block","config":{"emms_latency":0}}`,
		`{"config":{"emms_latency":0},"dispatch":"block","program":"fir.mmx"}`,
		"\n{ \"dispatch\" : \"block\",\t\"program\":\"fir.mmx\", \"config\": {\"emms_latency\": 0} }\n",
	}
	var first []byte
	for i, v := range variants {
		resp, body := post(t, ts.URL, "/run", v)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("variant %d: status %d", i, resp.StatusCode)
		}
		if i == 0 {
			first = body
		} else if string(body) != string(first) {
			t.Errorf("variant %d answered different bytes:\n%s\n%s", i, body, first)
		}
	}
	if n := f.runs.Load(); n != 1 {
		t.Errorf("executor filled %d times, want 1", n)
	}
	if n := p.memo.len(); n != len(variants) {
		t.Errorf("memo holds %d entries, want one per distinct body (%d)", n, len(variants))
	}
}

// TestFrontDoorPathsDoNotAlias: the same bytes posted to /run and /asm are
// keyed separately — a body memoized under one endpoint must still be
// parsed (and here rejected) by the other.
func TestFrontDoorPathsDoNotAlias(t *testing.T) {
	p, f, ts := newStubPipeline(t, 64, 0)

	runBody, asmBody := firBody, `{"source":"halt"}`
	for _, body := range []string{runBody, asmBody} {
		for _, path := range []string{"/run", "/asm"} {
			// Twice each, so the second post of a valid body is a memo hit
			// that must not leak to the other path.
			post(t, ts.URL, path, body)
			post(t, ts.URL, path, body)
		}
	}
	for _, tc := range []struct {
		path, body string
		status     int
	}{
		{"/run", runBody, http.StatusOK},
		{"/asm", runBody, http.StatusBadRequest},
		{"/run", asmBody, http.StatusBadRequest},
		{"/asm", asmBody, http.StatusOK},
	} {
		if resp, _ := post(t, ts.URL, tc.path, tc.body); resp.StatusCode != tc.status {
			t.Errorf("%s %s: status %d, want %d", tc.path, tc.body, resp.StatusCode, tc.status)
		}
	}
	if f.runs.Load() != 1 || f.asmRuns.Load() != 1 {
		t.Errorf("executor fills: run %d asm %d, want 1 each", f.runs.Load(), f.asmRuns.Load())
	}
	if n := p.memo.len(); n != 2 {
		t.Errorf("memo holds %d entries, want 2", n)
	}
}

// TestFrontDoorMemoBounded: the memo never holds more entries than the
// result cache it serves, and it does not exist without one.
func TestFrontDoorMemoBounded(t *testing.T) {
	const capacity = 3
	p, _, ts := newStubPipeline(t, capacity, 0)
	for i := 1; i <= 3*capacity; i++ {
		body := fmt.Sprintf(`{"program":"fir.mmx","max_instrs":%d}`, i)
		if resp, _ := post(t, ts.URL, "/run", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d", i, resp.StatusCode)
		}
		if n := p.memo.len(); n > capacity {
			t.Fatalf("memo holds %d entries after %d distinct bodies, capacity %d", n, i, capacity)
		}
	}
	if n := p.memo.len(); n != capacity {
		t.Errorf("memo holds %d entries, want %d", n, capacity)
	}

	off, _, _ := newStubPipeline(t, 0, 0) // result caching off
	if off.memo != nil {
		t.Error("memo exists with result caching disabled")
	}
}
