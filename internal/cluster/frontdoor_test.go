// Tests for the coordinator's /run and /asm front door: the body-digest
// memo must be invisible on the wire (a memo hit answers exactly what a
// fresh parse would), every rejection must be derived fresh, and the one
// body reader must answer over-cap and short bodies the same way on both
// tiers.
package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"mmxdsp/internal/server"
)

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
	f := newFakeBackend(t)
	c, ts := newTestCoordinator(t, Config{ResultCacheEntries: 64}, f)
	c.ProbeAll()

	for _, tc := range []struct{ path, body, respaced string }{
		{"/run", firBody, "{ \"program\": \"fir.mmx\", \"dispatch\": \"block\", \"skip_check\": true }"},
		{"/asm", `{"source":"halt\n","name":"h"}`, "{\"source\": \"halt\\n\", \"name\": \"h\"}\n"},
	} {
		if resp, _ := post(t, ts.URL, tc.path, tc.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s cold: status %d", tc.path, resp.StatusCode)
		}
		before := c.Snapshot().BodyMemoHits
		memoResp, memoBody := post(t, ts.URL, tc.path, tc.body)
		if got := c.Snapshot().BodyMemoHits - before; got != 1 {
			t.Fatalf("%s byte-identical repeat: body_memo_hits +%d, want +1", tc.path, got)
		}
		parsedResp, parsedBody := post(t, ts.URL, tc.path, tc.respaced)
		if got := c.Snapshot().BodyMemoHits - before; got != 1 {
			t.Fatalf("%s byte-different repeat hit the memo (+%d)", tc.path, got)
		}
		if string(memoBody) != string(parsedBody) {
			t.Errorf("%s: memo hit body differs from parsed hit:\n%s\n%s", tc.path, memoBody, parsedBody)
		}
		for _, h := range []string{"ETag", server.ResultCacheHeader, "Content-Type"} {
			if m, p := memoResp.Header.Get(h), parsedResp.Header.Get(h); m != p || m == "" {
				t.Errorf("%s: %s memo %q vs parsed %q", tc.path, h, m, p)
			}
		}
	}
	if f.runs.Load() != 1 || f.asmRuns.Load() != 1 {
		t.Errorf("backend fills: run %d asm %d, want 1 each", f.runs.Load(), f.asmRuns.Load())
	}
}

// TestFrontDoorRejectionsAreNotMemoized: an invalid or oversized body
// answers the same status and bytes every time and leaves no memo entry.
func TestFrontDoorRejectionsAreNotMemoized(t *testing.T) {
	f := newFakeBackend(t)
	c, ts := newTestCoordinator(t, Config{ResultCacheEntries: 64, MaxSourceBytes: 64}, f)
	c.ProbeAll()

	for _, tc := range []struct {
		path, body string
		status     int
	}{
		{"/run", `{"program":"fir.mmx","dispatch":"warp"}`, http.StatusBadRequest},
		{"/run", `not json`, http.StatusBadRequest},
		{"/run", firBody + strings.Repeat(" ", server.MaxRequestBody), http.StatusRequestEntityTooLarge},
		{"/asm", `{"source":""}`, http.StatusBadRequest},
		{"/asm", `{"source":"` + strings.Repeat("n", 65) + `"}`, http.StatusRequestEntityTooLarge},
		{"/asm", `{"source":"halt"}` + strings.Repeat(" ", server.AsmBodyLimit(64)), http.StatusRequestEntityTooLarge},
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
	if n := c.memo.len(); n != 0 {
		t.Errorf("rejected bodies left %d memo entries", n)
	}
	if snap := c.Snapshot(); snap.BodyMemoHits != 0 {
		t.Errorf("body_memo_hits = %d after rejections only", snap.BodyMemoHits)
	}
	if f.runs.Load()+f.asmRuns.Load() != 0 {
		t.Error("a rejected body reached a backend")
	}
}

// TestFrontDoorEquivalentBodiesFillOnce: byte-different encodings of one
// request (reordered fields, extra whitespace) share one result key, so
// they cost one backend fill and answer identical bytes.
func TestFrontDoorEquivalentBodiesFillOnce(t *testing.T) {
	f := newFakeBackend(t)
	c, ts := newTestCoordinator(t, Config{ResultCacheEntries: 64}, f)
	c.ProbeAll()

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
		t.Errorf("backend filled %d times, want 1", n)
	}
	if n := c.memo.len(); n != len(variants) {
		t.Errorf("memo holds %d entries, want one per distinct body (%d)", n, len(variants))
	}
}

// TestFrontDoorPathsDoNotAlias: the same bytes posted to /run and /asm are
// keyed separately — a body memoized under one endpoint must still be
// parsed (and here rejected) by the other.
func TestFrontDoorPathsDoNotAlias(t *testing.T) {
	f := newFakeBackend(t)
	c, ts := newTestCoordinator(t, Config{ResultCacheEntries: 64}, f)
	c.ProbeAll()

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
		t.Errorf("backend fills: run %d asm %d, want 1 each", f.runs.Load(), f.asmRuns.Load())
	}
	if n := c.memo.len(); n != 2 {
		t.Errorf("memo holds %d entries, want 2", n)
	}
}

// TestFrontDoorMemoBounded: the memo never holds more entries than the
// result cache it serves, and it does not exist without one.
func TestFrontDoorMemoBounded(t *testing.T) {
	f := newFakeBackend(t)
	const capacity = 3
	c, ts := newTestCoordinator(t, Config{ResultCacheEntries: capacity}, f)
	c.ProbeAll()
	for i := 1; i <= 3*capacity; i++ {
		body := fmt.Sprintf(`{"program":"fir.mmx","max_instrs":%d}`, i)
		if resp, _ := post(t, ts.URL, "/run", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d", i, resp.StatusCode)
		}
		if n := c.memo.len(); n > capacity {
			t.Fatalf("memo holds %d entries after %d distinct bodies, capacity %d", n, i, capacity)
		}
	}
	if n := c.memo.len(); n != capacity {
		t.Errorf("memo holds %d entries, want %d", n, capacity)
	}

	off, _ := newTestCoordinator(t, Config{}, f) // result caching off
	if off.memo != nil {
		t.Error("memo exists with result caching disabled")
	}
}

// TestFrontDoorShortBodyIs400: a Content-Length promising more bytes than
// the client sends answers 400 once the client stops sending, not a hang.
func TestFrontDoorShortBodyIs400(t *testing.T) {
	f := newFakeBackend(t)
	c, ts := newTestCoordinator(t, Config{ResultCacheEntries: 64}, f)
	c.ProbeAll()
	u, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/run", "/asm"} {
		conn, err := net.Dial("tcp", u.Host)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		body := `{"program":"fir.mmx"}`
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
			path, u.Host, len(body)+100, body)
		conn.(*net.TCPConn).CloseWrite()
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("%s: reading response: %v", path, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s short body: status %d, want 400: %s", path, resp.StatusCode, data)
		}
	}
	if f.runs.Load()+f.asmRuns.Load() != 0 {
		t.Error("a short body reached a backend")
	}
}

// TestOverCapBodySameOnBothTiers: a body one byte over its endpoint's cap
// gets the same status and error text from mmxd and from mmxfleet — the
// coordinator used to truncate it at 1 MiB and forward (or accept) the
// prefix.
func TestOverCapBodySameOnBothTiers(t *testing.T) {
	const maxSource = 1 << 10
	backend := httptest.NewServer(server.New(server.Config{MaxSourceBytes: maxSource}).Handler())
	t.Cleanup(backend.Close)
	c, err := New(Config{Backends: []string{backend.URL}, MaxSourceBytes: maxSource})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	c.ProbeAll()
	coord := httptest.NewServer(c.Handler())
	t.Cleanup(coord.Close)

	pad := func(prefix string, limit int) string {
		return prefix + strings.Repeat(" ", limit+1-len(prefix))
	}
	cases := []struct{ path, body string }{
		{"/run", pad(`{"program":"fir.mmx"}`, server.MaxRequestBody)},
		{"/asm", pad(`{"source":"halt"}`, server.AsmBodyLimit(maxSource))},
		{"/campaign", pad(`{"programs":["fir.mmx"],"axes":{"emms_latency":[0,1]}}`, server.MaxRequestBody)},
	}
	errorOf := func(data []byte) string {
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatalf("error body %q: %v", data, err)
		}
		return e.Error
	}
	for _, tc := range cases {
		dResp, dBody := post(t, backend.URL, tc.path, tc.body)
		cResp, cBody := post(t, coord.URL, tc.path, tc.body)
		if dResp.StatusCode != http.StatusRequestEntityTooLarge || cResp.StatusCode != dResp.StatusCode {
			t.Errorf("%s over cap: mmxd %d, mmxfleet %d, want 413 from both", tc.path, dResp.StatusCode, cResp.StatusCode)
		}
		if d, c := errorOf(dBody), errorOf(cBody); d != c {
			t.Errorf("%s over cap: mmxd says %q, mmxfleet says %q", tc.path, d, c)
		}
		// One byte less fits: the cap is the cap, not a truncation point.
		fits := tc.body[:len(tc.body)-1]
		dResp, _ = post(t, backend.URL, tc.path, fits)
		cResp, _ = post(t, coord.URL, tc.path, fits)
		if dResp.StatusCode == http.StatusRequestEntityTooLarge || cResp.StatusCode != dResp.StatusCode {
			t.Errorf("%s at cap: mmxd %d, mmxfleet %d, want the same non-413 status", tc.path, dResp.StatusCode, cResp.StatusCode)
		}
	}
	// /suite has no mmxd counterpart; it shares the /run cap.
	resp, data := post(t, coord.URL, "/suite", pad(`{"dispatch":"block"}`, server.MaxRequestBody))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("/suite over cap: status %d, want 413: %s", resp.StatusCode, data)
	}
}
