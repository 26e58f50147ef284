// Tests for the coordinator's /run and /asm front door — the shared
// pipeline's, whose memo tests live with it in internal/server: the one
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

// TestDrainAnswersAlikeOnBothTiers: once draining, mmxd and mmxfleet
// refuse new work with the same status, Retry-After and body on every
// endpoint of the shared pipeline, and both fail /healthz.
func TestDrainAnswersAlikeOnBothTiers(t *testing.T) {
	d := server.New(server.Config{})
	backend := httptest.NewServer(d.Handler())
	t.Cleanup(backend.Close)
	c, err := New(Config{Backends: []string{backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	c.ProbeAll()
	coord := httptest.NewServer(c.Handler())
	t.Cleanup(coord.Close)

	d.StartDrain()
	c.StartDrain()
	for _, tc := range []struct{ path, body string }{
		{"/run", `{"program":"fir.mmx"}`},
		{"/asm", `{"source":"halt"}`},
		{"/campaign", `{"programs":["fir.mmx"]}`},
	} {
		dResp, dBody := post(t, backend.URL, tc.path, tc.body)
		cResp, cBody := post(t, coord.URL, tc.path, tc.body)
		if dResp.StatusCode != http.StatusServiceUnavailable || cResp.StatusCode != dResp.StatusCode {
			t.Errorf("%s while draining: mmxd %d, mmxfleet %d, want 503 from both", tc.path, dResp.StatusCode, cResp.StatusCode)
		}
		if d, c := dResp.Header.Get("Retry-After"), cResp.Header.Get("Retry-After"); d == "" || d != c {
			t.Errorf("%s while draining: Retry-After mmxd %q, mmxfleet %q", tc.path, d, c)
		}
		if string(dBody) != string(cBody) {
			t.Errorf("%s while draining: mmxd says %s, mmxfleet says %s", tc.path, dBody, cBody)
		}
	}
	for _, url := range []string{backend.URL, coord.URL} {
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s/healthz while draining: %d, want 503", url, resp.StatusCode)
		}
	}
}
