// Tests for the fleet-facing surface of the daemon: the /programs
// capability-discovery endpoint, the X-Request-ID correlation echo, and the
// exported affinity cache key.
package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"mmxdsp/internal/core"
	"mmxdsp/internal/server"
	"mmxdsp/internal/suite"
)

func TestProgramsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})

	resp, err := http.Get(ts.URL + "/programs")
	if err != nil {
		t.Fatalf("GET /programs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var pr server.ProgramsResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatalf("decoding /programs: %v", err)
	}
	names := suite.Names()
	if len(pr.Programs) != len(names) {
		t.Fatalf("got %d programs, want %d", len(pr.Programs), len(names))
	}
	byName := map[string]server.ProgramInfo{}
	for _, p := range pr.Programs {
		byName[p.Name] = p
	}
	for _, name := range names {
		if _, ok := byName[name]; !ok {
			t.Errorf("program %q missing from /programs", name)
		}
	}
	fir, ok := byName["fir.mmx"]
	if !ok || fir.Base != "fir" || fir.Version != "mmx" || fir.Kind != "kernel" || fir.Descr == "" {
		t.Errorf("fir.mmx entry malformed: %+v (ok=%t)", fir, ok)
	}

	post, err := http.Post(ts.URL+"/programs", "application/json", nil)
	if err != nil {
		t.Fatalf("POST /programs: %v", err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /programs: status %d, want 405", post.StatusCode)
	}
}

var hexID = regexp.MustCompile(`^[0-9a-f]{16}$`)

func TestRequestIDEcho(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})

	do := func(id, method, path, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set(server.RequestIDHeader, id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	// Client-supplied ID echoed on success.
	resp := do("trace-abc-123", "POST", "/run", `{"program":"fir.mmx","skip_check":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(server.RequestIDHeader); got != "trace-abc-123" {
		t.Errorf("echoed ID %q, want %q", got, "trace-abc-123")
	}

	// Echoed on error paths too: unknown program (404) and bad JSON (400).
	resp = do("trace-err", "POST", "/run", `{"program":"nope.mmx"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown program status %d, want 404", resp.StatusCode)
	}
	if got := resp.Header.Get(server.RequestIDHeader); got != "trace-err" {
		t.Errorf("404 echoed ID %q, want %q", got, "trace-err")
	}

	// Absent ID: the daemon mints a 16-hex-digit one.
	resp = do("", "GET", "/healthz", "")
	if got := resp.Header.Get(server.RequestIDHeader); !hexID.MatchString(got) {
		t.Errorf("generated ID %q, want 16 hex digits", got)
	}

	// Hostile IDs are replaced, not echoed. The Go client refuses to send
	// control bytes at all, so exercise the middleware directly with a
	// handcrafted request.
	handler := server.WithRequestID(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	for _, hostile := range []string{"bad\x01id", strings.Repeat("x", 200)} {
		req := httptest.NewRequest("GET", "/healthz", nil)
		req.Header[server.RequestIDHeader] = []string{hostile}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		got := rec.Header().Get(server.RequestIDHeader)
		if got == hostile || got == "" || len(got) > 64 {
			t.Errorf("hostile ID %q echoed as %q, want sanitized", hostile, got)
		}
	}
}

// dispatchNames is every dispatch name the service accepts.
var dispatchNames = []string{"", "trace", "generic", "auto", "block", "predecode"}

// TestProgramsDispatchModesRunnable: /programs lists no dispatch modes,
// because every name /run accepts runs the one interpreter; each of them
// runs, and /run rejects any other name.
func TestProgramsDispatchModesRunnable(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	resp, err := http.Get(ts.URL + "/programs")
	if err != nil {
		t.Fatalf("GET /programs: %v", err)
	}
	var fields map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&fields)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decoding /programs: %v", err)
	}
	if _, ok := fields["dispatch_modes"]; ok || len(fields) != 1 {
		t.Errorf("/programs fields %v, want programs alone", reflect.ValueOf(fields).MapKeys())
	}
	for _, mode := range dispatchNames {
		body := `{"program":"fir.mmx","dispatch":"` + mode + `","skip_check":true}`
		if status, data := postRun(t, ts.URL, body); status != http.StatusOK {
			t.Errorf("/run with dispatch %q answers %d: %s", mode, status, data)
		}
	}
	status, data := postRun(t, ts.URL, `{"program":"fir.mmx","dispatch":"warp"}`)
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &e); err != nil || status != http.StatusBadRequest ||
		e.Error != core.CheckDispatch("warp").Error() {
		t.Errorf("unknown dispatch: status %d %s, want 400 %q", status, data, core.CheckDispatch("warp"))
	}
}

func TestCacheKeyDistinguishesConfigs(t *testing.T) {
	parse := func(body string) *server.RunRequest {
		t.Helper()
		req, err := server.ParseRunRequest([]byte(body))
		if err != nil {
			t.Fatalf("ParseRunRequest(%s): %v", body, err)
		}
		return req
	}
	a := parse(`{"program":"fir.mmx","dispatch":"block"}`)
	b := parse(`{"program":"fir.mmx","dispatch":"block","timeout_ms":500}`)
	if a.CacheKey() != b.CacheKey() {
		t.Errorf("timeout changed the cache key: %q vs %q", a.CacheKey(), b.CacheKey())
	}
	variants := []string{
		`{"program":"fft.mmx","dispatch":"block"}`,
		`{"program":"fir.mmx","dispatch":"block","config":{"perfect_cache":true}}`,
		`{"program":"fir.mmx","dispatch":"block","config":{"mispredict_penalty":7}}`,
	}
	seen := map[string]string{a.CacheKey(): variants[0]}
	for _, v := range variants {
		key := parse(v).CacheKey()
		if prev, dup := seen[key]; dup {
			t.Errorf("cache key collision between %s and %s", prev, v)
		}
		seen[key] = v
	}
	// Every dispatch name shares one key.
	for _, mode := range dispatchNames {
		r := parse(`{"program":"fir.mmx","dispatch":"` + mode + `"}`)
		if r.CacheKey() != a.CacheKey() || r.ResultKey() != a.ResultKey() {
			t.Errorf("dispatch %q keys %q / %q, want %q / %q", mode, r.CacheKey(), r.ResultKey(), a.CacheKey(), a.ResultKey())
		}
	}
}
