// Unit tests for the coordinator, driven against in-process fake backends
// so health transitions, routing order, retries, hedging and shedding are
// all deterministic. The real-daemon behavior is covered by e2e_test.go.
package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mmxdsp/internal/server"
)

// fakeBackend is a scriptable stand-in for one mmxd.
type fakeBackend struct {
	ts      *httptest.Server
	healthy atomic.Bool
	queue   atomic.Int64
	// runDelay stalls /run (hedging tests); run429 sheds every /run.
	runDelay atomic.Int64 // nanoseconds
	run429   atomic.Bool
	runs     atomic.Int64
	asmRuns  atomic.Int64
	lastID   atomic.Value // last X-Request-ID seen on /run

	mu   sync.Mutex
	seen []seenRun // identity headers of every /run, in arrival order
}

// seenRun is the identity a /run arrived with.
type seenRun struct{ id, tenant string }

func newFakeBackend(t testing.TB) *fakeBackend {
	t.Helper()
	f := &fakeBackend{}
	f.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !f.healthy.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.MetricsSnapshot{QueueDepth: f.queue.Load(), CacheHitRate: 0.5})
	})
	mux.HandleFunc("/programs", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.ProgramsResponse{
			Programs:      []server.ProgramInfo{{Name: "fir.mmx"}, {Name: "fft.c"}},
			DispatchModes: []string{"block", "predecode", "generic"},
		})
	})
	mux.HandleFunc("/run", func(w http.ResponseWriter, r *http.Request) {
		f.lastID.Store(r.Header.Get(server.RequestIDHeader))
		f.mu.Lock()
		f.seen = append(f.seen, seenRun{r.Header.Get(server.RequestIDHeader), r.Header.Get(server.TenantHeader)})
		f.mu.Unlock()
		// Drain the body before stalling: the server only notices a client
		// disconnect (r.Context()) once the request body is consumed.
		body, _ := io.ReadAll(r.Body)
		if d := f.runDelay.Load(); d > 0 {
			select {
			case <-time.After(time.Duration(d)):
			case <-r.Context().Done():
				return
			}
		}
		if f.run429.Load() {
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
			return
		}
		f.runs.Add(1)
		var req struct {
			Program string `json:"program"`
		}
		json.Unmarshal(body, &req)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"program":%q,"served_by":%q,"report":{"Name":%q,"Cycles":42}}`,
			req.Program, f.ts.URL, req.Program)
	})
	mux.HandleFunc("/asm", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		f.asmRuns.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"program":"asm","body_bytes":%d,"report":{"Cycles":42}}`, len(body))
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

// newTestCoordinator wires a coordinator over the fakes with fast,
// test-friendly timings. The prober is NOT started; tests call ProbeAll.
func newTestCoordinator(t *testing.T, cfg Config, fakes ...*fakeBackend) (*Coordinator, *httptest.Server) {
	t.Helper()
	for _, f := range fakes {
		cfg.Backends = append(cfg.Backends, f.ts.URL)
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 10 * time.Millisecond
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = time.Millisecond
	}
	// Routing tests count backend arrivals, so identical repeats must route
	// every time; result caching is opt-in per test.
	if cfg.ResultCacheEntries == 0 {
		cfg.ResultCacheEntries = -1
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(c.Stop)
	return c, ts
}

func postRun(t *testing.T, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/run", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /run: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

const firBody = `{"program":"fir.mmx","dispatch":"block","skip_check":true}`

func TestHRWRankingIsStableAndMinimal(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	c, err := New(Config{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	keys := make([]string, 50)
	for i := range keys {
		keys[i] = fmt.Sprintf("prog%d.mmx|block|cfg", i)
	}
	first := map[string]string{}
	for _, k := range keys {
		r := c.rank(k)
		if len(r) != 4 {
			t.Fatalf("rank(%q) returned %d backends", k, len(r))
		}
		if got := c.rank(k); got[0] != r[0] {
			t.Fatalf("rank(%q) unstable", k)
		}
		first[k] = r[0].url
	}
	// Spread: with 50 keys and 4 backends every backend should win some.
	wins := map[string]int{}
	for _, u := range first {
		wins[u]++
	}
	if len(wins) != 4 {
		t.Errorf("HRW first choices hit only %d of 4 backends: %v", len(wins), wins)
	}
	// Minimal disruption: killing one backend remaps only its own keys.
	dead := c.backends[0]
	dead.mu.Lock()
	dead.state = StateDead
	dead.mu.Unlock()
	for _, k := range keys {
		got := c.rank(k)[0].url
		if first[k] == dead.url {
			if got == dead.url {
				t.Fatalf("key %q still routed to dead backend", k)
			}
			continue
		}
		if got != first[k] {
			t.Errorf("key %q remapped %s -> %s though its target is alive", k, first[k], got)
		}
	}
}

func TestProberMarksDeadAndReadmits(t *testing.T) {
	f := newFakeBackend(t)
	c, _ := newTestCoordinator(t, Config{FailThreshold: 3}, f)

	c.ProbeAll()
	if st := c.Backends()[0]; st.State != StateHealthy {
		t.Fatalf("state %s after good probe, want healthy", st.State)
	}

	f.healthy.Store(false)
	c.ProbeAll()
	if st := c.Backends()[0]; st.State != StateSuspect {
		t.Fatalf("state %s after 1 failure, want suspect (still routable)", st.State)
	}
	if len(c.routableBackends()) != 1 {
		t.Fatal("suspect backend should remain routable")
	}
	c.ProbeAll()
	c.ProbeAll()
	if st := c.Backends()[0]; st.State != StateDead {
		t.Fatalf("state %s after 3 failures, want dead", st.State)
	}
	if len(c.routableBackends()) != 0 {
		t.Fatal("dead backend must not be routable")
	}
	if c.Snapshot().Deaths != 1 {
		t.Errorf("deaths = %d, want 1", c.Snapshot().Deaths)
	}

	// Recovery: one good probe re-admits.
	f.healthy.Store(true)
	c.ProbeAll()
	if st := c.Backends()[0]; st.State != StateHealthy {
		t.Fatalf("state %s after recovery probe, want healthy", st.State)
	}
	if c.Snapshot().Readmissions != 1 {
		t.Errorf("readmissions = %d, want 1", c.Snapshot().Readmissions)
	}
}

func TestProbeBackoffSchedule(t *testing.T) {
	f := newFakeBackend(t)
	f.healthy.Store(false)
	c, _ := newTestCoordinator(t, Config{
		ProbeInterval:   100 * time.Millisecond,
		MaxProbeBackoff: 300 * time.Millisecond,
	}, f)
	c.ProbeAll() // fail #1: backoff 100ms
	b := c.backends[0]
	if b.dueForProbe(time.Now()) {
		t.Fatal("backend due immediately after a failed probe; want backoff")
	}
	if !b.dueForProbe(time.Now().Add(150 * time.Millisecond)) {
		t.Fatal("backend not due after first backoff elapsed")
	}
	c.ProbeAll() // fail #2: backoff 200ms
	c.ProbeAll() // fail #3: backoff 400ms -> capped at 300ms
	if b.dueForProbe(time.Now().Add(250 * time.Millisecond)) {
		t.Fatal("backoff did not grow with the failure streak")
	}
	if !b.dueForProbe(time.Now().Add(350 * time.Millisecond)) {
		t.Fatal("backoff exceeded MaxProbeBackoff")
	}
}

func TestRetryOn429FailsOverToAnotherBackend(t *testing.T) {
	shedding, ok := newFakeBackend(t), newFakeBackend(t)
	shedding.run429.Store(true)
	c, ts := newTestCoordinator(t, Config{Retries: 2}, shedding, ok)
	c.ProbeAll()

	for i := 0; i < 4; i++ {
		resp, body := postRun(t, ts.URL, firBody, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if got := resp.Header.Get(BackendHeader); got != ok.ts.URL {
			t.Fatalf("served by %q, want the non-shedding backend %q", got, ok.ts.URL)
		}
	}
	if ok.runs.Load() != 4 {
		t.Errorf("healthy backend served %d runs, want 4", ok.runs.Load())
	}
}

func TestRetryExhausted429RelaysWithRetryAfter(t *testing.T) {
	a, b := newFakeBackend(t), newFakeBackend(t)
	a.run429.Store(true)
	b.run429.Store(true)
	c, ts := newTestCoordinator(t, Config{Retries: 1}, a, b)
	c.ProbeAll()

	resp, _ := postRun(t, ts.URL, firBody, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 relayed", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("relayed 429 missing Retry-After")
	}
	if c.Snapshot().Retries == 0 {
		t.Error("retry counter did not move")
	}
}

func TestConnErrorFailsOverAndKillsBackend(t *testing.T) {
	live := newFakeBackend(t)
	corpse := newFakeBackend(t)
	corpseURL := corpse.ts.URL
	corpse.ts.Close() // connection refused from the start

	cfg := Config{Retries: 3, FailThreshold: 1}
	cfg.Backends = []string{corpseURL}
	c, ts := newTestCoordinator(t, cfg, live)

	// Sweep distinct keys: some of them rank the corpse as the affinity
	// target, and every request must still succeed via failover.
	for i := 0; i < 8; i++ {
		body := fmt.Sprintf(`{"program":"prog%d.mmx","skip_check":true}`, i)
		resp, data := postRun(t, ts.URL, body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("key %d: status %d: %s", i, resp.StatusCode, data)
		}
		if got := resp.Header.Get(BackendHeader); got != live.ts.URL {
			t.Fatalf("key %d served by %q, want %q", i, got, live.ts.URL)
		}
	}
	// The wire errors alone (FailThreshold=1) must have killed the corpse.
	for _, st := range c.Backends() {
		if st.URL == corpseURL && st.State != StateDead {
			t.Errorf("backend %s state %s after conn error, want dead", st.URL, st.State)
		}
	}
}

func TestShedWhenNoRoutableBackend(t *testing.T) {
	f := newFakeBackend(t)
	f.healthy.Store(false)
	c, ts := newTestCoordinator(t, Config{FailThreshold: 1}, f)
	c.ProbeAll()

	resp, _ := postRun(t, ts.URL, firBody, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 shed", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if c.Snapshot().Shed != 1 {
		t.Errorf("shed counter %d, want 1", c.Snapshot().Shed)
	}

	// /healthz mirrors the registry so an upstream LB sheds too.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("coordinator /healthz %d with no routable backends, want 503", hresp.StatusCode)
	}
}

func TestHedgedRequestWins(t *testing.T) {
	a, b := newFakeBackend(t), newFakeBackend(t)
	c, ts := newTestCoordinator(t, Config{HedgeAfter: 20 * time.Millisecond}, a, b)
	c.ProbeAll()

	// Find which backend is the affinity target for this key and make it
	// slow, so the hedge to the other must win.
	req, err := server.ParseRunRequest([]byte(firBody))
	if err != nil {
		t.Fatal(err)
	}
	order := c.rank(req.CacheKey())
	slow, fast := a, b
	if order[0].url == b.ts.URL {
		slow, fast = b, a
	}
	slow.runDelay.Store(int64(500 * time.Millisecond))

	start := time.Now()
	resp, body := postRun(t, ts.URL, firBody, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 400*time.Millisecond {
		t.Errorf("hedged request took %v; the hedge should have won long before the slow primary", elapsed)
	}
	if got := resp.Header.Get(BackendHeader); got != fast.ts.URL {
		t.Errorf("served by %q, want the hedged backend %q", got, fast.ts.URL)
	}
	snap := c.Snapshot()
	if snap.Hedges != 1 || snap.HedgeWins != 1 {
		t.Errorf("hedges=%d wins=%d, want 1/1", snap.Hedges, snap.HedgeWins)
	}
}

func TestSaturationFallsBackToLeastLoaded(t *testing.T) {
	a, b := newFakeBackend(t), newFakeBackend(t)
	c, ts := newTestCoordinator(t, Config{QueueSaturation: 8}, a, b)

	req, err := server.ParseRunRequest([]byte(firBody))
	if err != nil {
		t.Fatal(err)
	}
	order := c.rank(req.CacheKey())
	affinity, other := a, b
	if order[0].url == b.ts.URL {
		affinity, other = b, a
	}
	affinity.queue.Store(50) // deep backlog at the affinity target
	c.ProbeAll()

	resp, body := postRun(t, ts.URL, firBody, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(BackendHeader); got != other.ts.URL {
		t.Errorf("served by %q, want least-loaded %q", got, other.ts.URL)
	}
	snap := c.Snapshot()
	if snap.Fallbacks != 1 {
		t.Errorf("fallbacks=%d, want 1", snap.Fallbacks)
	}
}

func TestRequestIDPropagatesToBackend(t *testing.T) {
	f := newFakeBackend(t)
	c, ts := newTestCoordinator(t, Config{}, f)
	c.ProbeAll()

	resp, _ := postRun(t, ts.URL, firBody, map[string]string{server.RequestIDHeader: "fleet-trace-7"})
	if got := resp.Header.Get(server.RequestIDHeader); got != "fleet-trace-7" {
		t.Errorf("coordinator echoed %q, want fleet-trace-7", got)
	}
	if got, _ := f.lastID.Load().(string); got != "fleet-trace-7" {
		t.Errorf("backend saw request ID %q, want fleet-trace-7", got)
	}

	// No client ID: the coordinator mints one and the backend sees it.
	resp, _ = postRun(t, ts.URL, firBody, nil)
	minted := resp.Header.Get(server.RequestIDHeader)
	if minted == "" {
		t.Fatal("coordinator response missing generated request ID")
	}
	if got, _ := f.lastID.Load().(string); got != minted {
		t.Errorf("backend saw %q, coordinator echoed %q", got, minted)
	}
}

// TestSuiteForwardsRequestIdentity: every program of a /suite reaches its
// backend with the request's identity, as a routed /run does — the ID the
// coordinator minted when the client sent none, and the client's tenant.
func TestSuiteForwardsRequestIdentity(t *testing.T) {
	f := newFakeBackend(t)
	c, ts := newTestCoordinator(t, Config{}, f)
	c.ProbeAll()

	for _, hdr := range []map[string]string{nil, {server.TenantHeader: "suite-tenant"}} {
		f.mu.Lock()
		f.seen = nil
		f.mu.Unlock()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/suite", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/suite: status %d", resp.StatusCode)
		}
		id := resp.Header.Get(server.RequestIDHeader)
		f.mu.Lock()
		seen := append([]seenRun(nil), f.seen...)
		f.mu.Unlock()
		if len(seen) != 2 {
			t.Fatalf("backend saw %d runs, want one per program (2)", len(seen))
		}
		for _, s := range seen {
			if s.id != id {
				t.Errorf("backend saw request ID %q, coordinator answered %q", s.id, id)
			}
			if want := hdr[server.TenantHeader]; want != "" && s.tenant != want {
				t.Errorf("backend saw tenant %q, want %q", s.tenant, want)
			}
		}
	}
}

func TestCoordinatorValidatesBeforeRouting(t *testing.T) {
	f := newFakeBackend(t)
	c, ts := newTestCoordinator(t, Config{}, f)
	c.ProbeAll()

	for _, bad := range []string{
		`not json`,
		`{"program":""}`,
		`{"program":"fir.mmx","dispatch":"warp"}`,
		`{"program":"fir.mmx","max_instrs":-1}`,
	} {
		resp, _ := postRun(t, ts.URL, bad, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	if f.runs.Load() != 0 {
		t.Errorf("invalid requests reached a backend (%d runs)", f.runs.Load())
	}
}

func TestParseSuiteRequest(t *testing.T) {
	good := []string{
		``, `{}`, `{"dispatch":"block"}`, `{"part":1,"of":4}`,
		`{"config":{"perfect_cache":true},"timeout_ms":100}`,
	}
	for _, g := range good {
		if _, err := parseSuiteRequest([]byte(g)); err != nil {
			t.Errorf("parseSuiteRequest(%q) = %v, want ok", g, err)
		}
	}
	bad := []string{
		`{"dispatch":"warp"}`, `{"timeout_ms":-1}`,
		`{"part":4,"of":4}`, `{"part":-1,"of":2}`, `{"of":-1}`,
		`{"unknown_field":1}`,
	}
	for _, b := range bad {
		if _, err := parseSuiteRequest([]byte(b)); err == nil {
			t.Errorf("parseSuiteRequest(%q) accepted, want error", b)
		}
	}
}

func TestProgramsDiscoveryProxied(t *testing.T) {
	f := newFakeBackend(t)
	c, ts := newTestCoordinator(t, Config{}, f)
	c.ProbeAll()

	resp, err := http.Get(ts.URL + "/programs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr server.ProgramsResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Programs) != 2 || pr.Programs[0].Name != "fir.mmx" {
		t.Errorf("proxied programs %+v", pr.Programs)
	}
}

func TestProbeLoopRunsAndRecovers(t *testing.T) {
	f := newFakeBackend(t)
	f.healthy.Store(false)
	c, _ := newTestCoordinator(t, Config{
		ProbeInterval: 10 * time.Millisecond,
		FailThreshold: 1,
	}, f)
	c.Start()
	defer c.Stop()

	deadline := time.Now().Add(2 * time.Second)
	for len(c.routableBackends()) != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if len(c.routableBackends()) != 0 {
		t.Fatal("prober never marked the failing backend dead")
	}
	f.healthy.Store(true)
	for len(c.routableBackends()) != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if len(c.routableBackends()) != 1 {
		t.Fatal("prober never re-admitted the recovered backend")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no backends should fail")
	}
	if _, err := New(Config{Backends: []string{"::bad::"}}); err == nil {
		t.Error("New with a malformed URL should fail")
	}
	if _, err := New(Config{Backends: []string{"http://a:1", "http://a:1"}}); err == nil {
		t.Error("New with duplicate backends should fail")
	}
}
