// Black-box integration tests for the mmxd service, driven entirely
// through the HTTP surface. The load-bearing assertions: served reports
// are byte-equivalent to direct core.Run reports, the warm cache skips
// recompilation, the admission queue sheds load with 429s, and every
// cancellation path (deadline, client disconnect, drain) halts the
// interpreter promptly without leaking goroutines.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/core"
	"mmxdsp/internal/server"
	"mmxdsp/internal/suite"
	"mmxdsp/internal/vm"
)

// TestMain is the goroutine-leak backstop: after every test (each of which
// closes its httptest server and settles its requests), the process must
// return to roughly the baseline goroutine count.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base+3 && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base+3 {
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines at exit, baseline %d\n%s\n",
				n, base, buf[:runtime.Stack(buf, true)])
			code = 1
		}
	}
	os.Exit(code)
}

// spinBench is a synthetic non-terminating benchmark; only cancellation
// (or the instruction budget) ends it.
func spinBench(base string) core.Benchmark {
	return core.Benchmark{
		Base: base, Version: core.VersionC, Kind: core.KindKernel, Descr: "synthetic spin",
		Build: func() (*asm.Program, error) {
			return asm.ParseSource(base, ".proc main\nspin:\n\tadd eax, 1\n\tjmp spin\n")
		},
	}
}

// registry builds a Config Lookup/Benchmarks pair over a fixed set.
func registry(benches ...core.Benchmark) (func(string) (core.Benchmark, bool), func() []core.Benchmark) {
	byName := map[string]core.Benchmark{}
	for _, b := range benches {
		byName[b.Name()] = b
	}
	return func(name string) (core.Benchmark, bool) {
			b, ok := byName[name]
			return b, ok
		}, func() []core.Benchmark {
			return append([]core.Benchmark(nil), benches...)
		}
}

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	// Most tests exercise the execution path (admission, compiled cache,
	// cancellation) and expect identical requests to re-run; result caching
	// is opt-in per test.
	if cfg.ResultCacheEntries == 0 {
		cfg.ResultCacheEntries = -1
	}
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postRun(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /run: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /run response: %v", err)
	}
	return resp.StatusCode, data
}

func getMetrics(t *testing.T, url string) server.MetricsSnapshot {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var snap server.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	return snap
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	// Generous: under a full-suite run on a small host, compiling the
	// program behind the awaited condition can itself take seconds.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// runEnvelope mirrors RunResponse with the report kept raw for
// byte-equivalence checks.
type runEnvelope struct {
	Program  string          `json:"program"`
	Dispatch string          `json:"dispatch"`
	CacheHit bool            `json:"cache_hit"`
	WallNS   int64           `json:"wall_ns"`
	Report   json.RawMessage `json:"report"`
}

// compact strips encoding whitespace so indented responses compare against
// compact json.Marshal output; field order and value formatting survive,
// so this is still a byte-level equivalence check.
func compact(t *testing.T, raw []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("compacting JSON: %v", err)
	}
	return buf.String()
}

func directReportJSON(t *testing.T, name, dispatch string) string {
	t.Helper()
	bench, ok := suite.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	res, err := core.Run(bench, core.Options{SkipCheck: true, Dispatch: dispatch})
	if err != nil {
		t.Fatalf("direct run %s/%s: %v", name, dispatch, err)
	}
	data, err := json.Marshal(res.Report)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestRunMatchesDirectRun(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	for _, name := range []string{"fir.c", "fir.mmx", "fft.mmx"} {
		for _, dispatch := range []string{"block", "predecode", core.DispatchGeneric} {
			t.Run(name+"/"+dispatch, func(t *testing.T) {
				body := fmt.Sprintf(`{"program":%q,"dispatch":%q,"skip_check":true}`, name, dispatch)
				status, data := postRun(t, ts.URL, body)
				if status != http.StatusOK {
					t.Fatalf("status %d: %s", status, data)
				}
				var env runEnvelope
				if err := json.Unmarshal(data, &env); err != nil {
					t.Fatalf("decoding response: %v", err)
				}
				// The envelope names the canonical mode of the requested
				// name, so every alias of a mode answers the same bytes.
				mode, err := core.CanonicalDispatch(dispatch)
				if err != nil {
					t.Fatal(err)
				}
				if env.Program != name || env.Dispatch != mode {
					t.Errorf("envelope says %s/%s, want %s/%s", env.Program, env.Dispatch, name, mode)
				}
				if got, want := compact(t, env.Report), directReportJSON(t, name, dispatch); got != want {
					t.Errorf("served report differs from direct core.Run:\n got %.200s...\nwant %.200s...", got, want)
				}
			})
		}
	}
}

// TestWarmCacheSkipsRecompilation is the acceptance criterion for the
// compiled-program cache: the second identical request reports a cache hit
// and /metrics shows hits > 0.
func TestWarmCacheSkipsRecompilation(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	const body = `{"program":"fir.mmx","dispatch":"block","skip_check":true}`

	status, data := postRun(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("cold run: status %d: %s", status, data)
	}
	var cold runEnvelope
	if err := json.Unmarshal(data, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Error("first request reported a cache hit")
	}

	status, data = postRun(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("warm run: status %d: %s", status, data)
	}
	var warm runEnvelope
	if err := json.Unmarshal(data, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Error("second identical request missed the cache")
	}
	if got, want := compact(t, warm.Report), compact(t, cold.Report); got != want {
		t.Error("warm report differs from cold report")
	}

	snap := getMetrics(t, ts.URL)
	if snap.CacheHits == 0 {
		t.Errorf("metrics report zero cache hits: %+v", snap)
	}
	if snap.CacheMisses == 0 {
		t.Errorf("metrics report zero cache misses: %+v", snap)
	}
	if snap.RunsOK != 2 {
		t.Errorf("runs_ok = %d, want 2", snap.RunsOK)
	}
	if snap.RunsByProgram["fir.mmx"] != 2 {
		t.Errorf("runs_by_program[fir.mmx] = %d, want 2", snap.RunsByProgram["fir.mmx"])
	}
	if snap.InstrsPerSec <= 0 || snap.WallMSP50 <= 0 {
		t.Errorf("derived gauges not populated: %+v", snap)
	}

	// The compiled program depends on the program alone, so an ablation
	// config runs the artifact the default config compiled (a hit).
	status, data = postRun(t, ts.URL, `{"program":"fir.mmx","dispatch":"block","skip_check":true,"config":{"disable_pairing":true}}`)
	if status != http.StatusOK {
		t.Fatalf("ablation run: status %d: %s", status, data)
	}
	var abl runEnvelope
	if err := json.Unmarshal(data, &abl); err != nil {
		t.Fatal(err)
	}
	if !abl.CacheHit {
		t.Error("ablation config recompiled a program the cache already holds")
	}
}

func TestQueueOverflowSheds429(t *testing.T) {
	lookup, all := registry(spinBench("spin"))
	_, ts := newTestServer(t, server.Config{Workers: 1, QueueDepth: 1, Lookup: lookup, Benchmarks: all})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	launch := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/run",
				strings.NewReader(`{"program":"spin.c","skip_check":true}`))
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}

	launch() // occupies the single worker
	waitFor(t, "the worker slot to fill", func() bool { return getMetrics(t, ts.URL).ActiveRuns == 1 })
	launch() // occupies the single queue slot
	waitFor(t, "the queue slot to fill", func() bool { return getMetrics(t, ts.URL).QueueDepth == 1 })

	status, data := postRun(t, ts.URL, `{"program":"spin.c","skip_check":true}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429: %s", status, data)
	}
	if snap := getMetrics(t, ts.URL); snap.Rejected == 0 {
		t.Errorf("metrics report zero rejections: %+v", snap)
	}

	cancel()
	wg.Wait()
	waitFor(t, "the server to settle after cancellation", func() bool {
		snap := getMetrics(t, ts.URL)
		return snap.ActiveRuns == 0 && snap.QueueDepth == 0
	})
}

// TestDeadlineExceeded pins the acceptance bound: a request whose deadline
// fires mid-simulation returns 504 promptly (well under 250ms after the
// deadline), because the interpreter polls the context every few thousand
// instructions.
func TestDeadlineExceeded(t *testing.T) {
	lookup, all := registry(spinBench("spin"))
	_, ts := newTestServer(t, server.Config{Lookup: lookup, Benchmarks: all})

	start := time.Now()
	status, data := postRun(t, ts.URL, `{"program":"spin.c","timeout_ms":50,"skip_check":true}`)
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", status, data)
	}
	if !strings.Contains(string(data), "deadline") {
		t.Errorf("error body does not mention the deadline: %s", data)
	}
	if elapsed > 250*time.Millisecond {
		t.Errorf("timed-out request took %v end to end, want < 250ms", elapsed)
	}
	if snap := getMetrics(t, ts.URL); snap.Canceled == 0 {
		t.Errorf("metrics report zero cancelled runs: %+v", snap)
	}
}

func TestClientDisconnectAbortsRun(t *testing.T) {
	lookup, all := registry(spinBench("spin"))
	_, ts := newTestServer(t, server.Config{Lookup: lookup, Benchmarks: all})

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/run",
		strings.NewReader(`{"program":"spin.c","skip_check":true}`))
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()
	waitFor(t, "the spin run to start", func() bool { return getMetrics(t, ts.URL).ActiveRuns == 1 })

	cancel() // client walks away
	if err := <-done; err == nil {
		t.Error("disconnected request returned a response instead of an error")
	}
	waitFor(t, "the aborted run to retire", func() bool {
		snap := getMetrics(t, ts.URL)
		return snap.ActiveRuns == 0 && snap.Canceled >= 1
	})
}

// TestCancelledRunLeavesCacheCoherent: a run aborted mid-flight must not
// poison the compiled-program cache — the next request for the same key
// hits the cache and produces a report identical to a direct run.
func TestCancelledRunLeavesCacheCoherent(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})

	// fir.c under the generic interpreter takes ~100ms; a 5ms deadline
	// reliably fires mid-run.
	status, data := postRun(t, ts.URL, `{"program":"fir.c","dispatch":"generic","timeout_ms":5,"skip_check":true}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", status, data)
	}

	status, data = postRun(t, ts.URL, `{"program":"fir.c","dispatch":"generic","skip_check":true}`)
	if status != http.StatusOK {
		t.Fatalf("post-cancel run: status %d: %s", status, data)
	}
	var env runEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if !env.CacheHit {
		t.Error("post-cancel run missed the cache (compilation outlives cancelled runs)")
	}
	if got, want := compact(t, env.Report), directReportJSON(t, "fir.c", core.DispatchGeneric); got != want {
		t.Error("post-cancel report differs from a direct run")
	}
}

func TestDrainRefusesNewWorkAndFinishesInFlight(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{})

	// Put a real run in flight, then start draining under it.
	inflight := make(chan struct {
		status int
		body   []byte
	}, 1)
	go func() {
		status, body := postRunNoFatal(ts.URL, `{"program":"g722.c","skip_check":true}`)
		inflight <- struct {
			status int
			body   []byte
		}{status, body}
	}()
	waitFor(t, "the in-flight run to start", func() bool { return getMetrics(t, ts.URL).ActiveRuns == 1 })

	srv.StartDrain()
	if !srv.Draining() {
		t.Fatal("Draining() false after StartDrain")
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatalf("GET /healthz: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("/healthz while draining: %d, want 503", resp.StatusCode)
		}
	}
	if status, data := postRun(t, ts.URL, `{"program":"fir.c"}`); status != http.StatusServiceUnavailable {
		t.Errorf("/run while draining: %d, want 503: %s", status, data)
	}
	if !getMetrics(t, ts.URL).Draining {
		t.Error("/metrics does not report draining")
	}

	// The admitted run must still complete successfully.
	res := <-inflight
	if res.status != http.StatusOK {
		t.Errorf("in-flight run during drain: status %d: %s", res.status, res.body)
	}
}

func postRunNoFatal(url, body string) (int, []byte) {
	resp, err := http.Post(url+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

func TestConcurrentMixedTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent sweep; skipped in -short mode")
	}
	_, ts := newTestServer(t, server.Config{})
	type combo struct{ name, dispatch string }
	combos := []combo{
		{"fir.c", "block"}, {"fir.mmx", "predecode"},
		{"fft.mmx", "block"}, {"fir.mmx", core.DispatchGeneric},
	}
	want := map[combo]string{}
	for _, c := range combos {
		want[c] = directReportJSON(t, c.name, c.dispatch)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		c := combos[i%len(combos)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, data := postRunNoFatal(ts.URL,
				fmt.Sprintf(`{"program":%q,"dispatch":%q,"skip_check":true}`, c.name, c.dispatch))
			if status != http.StatusOK {
				errs <- fmt.Errorf("%s/%s: status %d: %s", c.name, c.dispatch, status, data)
				return
			}
			var env runEnvelope
			if err := json.Unmarshal(data, &env); err != nil {
				errs <- fmt.Errorf("%s/%s: decode: %v", c.name, c.dispatch, err)
				return
			}
			var buf bytes.Buffer
			if err := json.Compact(&buf, env.Report); err != nil {
				errs <- err
				return
			}
			if buf.String() != want[c] {
				errs <- fmt.Errorf("%s/%s: concurrent report drifted", c.name, c.dispatch)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if snap := getMetrics(t, ts.URL); snap.RunsOK != 16 {
		t.Errorf("runs_ok = %d, want 16", snap.RunsOK)
	}
}

func TestTableEndpoint(t *testing.T) {
	lookup, all := registryFromSuite(t, "fir.c", "fir.fp", "fir.mmx")
	_, ts := newTestServer(t, server.Config{Lookup: lookup, Benchmarks: all})

	resp, err := http.Get(ts.URL + "/table?dispatch=block")
	if err != nil {
		t.Fatalf("GET /table: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var table struct {
		Dispatch  string `json:"dispatch"`
		Programs  int    `json:"programs"`
		Table2    string `json:"table2"`
		Table2CSV string `json:"table2_csv"`
		Table3    string `json:"table3"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&table); err != nil {
		t.Fatalf("decoding /table: %v", err)
	}
	if table.Programs != 3 || table.Dispatch != core.DispatchTrace {
		t.Errorf("table header: %+v", table)
	}
	for _, want := range []string{"fir.c", "fir.fp", "fir.mmx"} {
		if !strings.Contains(table.Table2, want) {
			t.Errorf("table2 missing %s:\n%s", want, table.Table2)
		}
	}
	if !strings.Contains(table.Table2CSV, "fir.mmx") || table.Table3 == "" {
		t.Error("table3/CSV artifacts empty")
	}
}

func registryFromSuite(t *testing.T, names ...string) (func(string) (core.Benchmark, bool), func() []core.Benchmark) {
	t.Helper()
	benches := make([]core.Benchmark, len(names))
	for i, n := range names {
		b, ok := suite.ByName(n)
		if !ok {
			t.Fatalf("unknown suite program %q", n)
		}
		benches[i] = b
	}
	return registry(benches...)
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, server.Config{MaxInstrsCap: 1000000})
	cases := []struct {
		name, body string
		status     int
	}{
		{"bad JSON", `{`, http.StatusBadRequest},
		{"unknown field", `{"program":"fir.c","frobnicate":1}`, http.StatusBadRequest},
		{"missing program", `{}`, http.StatusBadRequest},
		{"unknown program", `{"program":"quake.mmx"}`, http.StatusNotFound},
		{"bad dispatch", `{"program":"fir.c","dispatch":"warp"}`, http.StatusBadRequest},
		{"negative budget", `{"program":"fir.c","max_instrs":-1}`, http.StatusBadRequest},
		{"budget over cap", `{"program":"fir.c","max_instrs":2000000}`, http.StatusBadRequest},
		{"trailing garbage", `{"program":"fir.c"} x`, http.StatusBadRequest},
		{"config out of range", `{"program":"fir.c","config":{"mispredict_penalty":5000}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, data := postRun(t, ts.URL, tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d: %s", status, tc.status, data)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
				t.Errorf("error body not structured: %s", data)
			}
		})
	}
	if resp, err := http.Get(ts.URL + "/run"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /run: %d, want 405", resp.StatusCode)
		}
	}
}

// TestBudgetCapDefaultsRequests: with MaxInstrsCap set, an uncapped spin
// request inherits the server budget and terminates with a budget fault
// (500) instead of running forever.
func TestBudgetCapDefaultsRequests(t *testing.T) {
	lookup, all := registry(spinBench("spin"))
	_, ts := newTestServer(t, server.Config{MaxInstrsCap: 200000, Lookup: lookup, Benchmarks: all})
	status, data := postRun(t, ts.URL, `{"program":"spin.c","skip_check":true}`)
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (budget fault): %s", status, data)
	}
	if !strings.Contains(string(data), "budget") {
		t.Errorf("error does not mention the budget: %s", data)
	}
}

// TestReadBody pins the one body reader both tiers share: the cap is
// exact whether or not Content-Length announces the size, an over-cap
// body is a 413 (never a truncated prefix), and a body that ends before
// its Content-Length is a 400.
func TestReadBody(t *testing.T) {
	const limit = 64
	body := strings.Repeat("x", limit)
	for _, tc := range []struct {
		name   string
		body   string
		cl     int64 // -1: unknown (chunked)
		cut    bool  // the connection drops after body
		want   string
		status int // 0: success
	}{
		{"announced", body, limit, false, body, 0},
		{"chunked", body, -1, false, body, 0},
		{"empty", "", 0, false, "", 0},
		{"over cap announced", body + "y", limit + 1, false, "", http.StatusRequestEntityTooLarge},
		{"over cap chunked", body + "y", -1, false, "", http.StatusRequestEntityTooLarge},
		{"understated length", body + "y", 10, false, "", http.StatusRequestEntityTooLarge},
		{"short body", "x", 10, true, "", http.StatusBadRequest},
	} {
		var src io.Reader = strings.NewReader(tc.body)
		if tc.cut {
			src = io.MultiReader(src, iotest.ErrReader(io.ErrUnexpectedEOF))
		}
		r := httptest.NewRequest(http.MethodPost, "/run", src)
		r.ContentLength = tc.cl
		got, err := server.ReadBody(r, limit)
		if tc.status != 0 {
			if err == nil || server.RequestErrorStatus(err) != tc.status {
				t.Errorf("%s: err %v (status %d), want status %d", tc.name, err, server.RequestErrorStatus(err), tc.status)
			}
			continue
		}
		if err != nil || string(got) != tc.want {
			t.Errorf("%s: got %q, %v; want %q", tc.name, got, err, tc.want)
		}
	}
}

// TestPanickingBenchmarkAnswers500: a panic inside one run — a Check on
// /run, a Build on a /table worker goroutine — answers 500, is not cached,
// and leaves the daemon serving.
func TestPanickingBenchmarkAnswers500(t *testing.T) {
	fir, ok := suite.ByName("fir.c")
	if !ok {
		t.Fatal("fir.c missing from the suite")
	}
	badCheck := fir
	badCheck.Base = "badcheck"
	badCheck.Check = func(*vm.CPU) error { panic("check exploded") }
	badBuild := fir
	badBuild.Base = "badbuild"
	badBuild.Build = func() (*asm.Program, error) { panic("build exploded") }
	lookup, all := registry(fir, badCheck, badBuild)
	_, ts := newTestServer(t, server.Config{ResultCacheEntries: 64, Lookup: lookup, Benchmarks: all})

	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/table")
		if err != nil {
			t.Fatalf("GET /table: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || !bytes.Contains(body, []byte("build exploded")) {
			t.Fatalf("/table #%d: status %d: %s", i+1, resp.StatusCode, body)
		}
		if code, body := postRun(t, ts.URL, `{"program":"badcheck.c"}`); code != http.StatusInternalServerError ||
			!bytes.Contains(body, []byte("check exploded")) {
			t.Fatalf("/run badcheck.c #%d: status %d: %s", i+1, code, body)
		}
	}
	if code, body := postRun(t, ts.URL, `{"program":"fir.c"}`); code != http.StatusOK {
		t.Fatalf("/run fir.c after the panics: status %d: %s", code, body)
	}
}
