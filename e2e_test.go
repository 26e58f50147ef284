// End-to-end tests for the mmxd service: the full 21-program suite under
// every dispatch name served over HTTP must be byte-equivalent to direct
// core.Run reports, and the real daemon binary must drain gracefully on
// SIGTERM.
package mmxdsp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mmxdsp/internal/core"
	"mmxdsp/internal/server"
	"mmxdsp/internal/suite"
)

// TestServedReportsMatchDirectRuns is the service acceptance gate: every
// suite program, under every dispatch name, served over HTTP, produces a
// report byte-equivalent to a direct core.Run with the same options.
// Aliases of one mode share its cached result, so the daemon executes each
// program once per canonical mode, and every mode shares the program's one
// compiled artifact.
func TestServedReportsMatchDirectRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full 21x4 sweep (served and direct); skipped in -short mode")
	}
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	benches := suite.All()
	modes := []string{core.DispatchTrace, "block", "predecode", core.DispatchGeneric}
	canonical := map[string]bool{}

	for _, mode := range modes {
		m, err := core.CanonicalDispatch(mode)
		if err != nil {
			t.Fatal(err)
		}
		canonical[m] = true
		// Direct side: the cache-free reference, run on the suite pool.
		direct, err := core.RunAll(benches, core.Options{SkipCheck: true, Dispatch: mode})
		if err != nil {
			t.Fatalf("direct RunAll(%s): %v", mode, err)
		}
		want := make(map[string]string, len(direct))
		for name, res := range direct {
			data, err := json.Marshal(res.Report)
			if err != nil {
				t.Fatal(err)
			}
			want[name] = string(data)
		}

		// Served side: all programs concurrently through the daemon.
		var wg sync.WaitGroup
		errs := make(chan error, len(benches))
		for _, bench := range benches {
			name := bench.Name()
			wg.Add(1)
			go func() {
				defer wg.Done()
				body := fmt.Sprintf(`{"program":%q,"dispatch":%q,"skip_check":true}`, name, mode)
				resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- fmt.Errorf("%s/%s: %v", name, mode, err)
					return
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- fmt.Errorf("%s/%s: reading response: %v", name, mode, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s/%s: status %d: %s", name, mode, resp.StatusCode, data)
					return
				}
				var env struct {
					Report json.RawMessage `json:"report"`
				}
				if err := json.Unmarshal(data, &env); err != nil {
					errs <- fmt.Errorf("%s/%s: decode: %v", name, mode, err)
					return
				}
				var buf bytes.Buffer
				if err := json.Compact(&buf, env.Report); err != nil {
					errs <- fmt.Errorf("%s/%s: compact: %v", name, mode, err)
					return
				}
				if buf.String() != want[name] {
					errs <- fmt.Errorf("%s/%s: served report is not byte-equivalent to direct core.Run", name, mode)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var m server.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if wantRuns := int64(len(benches) * len(canonical)); m.RunsOK != wantRuns {
		t.Errorf("runs_ok = %d, want %d", m.RunsOK, wantRuns)
	}
	if m.CacheMisses != uint64(len(benches)) {
		t.Errorf("cache_misses = %d, want %d (each program compiles once)", m.CacheMisses, len(benches))
	}
}

// TestDaemonSIGTERMDrain exercises the real binary: build cmd/mmxd, serve
// a request, then SIGTERM with a request in flight — the in-flight run
// completes, new work is refused, and the process exits cleanly.
func TestDaemonSIGTERMDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary; skipped in -short mode")
	}
	bin := t.TempDir() + "/mmxd"
	build := exec.Command("go", "build", "-o", bin, "./cmd/mmxd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building mmxd: %v\n%s", err, out)
	}

	// Reserve a port, release it, and hand it to the daemon.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	daemon := exec.Command(bin, "-addr", addr, "-grace", "30s")
	var logs bytes.Buffer
	daemon.Stdout, daemon.Stderr = &logs, &logs
	if err := daemon.Start(); err != nil {
		t.Fatalf("starting mmxd: %v", err)
	}
	defer daemon.Process.Kill()

	base := "http://" + addr
	waitHealthy := func() bool {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
	deadline := time.Now().Add(10 * time.Second)
	for !waitHealthy() {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became healthy\n%s", logs.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// One warm-up run end to end through the real daemon.
	resp, err := http.Post(base+"/run", "application/json",
		strings.NewReader(`{"program":"fir.mmx","skip_check":true}`))
	if err != nil {
		t.Fatalf("POST /run: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon run: status %d: %s", resp.StatusCode, body)
	}

	// Put a slower request in flight, then SIGTERM under it.
	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/run", "application/json",
			strings.NewReader(`{"program":"jpeg.c","skip_check":true}`))
		if err != nil {
			inflight <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	started := func() bool {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var m server.MetricsSnapshot
		if json.NewDecoder(resp.Body).Decode(&m) != nil {
			return false
		}
		return m.ActiveRuns >= 1
	}
	deadline = time.Now().Add(5 * time.Second)
	for !started() {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight run never started\n%s", logs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	// The admitted request must complete despite the drain.
	select {
	case status := <-inflight:
		if status != http.StatusOK {
			t.Errorf("in-flight run during drain: status %d\n%s", status, logs.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatal("in-flight request did not complete during drain")
	}
	if err := daemon.Wait(); err != nil {
		t.Fatalf("daemon exited uncleanly: %v\n%s", err, logs.String())
	}
	if !strings.Contains(logs.String(), "drained cleanly") {
		t.Errorf("daemon logs missing drain confirmation:\n%s", logs.String())
	}
}

// TestResultCacheServesIdenticalBytes sweeps every suite program in every
// dispatch mode twice through a result-caching daemon: the replay must be
// byte-identical to the first response, marked as a cache hit, and must
// not re-execute the simulation. (Aliases of a mode share its entry; see
// the dispatch-alias tests in internal/cluster.)
func TestResultCacheServesIdenticalBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("full 21x2 sweep served twice; skipped in -short mode")
	}
	srv := server.New(server.Config{}) // result cache on by default
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	benches := suite.All()
	modes := []string{core.DispatchTrace, core.DispatchGeneric}

	fetch := func(name, mode string) (*http.Response, []byte) {
		body := fmt.Sprintf(`{"program":%q,"dispatch":%q,"skip_check":true}`, name, mode)
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s/%s: %v", name, mode, err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, data
	}

	for _, mode := range modes {
		for _, bench := range benches {
			name := bench.Name()
			resp1, body1 := fetch(name, mode)
			if resp1.StatusCode != http.StatusOK {
				t.Fatalf("%s/%s: status %d: %s", name, mode, resp1.StatusCode, body1)
			}
			if got := resp1.Header.Get(server.ResultCacheHeader); got != "miss" {
				t.Errorf("%s/%s: first response cache header %q, want miss", name, mode, got)
			}
			resp2, body2 := fetch(name, mode)
			if resp2.StatusCode != http.StatusOK {
				t.Fatalf("%s/%s: replay status %d", name, mode, resp2.StatusCode)
			}
			if got := resp2.Header.Get(server.ResultCacheHeader); got != "hit" {
				t.Errorf("%s/%s: replay cache header %q, want hit", name, mode, got)
			}
			if !bytes.Equal(body1, body2) {
				t.Errorf("%s/%s: replayed bytes differ from the first execution", name, mode)
			}
			if e1, e2 := resp1.Header.Get("ETag"), resp2.Header.Get("ETag"); e1 == "" || e1 != e2 {
				t.Errorf("%s/%s: ETags %q vs %q, want one stable tag", name, mode, e1, e2)
			}
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m server.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	want := int64(len(benches) * len(modes))
	if m.RunsOK != want {
		t.Errorf("runs_ok = %d, want %d (replays must not execute)", m.RunsOK, want)
	}
	if m.ResultHits != uint64(want) || m.ResultMisses != uint64(want) {
		t.Errorf("result cache hits/misses = %d/%d, want %d/%d", m.ResultHits, m.ResultMisses, want, want)
	}
}

// TestDaemonResultCacheSpillSurvivesRestart exercises the persistent spill
// tier against the real binary: run the daemon with -result-cache-dir,
// serve one request, restart the process over the same directory, and the
// replay must come back byte-identical from the spill tier — without
// re-simulating.
func TestDaemonResultCacheSpillSurvivesRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary twice; skipped in -short mode")
	}
	tmp := t.TempDir()
	bin := tmp + "/mmxd"
	build := exec.Command("go", "build", "-o", bin, "./cmd/mmxd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building mmxd: %v\n%s", err, out)
	}
	spillDir := tmp + "/results"
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		t.Fatal(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	base := "http://" + addr

	startDaemon := func() (*exec.Cmd, *bytes.Buffer) {
		t.Helper()
		daemon := exec.Command(bin, "-addr", addr, "-result-cache-dir", spillDir, "-grace", "30s")
		var logs bytes.Buffer
		daemon.Stdout, daemon.Stderr = &logs, &logs
		if err := daemon.Start(); err != nil {
			t.Fatalf("starting mmxd: %v", err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get(base + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return daemon, &logs
				}
			}
			if time.Now().After(deadline) {
				daemon.Process.Kill()
				t.Fatalf("daemon never became healthy\n%s", logs.String())
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	run := func() (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(base+"/run", "application/json",
			strings.NewReader(`{"program":"fir.mmx","dispatch":"block","skip_check":true}`))
		if err != nil {
			t.Fatalf("POST /run: %v", err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run: status %d: %s", resp.StatusCode, data)
		}
		return resp, data
	}

	first, _ := startDaemon()
	defer first.Process.Kill()
	resp1, body1 := run()
	if got := resp1.Header.Get(server.ResultCacheHeader); got != "miss" {
		t.Errorf("cold run cache header = %q, want miss", got)
	}
	etag := resp1.Header.Get("ETag")
	if err := first.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := first.Wait(); err != nil {
		t.Fatalf("first daemon exited uncleanly: %v", err)
	}

	second, logs := startDaemon()
	defer second.Process.Kill()
	resp2, body2 := run()
	if got := resp2.Header.Get(server.ResultCacheHeader); got != "spill" {
		t.Errorf("post-restart cache header = %q, want spill\n%s", got, logs.String())
	}
	if !bytes.Equal(body1, body2) {
		t.Error("post-restart bytes differ from the pre-restart response")
	}
	if got := resp2.Header.Get("ETag"); got != etag {
		t.Errorf("post-restart ETag %q, want %q", got, etag)
	}

	// The restarted daemon must not have executed the benchmark.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m server.MetricsSnapshot
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.RunsOK != 0 {
		t.Errorf("restarted daemon executed %d runs, want 0 (spill should answer)", m.RunsOK)
	}
	if m.ResultSpillHits != 1 {
		t.Errorf("result_cache_spill_hits = %d, want 1", m.ResultSpillHits)
	}
	second.Process.Signal(syscall.SIGTERM)
	second.Wait()
}
