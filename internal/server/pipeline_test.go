// Pipeline tests through mmxd's HTTP surface: a panicking run is contained
// on every path that executes it, and the /table fan-out takes one worker
// slot per program instead of running programs beside an outer slot.
package server_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/core"
	"mmxdsp/internal/server"
	"mmxdsp/internal/suite"
	"mmxdsp/internal/vm"
)

// panicRegistry is fir.c plus badcheck.c, a copy of fir.c whose Check
// panics.
func panicRegistry(t *testing.T) (func(string) (core.Benchmark, bool), func() []core.Benchmark) {
	t.Helper()
	fir, ok := suite.ByName("fir.c")
	if !ok {
		t.Fatal("fir.c missing from the suite")
	}
	bad := fir
	bad.Base = "badcheck"
	bad.Check = func(*vm.CPU) error { panic("check exploded") }
	return registry(fir, bad)
}

// TestPanickingCheckContained drives a benchmark whose Check panics through
// /run and through /campaign: the run answers 500 and its points fail while
// sibling points complete, the daemon keeps serving, the key is never
// cached, and /metrics counts every panicking run as run_panics.
func TestPanickingCheckContained(t *testing.T) {
	lookup, all := panicRegistry(t)
	_, ts := newTestServer(t, server.Config{ResultCacheEntries: 64, Lookup: lookup, Benchmarks: all})

	for i := 1; i <= 2; i++ {
		resp, data := postRunHeaders(t, ts, `{"program":"badcheck.c"}`, nil)
		if resp.StatusCode != http.StatusInternalServerError || !bytes.Contains(data, []byte("check exploded")) {
			t.Fatalf("/run badcheck.c #%d: status %d: %s", i, resp.StatusCode, data)
		}
		if got := resp.Header.Get(server.ResultCacheHeader); got != "" {
			t.Errorf("/run badcheck.c #%d answered with result-cache outcome %q", i, got)
		}
		if got := getMetrics(t, ts.URL).RunPanics; got != int64(i) {
			t.Errorf("run_panics = %d after %d panicking runs", got, i)
		}
	}

	status, data := postCampaign(t, ts.URL, `{"programs":["badcheck.c","fir.c"],"axes":{"emms_latency":[0,1]}}`)
	if status != http.StatusAccepted {
		t.Fatalf("POST /campaign: %d %s", status, data)
	}
	final := waitCampaign(t, ts.URL, decodeCampaign(t, data).ID)
	if final.Status != "completed" || final.Done != 2 || final.Failed != 2 {
		t.Fatalf("campaign: status %s, %d done, %d failed; want completed, 2 and 2", final.Status, final.Done, final.Failed)
	}
	for _, p := range final.Points {
		if want := map[bool]string{true: "failed", false: "done"}[p.Program == "badcheck.c"]; p.Status != want {
			t.Errorf("point %d (%s): %s %q, want %s", p.Index, p.Program, p.Status, p.Error, want)
		}
	}
	if got := getMetrics(t, ts.URL).RunPanics; got != 4 {
		t.Errorf("run_panics = %d after the campaign, want 4", got)
	}

	// The daemon keeps serving, and a failed point's key was not cached.
	resp, data := postRunHeaders(t, ts, `{"program":"badcheck.c","config":{"emms_latency":0}}`, nil)
	if resp.StatusCode != http.StatusInternalServerError || resp.Header.Get(server.ResultCacheHeader) == "hit" {
		t.Errorf("/run of a failed point's key: status %d, %s %q", resp.StatusCode, server.ResultCacheHeader, resp.Header.Get(server.ResultCacheHeader))
	}
	if resp, data = postRunHeaders(t, ts, `{"program":"fir.c"}`, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("/run fir.c after the panics: status %d: %s", resp.StatusCode, data)
	}
}

// TestTableStaysWithinWorkers: a /table fan-out takes one worker slot per
// program and holds none while it waits, so a table plus concurrent /run
// traffic never runs more than Workers programs at once, and Workers: 1
// cannot deadlock. A program's work under its slot starts with its
// compile, so each program's Build stalls briefly and counts how many
// programs are past admission at once. An outer table slot with programs
// run beside it would allow 2*Workers-1 at once; at Workers: 1 that is 1,
// so there the test checks only that the table and the runs all finish.
func TestTableStaysWithinWorkers(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var inflight, peak atomic.Int32
			slow := func(base string) core.Benchmark {
				return core.Benchmark{
					Base: base, Version: core.VersionC, Kind: core.KindKernel, Descr: "slow build",
					Build: func() (*asm.Program, error) {
						n := inflight.Add(1)
						for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
						}
						time.Sleep(100 * time.Millisecond)
						inflight.Add(-1)
						return asm.ParseSource(base, ".proc main\n\tmov eax, 0\n\thalt\n")
					},
				}
			}
			tabled := []core.Benchmark{slow("t0"), slow("t1"), slow("t2"), slow("t3")}
			lookup, _ := registry(append(tabled, slow("r0"), slow("r1"))...)
			_, all := registry(tabled...)
			_, ts := newTestServer(t, server.Config{Workers: workers, Lookup: lookup, Benchmarks: all})

			var wg sync.WaitGroup
			statuses, bodies := make([]int, 3), make([][]byte, 3)
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Get(ts.URL + "/table")
				if err != nil {
					t.Errorf("GET /table: %v", err)
					return
				}
				bodies[0], _ = io.ReadAll(resp.Body)
				resp.Body.Close()
				statuses[0] = resp.StatusCode
			}()
			waitFor(t, "the table's first program to start", func() bool { return inflight.Load() > 0 })
			for i, prog := range []string{"r0.c", "r1.c"} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					statuses[i+1], bodies[i+1] = postRunNoFatal(ts.URL, fmt.Sprintf(`{"program":%q}`, prog))
				}()
			}
			wg.Wait()
			for i, status := range statuses {
				if status != http.StatusOK {
					t.Errorf("request %d: status %d: %s", i, status, bodies[i])
				}
			}
			if got := peak.Load(); got > int32(workers) {
				t.Errorf("%d programs ran at once with Workers: %d", got, workers)
			}
		})
	}
}
