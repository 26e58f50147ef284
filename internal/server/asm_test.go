// Black-box tests for POST /asm, the user-submitted-program front door.
// The conformance half pins the core contract: every suite program,
// serialized to listing text and submitted as source, produces a report
// byte-identical to a /run of the registry program, under any dispatch
// name. The abuse half pins the safety rails: oversized sources, parse
// errors with source coordinates, infinite loops against the instruction
// budget, per-tenant quotas with Retry-After, bulk-priority shedding, and
// client disconnects that must not leak goroutines (the TestMain backstop
// in server_test.go counts goroutines after every run of this package).
package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mmxdsp/internal/server"
	"mmxdsp/internal/suite"
)

// asmEnvelope mirrors AsmResponse with the report kept raw for
// byte-equivalence checks.
type asmEnvelope struct {
	Program         string          `json:"program"`
	SourceHash      string          `json:"source_hash"`
	CacheHit        bool            `json:"cache_hit"`
	BudgetExhausted bool            `json:"budget_exhausted"`
	Report          json.RawMessage `json:"report"`
}

// asmBody builds a /asm request body with proper JSON escaping for
// arbitrary source text.
func asmBody(t *testing.T, fields map[string]any) string {
	t.Helper()
	data, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// postAsm submits one /asm request with optional headers and returns the
// full response plus its drained body.
func postAsm(t *testing.T, url, body string, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/asm", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /asm: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /asm response: %v", err)
	}
	return resp, data
}

// sourceOf builds the suite program and serializes it back to listing text
// — the round trip every /asm submission of a suite program starts from.
func sourceOf(t *testing.T, name string) string {
	t.Helper()
	bench, ok := suite.ByName(name)
	if !ok {
		t.Fatalf("unknown suite program %q", name)
	}
	prog, err := bench.Build()
	if err != nil {
		t.Fatalf("building %s: %v", name, err)
	}
	return prog.Source()
}

// spinSource is a non-terminating listing; only the instruction budget or
// cancellation ends it. It opens the measured region so its retired
// instructions show up in the report (and debit instruction quotas).
const spinSource = ".proc main\n\tprofon\nspin:\n\tadd eax, 1\n\tjmp spin\n"

// TestAsmConformance is the front-door acceptance gate: every suite
// program submitted as listing text through POST /asm yields a report
// byte-identical to POST /run of the registry program, through one shared
// server. The two requests of a program give different dispatch names,
// which all run the one interpreter.
func TestAsmConformance(t *testing.T) {
	names := suite.Names()
	if testing.Short() {
		names = []string{"fir.c", "fir.mmx", "fft.mmx"}
	}
	_, ts := newTestServer(t, server.Config{})

	var wg sync.WaitGroup
	errs := make(chan error, len(names))
	for i, name := range names {
		runMode := dispatchNames[i%len(dispatchNames)]
		asmMode := dispatchNames[(i+1)%len(dispatchNames)]
		source := sourceOf(t, name)
		wg.Add(1)
		go func() {
			defer wg.Done()
			runBody := fmt.Sprintf(`{"program":%q,"dispatch":%q,"skip_check":true}`, name, runMode)
			status, data := postRunNoFatal(ts.URL, runBody)
			if status != http.StatusOK {
				errs <- fmt.Errorf("%s/%q: /run status %d: %s", name, runMode, status, data)
				return
			}
			var run runEnvelope
			if err := json.Unmarshal(data, &run); err != nil {
				errs <- fmt.Errorf("%s/%q: /run decode: %v", name, runMode, err)
				return
			}

			body := asmBody(t, map[string]any{
				"source": source, "name": name, "dispatch": asmMode,
			})
			resp, data := postAsm(t, ts.URL, body, nil)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("%s/%q: /asm status %d: %.300s", name, asmMode, resp.StatusCode, data)
				return
			}
			var sub asmEnvelope
			if err := json.Unmarshal(data, &sub); err != nil {
				errs <- fmt.Errorf("%s/%q: /asm decode: %v", name, asmMode, err)
				return
			}
			if sub.Program != name || len(sub.SourceHash) != 64 || sub.BudgetExhausted {
				errs <- fmt.Errorf("%s/%q: envelope %q hash %d budget %t", name, asmMode,
					sub.Program, len(sub.SourceHash), sub.BudgetExhausted)
				return
			}
			if got, want := compact(t, sub.Report), compact(t, run.Report); got != want {
				errs <- fmt.Errorf("%s: /asm report (dispatch %q) differs from /run report (dispatch %q)", name, asmMode, runMode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	snap := getMetrics(t, ts.URL)
	if want := int64(len(names)); snap.AsmRuns != want {
		t.Errorf("asm_runs = %d, want %d", snap.AsmRuns, want)
	}
}

// TestAsmCacheHitSkipsAssembly: repeat submissions of one source share the
// compiled artifact through the source-hash-keyed cache entry.
func TestAsmCacheHitSkipsAssembly(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	body := asmBody(t, map[string]any{"source": sourceOf(t, "fir.mmx"), "dispatch": "block"})

	resp, data := postAsm(t, ts.URL, body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold submission: status %d: %s", resp.StatusCode, data)
	}
	var cold asmEnvelope
	if err := json.Unmarshal(data, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Error("first submission reported a cache hit")
	}

	resp, data = postAsm(t, ts.URL, body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm submission: status %d: %s", resp.StatusCode, data)
	}
	var warm asmEnvelope
	if err := json.Unmarshal(data, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Error("repeat submission missed the compiled-program cache")
	}
	if got, want := compact(t, warm.Report), compact(t, cold.Report); got != want {
		t.Error("warm report differs from cold report")
	}
	if snap := getMetrics(t, ts.URL); snap.AsmRuns != 2 || snap.CacheHits == 0 {
		t.Errorf("asm_runs=%d cache_hits=%d, want 2 runs with a warm hit", snap.AsmRuns, snap.CacheHits)
	}
}

// TestAsmOversizedSource pins the 413 paths: a listing over the source cap
// and a raw body over the escaping-adjusted limit both refuse early.
func TestAsmOversizedSource(t *testing.T) {
	_, ts := newTestServer(t, server.Config{MaxSourceBytes: 1024})

	big := strings.Repeat("; padding line\n", 200) // ~3 KiB of comments
	resp, data := postAsm(t, ts.URL, asmBody(t, map[string]any{"source": big}), nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized source: status %d, want 413: %s", resp.StatusCode, data)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
		t.Errorf("413 body not structured: %s", data)
	}

	// A body over the transport limit dies in the reader, same status.
	raw := `{"source":"` + strings.Repeat("x", 8192) + `"}`
	resp, data = postAsm(t, ts.URL, raw, nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413: %s", resp.StatusCode, data)
	}
}

// TestAsmParseErrorPositions: an invalid listing answers 400 with the
// 1-based line and column of the offending token in the error body.
func TestAsmParseErrorPositions(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	body := asmBody(t, map[string]any{"source": "start:\n\tmov eax, 1\n\tfrobnicate eax\n"})
	resp, data := postAsm(t, ts.URL, body, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
	}
	var e struct {
		Error string `json:"error"`
		Line  int    `json:"line"`
		Col   int    `json:"col"`
	}
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("decoding error body: %v: %s", err, data)
	}
	if e.Line != 3 || e.Col != 2 {
		t.Errorf("error position %d:%d, want 3:2: %s", e.Line, e.Col, data)
	}
	if !strings.Contains(e.Error, "line 3:2:") {
		t.Errorf("error text missing coordinates: %q", e.Error)
	}
}

func TestAsmRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, server.Config{AsmMaxInstrsCap: 1000000})
	cases := []struct {
		name, body string
		status     int
	}{
		{"bad JSON", `{`, http.StatusBadRequest},
		{"missing source", `{}`, http.StatusBadRequest},
		{"unknown field", `{"source":"halt","frobnicate":1}`, http.StatusBadRequest},
		{"bad dispatch", `{"source":"halt","dispatch":"warp"}`, http.StatusBadRequest},
		{"negative budget", `{"source":"halt","max_instrs":-1}`, http.StatusBadRequest},
		{"budget over cap", `{"source":"halt","max_instrs":2000000}`, http.StatusBadRequest},
		{"oversized name", asmBody(t, map[string]any{"source": "halt", "name": strings.Repeat("n", 300)}), http.StatusBadRequest},
		{"trailing garbage", `{"source":"halt"} x`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postAsm(t, ts.URL, tc.body, nil)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, data)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
				t.Errorf("error body not structured: %s", data)
			}
		})
	}
	if resp, err := http.Get(ts.URL + "/asm"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /asm: %d, want 405", resp.StatusCode)
		}
	}
}

// TestAsmBudgetExhaustedPartial: an infinite loop against an explicit
// budget answers 200 promptly with budget_exhausted set and a report over
// the retired prefix — not a hang, not a 500.
func TestAsmBudgetExhaustedPartial(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	start := time.Now()
	body := asmBody(t, map[string]any{"source": spinSource, "max_instrs": 100000})
	resp, data := postAsm(t, ts.URL, body, nil)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("budgeted spin took %v end to end", elapsed)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", resp.StatusCode, data)
	}
	var env asmEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if !env.BudgetExhausted {
		t.Error("budget_exhausted not set on a truncated run")
	}
	var report struct {
		DynamicInstructions uint64
	}
	if err := json.Unmarshal(env.Report, &report); err != nil {
		t.Fatal(err)
	}
	if report.DynamicInstructions == 0 || report.DynamicInstructions > 100000 {
		t.Errorf("partial report retired %d instructions, want (0, 100000]", report.DynamicInstructions)
	}
}

// TestAsmServerBudgetCapAppliesByDefault: with no budget in the request,
// the server's /asm ceiling is in force — an infinite loop terminates.
func TestAsmServerBudgetCapAppliesByDefault(t *testing.T) {
	_, ts := newTestServer(t, server.Config{AsmMaxInstrsCap: 200000})
	resp, data := postAsm(t, ts.URL, asmBody(t, map[string]any{"source": spinSource}), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", resp.StatusCode, data)
	}
	var env asmEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if !env.BudgetExhausted {
		t.Error("uncapped spin request did not inherit the server /asm budget")
	}
}

// TestAsmTenantRateLimit: the token bucket refuses a tenant's burst
// overflow with 429 + Retry-After while an unrelated tenant sails through.
func TestAsmTenantRateLimit(t *testing.T) {
	_, ts := newTestServer(t, server.Config{
		Tenant: server.TenantLimits{Rate: 0.5, Burst: 1},
	})
	body := asmBody(t, map[string]any{"source": sourceOf(t, "fir.mmx"), "dispatch": "block"})
	alice := map[string]string{server.TenantHeader: "alice"}

	resp, data := postAsm(t, ts.URL, body, alice)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d: %s", resp.StatusCode, data)
	}
	resp, data = postAsm(t, ts.URL, body, alice)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("burst overflow: status %d, want 429: %s", resp.StatusCode, data)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	if !strings.Contains(string(data), "alice") {
		t.Errorf("429 body does not name the tenant: %s", data)
	}

	// Bob has his own bucket.
	resp, data = postAsm(t, ts.URL, body, map[string]string{server.TenantHeader: "bob"})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("unrelated tenant: status %d, want 200: %s", resp.StatusCode, data)
	}
	if snap := getMetrics(t, ts.URL); snap.TenantShed != 1 {
		t.Errorf("tenant_shed_429 = %d, want 1", snap.TenantShed)
	} else if st, ok := snap.Tenants["alice"]; !ok || st.Shed != 1 || st.Admitted != 1 {
		t.Errorf("per-tenant stats for alice = %+v", snap.Tenants)
	}
}

// TestAsmTenantInstructionQuota: simulated instructions debit a windowed
// per-tenant quota; once spent, further work is refused until the window
// rolls over.
func TestAsmTenantInstructionQuota(t *testing.T) {
	_, ts := newTestServer(t, server.Config{
		Tenant: server.TenantLimits{Rate: 1000, Burst: 1000, InstrQuota: 50000, Window: time.Hour},
	})
	alice := map[string]string{server.TenantHeader: "alice"}
	body := asmBody(t, map[string]any{"source": spinSource, "max_instrs": 60000})

	resp, data := postAsm(t, ts.URL, body, alice)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run: status %d: %s", resp.StatusCode, data)
	}
	resp, data = postAsm(t, ts.URL, body, alice)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota run: status %d, want 429: %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "instruction quota") {
		t.Errorf("429 body does not mention the quota: %s", data)
	}
}

// TestAsmTenantConcurrencyCap: a tenant's second simultaneous run is
// refused while the first is still in flight; releasing the slot readmits.
func TestAsmTenantConcurrencyCap(t *testing.T) {
	_, ts := newTestServer(t, server.Config{
		Tenant: server.TenantLimits{Rate: 1000, Burst: 1000, MaxConcurrent: 1},
	})
	alice := map[string]string{server.TenantHeader: "alice"}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		body := asmBody(t, map[string]any{"source": spinSource})
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/asm", strings.NewReader(body))
		req.Header.Set(server.TenantHeader, "alice")
		close(started)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started
	waitFor(t, "the spin run to hold the tenant slot", func() bool {
		st, ok := getMetrics(t, ts.URL).Tenants["alice"]
		return ok && st.Inflight == 1
	})

	body := asmBody(t, map[string]any{"source": sourceOf(t, "fir.mmx")})
	resp, data := postAsm(t, ts.URL, body, alice)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("concurrent overflow: status %d, want 429: %s", resp.StatusCode, data)
	}

	cancel()
	<-done
	waitFor(t, "the tenant slot to release", func() bool {
		st, ok := getMetrics(t, ts.URL).Tenants["alice"]
		return ok && st.Inflight == 0
	})
	resp, data = postAsm(t, ts.URL, body, alice)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-release run: status %d, want 200: %s", resp.StatusCode, data)
	}
}

// TestAsmBulkPriorityShedsFirst: at saturation, bulk traffic is refused
// with 429 while interactive traffic still queues.
func TestAsmBulkPriorityShedsFirst(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1, QueueDepth: 2})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	launch := func(priority string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := asmBody(t, map[string]any{"source": spinSource})
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/asm", strings.NewReader(body))
			if priority != "" {
				req.Header.Set(server.PriorityHeader, priority)
			}
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}

	launch("") // occupies the single worker
	waitFor(t, "the worker slot to fill", func() bool { return getMetrics(t, ts.URL).ActiveRuns == 1 })
	launch("bulk") // occupies the single bulk queue slot (depth/2)
	waitFor(t, "the bulk queue slot to fill", func() bool { return getMetrics(t, ts.URL).QueueDepth == 1 })

	// A second bulk request overflows the bulk share and sheds immediately.
	resp, data := postAsm(t, ts.URL, asmBody(t, map[string]any{"source": spinSource}),
		map[string]string{server.PriorityHeader: "bulk"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("bulk overflow: status %d, want 429: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("bulk 429 missing Retry-After")
	}

	// An interactive request still has queue room: it waits (and here dies
	// on its own deadline, 504 — crucially not a 429).
	body := asmBody(t, map[string]any{"source": spinSource, "timeout_ms": 50})
	resp, data = postAsm(t, ts.URL, body, nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("interactive under saturation: status %d, want 504 (queued, not shed): %s", resp.StatusCode, data)
	}

	cancel()
	wg.Wait()
	waitFor(t, "the server to settle", func() bool {
		snap := getMetrics(t, ts.URL)
		return snap.ActiveRuns == 0 && snap.QueueDepth == 0
	})
}

// TestAsmClientDisconnectAbortsRun: a client walking away mid-simulation
// halts the interpreter and releases the tenant slot (the TestMain
// backstop asserts no goroutines leak after this test settles).
func TestAsmClientDisconnectAbortsRun(t *testing.T) {
	_, ts := newTestServer(t, server.Config{
		Tenant: server.TenantLimits{Rate: 1000, Burst: 1000, MaxConcurrent: 2},
	})

	ctx, cancel := context.WithCancel(context.Background())
	body := asmBody(t, map[string]any{"source": spinSource})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/asm", strings.NewReader(body))
	req.Header.Set(server.TenantHeader, "alice")
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
		st := snap.Tenants["alice"]
		return snap.ActiveRuns == 0 && snap.Canceled >= 1 && st.Inflight == 0
	})
}

// asmRejected submits src and requires a 400 whose body and error text
// name line:col, and whose error text ends in want.
func asmRejected(t *testing.T, url, src string, line, col int, want string) {
	t.Helper()
	resp, data := postAsm(t, url, asmBody(t, map[string]any{"source": src}), nil)
	var e struct {
		Error string `json:"error"`
		Line  int    `json:"line"`
		Col   int    `json:"col"`
	}
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("%q: decoding error body: %v: %s", src, err, data)
	}
	if resp.StatusCode != http.StatusBadRequest || e.Line != line || e.Col != col ||
		!strings.Contains(e.Error, fmt.Sprintf("line %d:%d: ", line, col)) || !strings.HasSuffix(e.Error, want) {
		t.Errorf("%q: status %d, %d:%d %q; want 400 at %d:%d %q", src, resp.StatusCode, e.Line, e.Col, e.Error, line, col, want)
	}
}

// TestAsmNonGPROperandsFault submits every operand shape the assembler
// rejects (internal/asm/testdata/rejected_shapes.txt), among them the
// register shapes that once indexed the GPR file out of range and then
// faulted when run — an mm or fp register in xchg, or as the register
// source of movzx/movsx: each answers 400 with the line and column of the
// operand at fault, and no run starts or panics.
func TestAsmNonGPROperandsFault(t *testing.T) {
	_, ts := newTestServer(t, server.Config{ResultCacheEntries: -1})
	data, err := os.ReadFile("../asm/testdata/rejected_shapes.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if strings.HasPrefix(row, "#") {
			continue
		}
		f := strings.Split(row, " | ")
		col, _ := strconv.Atoi(f[1])
		asmRejected(t, ts.URL, ".dwords buf 1,2,3,4\n\tmov esi, buf\n\t"+f[0]+" ; comment\n", 3, col, f[2])
	}
	snap := getMetrics(t, ts.URL)
	if snap.RunPanics != 0 || snap.AsmRuns != 0 {
		t.Errorf("run_panics = %d, asm_runs = %d, want 0 and 0", snap.RunPanics, snap.AsmRuns)
	}
}

// TestAsmUnknownLabel400: a jump to a label nothing defines answers 400 at
// the jump's line and the label's column.
func TestAsmUnknownLabel400(t *testing.T) {
	_, ts := newTestServer(t, server.Config{ResultCacheEntries: -1})
	asmRejected(t, ts.URL, ".proc main\n\tmov eax, 1\n\tjmp nowhere\n\thalt\n", 3, 6, `unknown label "nowhere"`)
	if got := getMetrics(t, ts.URL).RunPanics; got != 0 {
		t.Errorf("run_panics = %d, want 0", got)
	}
}

// TestAsmUnknownSymbol400: a memory operand naming no data symbol answers
// 400 at its line and the symbol's column.
func TestAsmUnknownSymbol400(t *testing.T) {
	_, ts := newTestServer(t, server.Config{ResultCacheEntries: -1})
	asmRejected(t, ts.URL, ".proc main\n\tmov eax, dword [nosym]\n\thalt\n", 2, 18, `unknown symbol "nosym"`)
	if got := getMetrics(t, ts.URL).RunPanics; got != 0 {
		t.Errorf("run_panics = %d, want 0", got)
	}
}

// TestAsmDuplicateSymbol400: a data directive (.bytes, .words, .dwords,
// .reserve) of a name the data section already defines answers 400 at the
// directive's line and the name's column.
func TestAsmDuplicateSymbol400(t *testing.T) {
	_, ts := newTestServer(t, server.Config{ResultCacheEntries: -1})
	asmRejected(t, ts.URL, ".dwords buf 1,2\n.reserve buf 8\nhalt\n", 2, 10, `duplicate data symbol "buf"`)
	// A name that also occurs inside its directive: the column is the name's.
	asmRejected(t, ts.URL, ".dwords s 1\n.bytes s 2\nhalt\n", 2, 8, `duplicate data symbol "s"`)
	asmRejected(t, ts.URL, ".bytes s 1\n.words s 2\nhalt\n", 2, 8, `duplicate data symbol "s"`)
	asmRejected(t, ts.URL, ".words s 1\n.dwords s 2\nhalt\n", 2, 9, `duplicate data symbol "s"`)
	asmRejected(t, ts.URL, ".dwords r 1\n.reserve r 8\nhalt\n", 2, 10, `duplicate data symbol "r"`)
	if got := getMetrics(t, ts.URL).RunPanics; got != 0 {
		t.Errorf("run_panics = %d, want 0", got)
	}
}

// TestAsmBadDataValue400: a data value the assembler cannot read answers
// 400 at the value's column, not at an earlier occurrence of its text.
func TestAsmBadDataValue400(t *testing.T) {
	_, ts := newTestServer(t, server.Config{ResultCacheEntries: -1})
	asmRejected(t, ts.URL, "halt\n.words w 1, w\n", 2, 13, `bad value "w" in data list`)
}
