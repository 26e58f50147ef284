package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mmxdsp/internal/core"
	"mmxdsp/internal/suite"
)

// FuzzParseRequest throws arbitrary bodies at the /run decoder. The decoder
// must never panic, and any request it accepts must be internally
// consistent: the dispatch name is one core.CheckDispatch accepts and
// shapes no key, budgets are non-negative, and the cache-key/option
// derivations are total and stable.
func FuzzParseRequest(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"program":"fir.mmx"}`))
	f.Add([]byte(`{"program":"fft.c","dispatch":"block","max_instrs":100000,"timeout_ms":250,"skip_check":true}`))
	f.Add([]byte(`{"program":"iir.fp","config":{"mispredict_penalty":7,"disable_pairing":true,"emms_latency":53,"mmx_mul_latency":5,"perfect_cache":true}}`))
	f.Add([]byte(`{"program":"g722.c","config":{"emms_latency":0}}`))
	f.Add([]byte(`{"program":"x","dispatch":"warp"}`))
	f.Add([]byte(`{"program":"x"} trailing`))
	f.Add([]byte(`{"program":"x","max_instrs":-1}`))
	f.Add([]byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRunRequest(data)
		if err != nil {
			if req != nil {
				t.Fatal("non-nil request returned alongside an error")
			}
			return
		}
		if req.Program == "" {
			t.Fatal("empty program escaped validation")
		}
		if req.MaxInstrs < 0 || req.TimeoutMS < 0 {
			t.Fatalf("negative budget escaped validation: instrs=%d timeout=%d",
				req.MaxInstrs, req.TimeoutMS)
		}
		if err := core.CheckDispatch(req.Dispatch); err != nil {
			t.Fatalf("dispatch name %q escaped validation: %v", req.Dispatch, err)
		}
		alias := *req
		alias.Dispatch = "generic"
		if alias.ResultKey() != req.ResultKey() {
			t.Fatalf("dispatch name %q keys %q, generic %q", req.Dispatch, req.ResultKey(), alias.ResultKey())
		}
		cfg := req.pentiumConfig()
		// EmmsLatency -1 is the "use the ISA table" sentinel.
		if cfg.MispredictPenalty < 0 || cfg.EmmsLatency < -1 || cfg.MMXMulLatency < 0 {
			t.Fatalf("negative timing parameter escaped validation: %+v", cfg)
		}
		if k1, k2 := req.configKey(), req.configKey(); k1 != k2 {
			t.Fatalf("configKey not stable: %q != %q", k1, k2)
		}
		opt := req.options(context.Background())
		if opt.Ctx == nil || opt.Pentium == nil {
			t.Fatal("options lost the context or config")
		}
	})
}

// FuzzAsmEndpoint drives fuzzed source listings through the full /asm
// HTTP handler — decode, validation, assembly, simulation, marshal. The
// handler must never panic or hang (a tight budget and deadline bound
// every accepted program), and every answer must be well-formed JSON:
// either an error object or a complete response envelope.
func FuzzAsmEndpoint(f *testing.F) {
	// Seeds: a real suite listing (the conformance corpus's shape), a
	// terminating toy, a budget-bound spin, and malformed sources that
	// must 400. One real program keeps per-exec cost low enough to fuzz.
	if bench, ok := suite.ByName("fir.mmx"); ok {
		if prog, err := bench.Build(); err == nil {
			f.Add(prog.Source())
		}
	}
	f.Add(".proc main\n\tprofon\n\tmov eax, 7\n\tprofoff\n\thalt\n")
	f.Add(".proc main\nspin:\n\tadd eax, 1\n\tjmp spin\n")
	f.Add("start:\n\tmov eax, 1\n\tfrobnicate eax\n")
	f.Add(".hex __data deadbeef\n.proc main\n\thalt\n")
	f.Add("")
	f.Add("\x00\x01\x02")
	// Register shapes that must fault, not index the GPR file out of range.
	for _, inst := range []string{"xchg mm0, mm1", "xchg eax, fp7", "movzx.b eax, mm0", "movsx.w eax, fp1"} {
		f.Add(".proc main\n\t" + inst + "\n\thalt\n")
	}

	// One server for the whole campaign: tight budget, short deadline, no
	// result caching (identical inputs must re-execute to catch flakiness).
	srv := New(Config{
		AsmMaxInstrsCap:    200000,
		MaxSourceBytes:     1 << 16,
		DefaultTimeout:     2 * time.Second,
		ResultCacheEntries: -1,
	})
	handler := srv.Handler()

	f.Fuzz(func(t *testing.T, source string) {
		body, err := json.Marshal(struct {
			Source string `json:"source"`
		}{source})
		if err != nil {
			t.Skip()
		}
		req := httptest.NewRequest(http.MethodPost, "/asm", strings.NewReader(string(body)))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusGatewayTimeout, http.StatusInternalServerError:
		default:
			t.Fatalf("unexpected status %d: %.300s", rec.Code, rec.Body.String())
		}
		if rec.Code == http.StatusOK {
			var env AsmResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("200 body is not a response envelope: %v: %.300s", err, rec.Body.String())
			}
			if env.Report == nil || len(env.SourceHash) != 64 {
				t.Fatalf("200 envelope incomplete: report=%v hash=%q", env.Report != nil, env.SourceHash)
			}
		} else {
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("status %d body is not a structured error: %.300s", rec.Code, rec.Body.String())
			}
		}
	})
}
