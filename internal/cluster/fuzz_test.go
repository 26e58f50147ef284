package cluster

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/core"
	"mmxdsp/internal/server"
)

// FuzzParseSuiteRequest throws arbitrary bodies at the /suite decoder. The
// decoder must never panic, any request it accepts must carry a coherent
// shard selector, and resolving that selector against a program list of
// any size must be total — the historical coordinator panic was exactly an
// accepted selector indexing past core.Partition's clamped output.
func FuzzParseSuiteRequest(f *testing.F) {
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"dispatch":"block"}`))
	f.Add([]byte(`{"dispatch":"warp"}`))
	f.Add([]byte(`{"part":20,"of":25}`)) // the crash reproducer
	f.Add([]byte(`{"part":0,"of":1,"timeout_ms":250}`))
	f.Add([]byte(`{"part":-1,"of":3}`))
	f.Add([]byte(`{"of":-2}`))
	f.Add([]byte(`{"config":{"disable_pairing":true,"emms_latency":53}}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"part":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := parseSuiteRequest(data)
		if err != nil {
			if req != nil {
				t.Fatal("non-nil request returned alongside an error")
			}
			return
		}
		if req.Of < 0 {
			t.Fatalf("negative of=%d escaped validation", req.Of)
		}
		if req.Of > 0 && (req.Part < 0 || req.Part >= req.Of) {
			t.Fatalf("incoherent selector part=%d of=%d escaped validation", req.Part, req.Of)
		}
		if req.TimeoutMS < 0 {
			t.Fatalf("negative timeout_ms %d escaped validation", req.TimeoutMS)
		}
		// shardNames must be total for every accepted selector against any
		// registry size, including registries smaller than `of`.
		for _, n := range []int{0, 1, 2, 19, 400} {
			names := make([]string, n)
			for i := range names {
				names[i] = fmt.Sprintf("p%d", i)
			}
			shard, err := shardNames(names, req.Part, req.Of)
			if err != nil {
				continue // rejected (e.g. of > n) — fine, as long as no panic
			}
			if len(shard) > n {
				t.Fatalf("shard of %d names from a %d-name registry", len(shard), n)
			}
		}
	})
}

// FuzzCoordinatorFrontDoor posts every input twice to /run and to /asm on
// both tiers' front door — the shared pipeline — mounted on a coordinator
// over a stub backend and on an mmxd whose fir.mmx is a one-instruction
// program. The repeat of a body a tier accepted is keyed from the body
// memo, the repeat of one it rejected is parsed again; either way it must
// answer the same status and bytes as the first post. And the memo holds
// only successful parses: an input the tier's parser rejects adds no entry.
func FuzzCoordinatorFrontDoor(f *testing.F) {
	f.Add([]byte(firBody))
	f.Add([]byte(`{"program":"fir.mmx","config":{"emms_latency":0}}`))
	f.Add([]byte(`{"source":"halt\n","name":"h"}`))
	f.Add([]byte(`{"source":"` + strings.Repeat("n", 300) + `"}`))
	f.Add([]byte(`{"program":"fir.mmx","dispatch":"warp"}`))
	f.Add([]byte(`{"program":"fir.mmx"} {}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))
	f.Add([]byte(`{"program":"nope.mmx"}`))
	f.Add([]byte(`{"program":"fir.mmx","max_instrs":100001}`))

	const maxSource = 256 // small enough for the fuzzer to reach 413
	const maxInstrs = 100000
	backend := newFakeBackend(f)
	c, err := New(Config{
		Backends:           []string{backend.ts.URL},
		ResultCacheEntries: 16,
		MaxSourceBytes:     maxSource,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(c.Stop)
	c.ProbeAll()
	tiny := core.Benchmark{
		Base: "fir", Version: core.VersionMMX, Kind: core.KindKernel, Descr: "one instruction",
		Build: func() (*asm.Program, error) { return asm.ParseSource("fir", ".proc main\n\thalt\n") },
	}
	d := server.New(server.Config{
		ResultCacheEntries: 16,
		MaxSourceBytes:     maxSource,
		MaxInstrsCap:       maxInstrs, // bounds /asm listings too: no input spins for long
		Lookup: func(name string) (core.Benchmark, bool) {
			return tiny, name == tiny.Name()
		},
		Benchmarks: func() []core.Benchmark { return []core.Benchmark{tiny} },
	})
	parses := map[*server.Pipeline]func(path string, body []byte) bool{
		c.Pipeline: func(path string, body []byte) bool {
			if path == "/asm" {
				_, err := server.ParseAsmRequest(body, maxSource)
				return err == nil
			}
			_, err := server.ParseRunRequest(body)
			return err == nil
		},
		d.Pipeline: func(path string, body []byte) bool {
			if path == "/asm" {
				req, err := server.ParseAsmRequest(body, maxSource)
				return err == nil && req.MaxInstrs <= maxInstrs
			}
			req, err := server.ParseRunRequest(body)
			return err == nil && req.Program == tiny.Name() && req.MaxInstrs <= maxInstrs
		},
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for p, parses := range parses {
			h := p.Handler()
			post := func(path string) *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)))
				return rec
			}
			for _, path := range []string{"/run", "/asm"} {
				before := p.Stats().MemoEntries
				first, second := post(path), post(path)
				if first.Code != second.Code || !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
					t.Fatalf("%s %q: first %d %q, repeat %d %q", path, data,
						first.Code, first.Body.Bytes(), second.Code, second.Body.Bytes())
				}
				if grew := p.Stats().MemoEntries > before; grew && !parses(path, data) {
					t.Fatalf("%s %q: a rejected body entered the memo (answered %d)", path, data, first.Code)
				}
			}
		}
	})
}
