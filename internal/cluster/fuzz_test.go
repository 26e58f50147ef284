package cluster

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
// a coordinator over a stub backend. The repeat of a body the coordinator
// accepted is keyed from the body memo, the repeat of one it rejected is
// parsed again; either way it must answer the same status and bytes as
// the first post.
func FuzzCoordinatorFrontDoor(f *testing.F) {
	f.Add([]byte(firBody))
	f.Add([]byte(`{"program":"fir.mmx","config":{"emms_latency":0}}`))
	f.Add([]byte(`{"source":"halt\n","name":"h"}`))
	f.Add([]byte(`{"source":"` + strings.Repeat("n", 300) + `"}`))
	f.Add([]byte(`{"program":"fir.mmx","dispatch":"warp"}`))
	f.Add([]byte(`{"program":"fir.mmx"} {}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))

	backend := newFakeBackend(f)
	c, err := New(Config{
		Backends:           []string{backend.ts.URL},
		ResultCacheEntries: 16,
		MaxSourceBytes:     256, // small enough for the fuzzer to reach 413
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(c.Stop)
	c.ProbeAll()
	h := c.Handler()
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, path := range []string{"/run", "/asm"} {
			first, second := post(path, data), post(path, data)
			if first.Code != second.Code || !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
				t.Fatalf("%s %q: first %d %q, repeat %d %q", path, data,
					first.Code, first.Body.Bytes(), second.Code, second.Body.Bytes())
			}
		}
	})
}
