package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"mmxdsp/internal/core"
	"mmxdsp/internal/server"
	"mmxdsp/internal/suite"
)

// dispatchNames is every dispatch name the service accepts. They all name
// the one interpreter.
var dispatchNames = []string{"", "trace", "generic", "auto", "block", "predecode"}

// TestDispatchAliasesShareOneEntry: every accepted dispatch name keys one
// result-cache entry, so all of them answer /run, /asm, /table and /suite
// with the same bytes and ETag from mmxd and from mmxfleet; an unknown
// name gets the same 400 text from both tiers on every endpoint that takes
// one.
func TestDispatchAliasesShareOneEntry(t *testing.T) {
	var benches []core.Benchmark
	for _, name := range []string{"fir.mmx", "fir.c"} {
		b, ok := suite.ByName(name)
		if !ok {
			t.Fatalf("no suite program %s", name)
		}
		benches = append(benches, b)
	}
	backend := httptest.NewServer(server.New(server.Config{
		Benchmarks: func() []core.Benchmark { return benches },
	}).Handler())
	t.Cleanup(backend.Close)
	c, err := New(Config{Backends: []string{backend.URL}, ResultCacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	c.ProbeAll()
	coord := httptest.NewServer(c.Handler())
	t.Cleanup(coord.Close)

	prog, err := benches[0].Build()
	if err != nil {
		t.Fatal(err)
	}
	runBody := func(name string) string {
		return `{"program":"fir.mmx","dispatch":"` + name + `","skip_check":true}`
	}
	asmBody := func(name string) string {
		data, err := json.Marshal(server.AsmRequest{Source: prog.Source(), Name: "fir.mmx", Dispatch: name})
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	var runKey, asmKey string
	for i, name := range dispatchNames {
		rr, err := server.ParseRunRequest([]byte(runBody(name)))
		if err != nil {
			t.Fatalf("parse /run %q: %v", name, err)
		}
		ar, err := server.ParseAsmRequest([]byte(asmBody(name)), 0)
		if err != nil {
			t.Fatalf("parse /asm %q: %v", name, err)
		}
		if i == 0 {
			runKey, asmKey = rr.ResultKey(), ar.ResultKey()
		} else if rr.ResultKey() != runKey || ar.ResultKey() != asmKey {
			t.Errorf("%q: result keys %q, %q; %q's are %q, %q",
				name, rr.ResultKey(), ar.ResultKey(), dispatchNames[0], runKey, asmKey)
		}
	}

	type answer struct {
		body []byte
		etag string
	}
	first := map[string]answer{}
	same := func(what, name string, resp *http.Response, data []byte) {
		t.Helper()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %q: status %d: %s", what, name, resp.StatusCode, data)
		}
		got := answer{data, resp.Header.Get("ETag")}
		want, ok := first[what]
		if !ok {
			first[what] = got
			return
		}
		if !bytes.Equal(got.body, want.body) || got.etag != want.etag {
			t.Errorf("%s %q: bytes or ETag %q differ from dispatch %q (ETag %q)",
				what, name, got.etag, dispatchNames[0], want.etag)
		}
	}
	for _, name := range dispatchNames {
		for tier, url := range map[string]string{"mmxd": backend.URL, "mmxfleet": coord.URL} {
			resp, data := post(t, url, "/run", runBody(name))
			same(tier+" /run", name, resp, data)
			resp, data = post(t, url, "/asm", asmBody(name))
			same(tier+" /asm", name, resp, data)
		}
		resp, data := get(t, backend.URL+"/table?dispatch="+name)
		same("mmxd /table", name, resp, data)
		resp, data = post(t, coord.URL, "/suite", `{"dispatch":"`+name+`"}`)
		same("mmxfleet /suite", name, resp, data)
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
	wantErr := core.CheckDispatch("warp").Error()
	type reply struct {
		what   string
		status int
		body   []byte
	}
	var replies []reply
	add := func(what string, resp *http.Response, data []byte) {
		replies = append(replies, reply{what, resp.StatusCode, data})
	}
	for tier, url := range map[string]string{"mmxd": backend.URL, "mmxfleet": coord.URL} {
		resp, data := post(t, url, "/run", runBody("warp"))
		add(tier+" /run", resp, data)
		resp, data = post(t, url, "/asm", asmBody("warp"))
		add(tier+" /asm", resp, data)
		resp, data = post(t, url, "/campaign", `{"programs":["fir.mmx"],"dispatch":["warp"]}`)
		add(tier+" /campaign", resp, data)
	}
	resp, data := get(t, backend.URL+"/table?dispatch=warp")
	add("mmxd /table", resp, data)
	resp, data = post(t, coord.URL, "/suite", `{"dispatch":"warp"}`)
	add("mmxfleet /suite", resp, data)
	for _, r := range replies {
		if r.status != http.StatusBadRequest || errorOf(r.body) != wantErr {
			t.Errorf("%s with an unknown dispatch: %d %q, want 400 %q", r.what, r.status, errorOf(r.body), wantErr)
		}
	}
}

// get sends one GET and returns the response with its body.
func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}
