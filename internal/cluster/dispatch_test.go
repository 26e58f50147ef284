package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"mmxdsp/internal/core"
	"mmxdsp/internal/server"
)

// TestDispatchAliasesShareOneEntry: every name of one dispatch mode — "",
// "auto", "block", "predecode" and "trace" — keys one result-cache entry,
// so all of them answer /run with the same bytes from mmxd and from
// mmxfleet, while "generic" keys its own; an unknown name gets the same
// 400 text from both tiers on every endpoint that takes one.
func TestDispatchAliasesShareOneEntry(t *testing.T) {
	backend := httptest.NewServer(server.New(server.Config{}).Handler())
	t.Cleanup(backend.Close)
	c, err := New(Config{Backends: []string{backend.URL}, ResultCacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	c.ProbeAll()
	coord := httptest.NewServer(c.Handler())
	t.Cleanup(coord.Close)

	bodyFor := func(name string) string {
		return `{"program":"fir.mmx","dispatch":"` + name + `","skip_check":true}`
	}
	keyOf := func(name string) string {
		req, err := server.ParseRunRequest([]byte(bodyFor(name)))
		if err != nil {
			t.Fatalf("parse %q: %v", name, err)
		}
		return req.ResultKey()
	}
	traceKey := keyOf(core.DispatchTrace)
	var want []byte
	for _, name := range append([]string{""}, core.DispatchNames()...) {
		mode, err := core.CanonicalDispatch(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if got := keyOf(name); (got == traceKey) != (mode == core.DispatchTrace) {
			t.Errorf("%q (mode %s): result key %q, trace's %q", name, mode, got, traceKey)
		}
		if mode != core.DispatchTrace {
			continue
		}
		for _, url := range []string{backend.URL, coord.URL} {
			resp, data := post(t, url, "/run", bodyFor(name))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %q: status %d: %s", url, name, resp.StatusCode, data)
			}
			if want == nil {
				want = data
			} else if !bytes.Equal(data, want) {
				t.Errorf("%s %q: /run body differs from the first trace answer", url, name)
			}
		}
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
	_, wantErr := core.CanonicalDispatch("warp")
	dResp, dBody := post(t, backend.URL, "/run", bodyFor("warp"))
	cResp, cBody := post(t, coord.URL, "/run", bodyFor("warp"))
	tResp, err := http.Get(backend.URL + "/table?dispatch=warp")
	if err != nil {
		t.Fatal(err)
	}
	var tBody bytes.Buffer
	_, _ = tBody.ReadFrom(tResp.Body)
	tResp.Body.Close()
	sResp, sBody := post(t, coord.URL, "/suite", `{"dispatch":"warp"}`)
	for _, r := range []struct {
		what   string
		status int
		body   []byte
	}{
		{"mmxd /run", dResp.StatusCode, dBody},
		{"mmxfleet /run", cResp.StatusCode, cBody},
		{"mmxd /table", tResp.StatusCode, tBody.Bytes()},
		{"mmxfleet /suite", sResp.StatusCode, sBody},
	} {
		if r.status != http.StatusBadRequest || errorOf(r.body) != wantErr.Error() {
			t.Errorf("%s with an unknown dispatch: %d %q, want 400 %q", r.what, r.status, errorOf(r.body), wantErr)
		}
	}
}
