// Fleet campaign e2e: a sharded ablation campaign over real mmxd backends
// must complete with streamed progress, render artifacts byte-identical
// to a sequential single-backend reference run, survive a backend dying
// mid-campaign with zero failed points, and serve a re-run with one
// changed axis from the result cache for every unchanged point.
package cluster_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mmxdsp/internal/cluster"
	"mmxdsp/internal/core"
	"mmxdsp/internal/server"
	"mmxdsp/internal/suite"
	"mmxdsp/internal/vm"
)

func postFleetCampaign(t *testing.T, url, body string) server.CampaignStatus {
	t.Helper()
	resp, err := http.Post(url+"/campaign", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /campaign: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /campaign: %d %s", resp.StatusCode, data)
	}
	var st server.CampaignStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decoding campaign status: %v\n%s", err, data)
	}
	return st
}

func waitFleetCampaign(t *testing.T, url, id string) server.CampaignStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(url + "/campaign/" + id)
		if err != nil {
			t.Fatalf("GET /campaign/%s: %v", id, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /campaign/%s: %d %s", id, resp.StatusCode, data)
		}
		var st server.CampaignStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("decoding campaign status: %v", err)
		}
		if st.Status != "running" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s still running: %s", id, data)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// referenceCampaign runs the spec on a lone daemon and returns its
// artifacts — the sequential single-backend ground truth.
func referenceCampaign(t *testing.T, spec string) server.CampaignStatus {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Config{ResultCacheEntries: -1}).Handler())
	defer ts.Close()
	st := postFleetCampaign(t, ts.URL, spec)
	final := waitFleetCampaign(t, ts.URL, st.ID)
	if final.Status != "completed" || final.Failed != 0 {
		t.Fatalf("reference campaign %+v", final)
	}
	return final
}

// TestFleetCampaignShardedByteIdentical is the campaign acceptance gate: a
// 3-axis, 216-point grid sharded over a 2-backend fleet completes with
// zero failures, both backends execute points, progress streams over SSE,
// the artifacts equal a single-backend reference byte for byte, and a
// re-run with one changed axis value re-executes only the cold points.
func TestFleetCampaignShardedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("216-point campaign; skipped in -short mode")
	}
	const spec = `{
		"programs": ["fir.mmx"],
		"dispatch": ["block"],
		"axes": {
			"mul_latency": [1, 2, 3, 4, 5, 6],
			"emms_latency": [0, 5, 10, 15, 20, 25],
			"mispredict_penalty": [2, 4, 6, 8, 10, 12]
		},
		"skip_check": true
	}`
	f := newFleet(t, 2, cluster.Config{ResultCacheEntries: 1024})

	st := postFleetCampaign(t, f.ts.URL, spec)
	if st.Total != 216 {
		t.Fatalf("grid expanded to %d points, want 216", st.Total)
	}

	// Stream progress while the campaign runs; the stream must end with a
	// terminal "done" event.
	events := make(chan string, 1)
	go func() {
		resp, err := http.Get(f.ts.URL + "/campaign/" + st.ID + "/events")
		if err != nil {
			events <- "error: " + err.Error()
			return
		}
		defer resp.Body.Close()
		last := ""
		scanner := bufio.NewScanner(resp.Body)
		for scanner.Scan() {
			if line := scanner.Text(); strings.HasPrefix(line, "event: ") {
				last = strings.TrimPrefix(line, "event: ")
			}
		}
		events <- last
	}()

	final := waitFleetCampaign(t, f.ts.URL, st.ID)
	if final.Status != "completed" || final.Done != 216 || final.Failed != 0 {
		t.Fatalf("final status %+v", final)
	}
	select {
	case last := <-events:
		if last != "done" {
			t.Errorf("SSE stream ended with %q, want done", last)
		}
	case <-time.After(5 * time.Second):
		t.Error("SSE stream did not terminate")
	}

	// Both backends must have executed points — the grid was actually
	// sharded, not funneled to one node.
	for i, b := range f.backends {
		var snap server.MetricsSnapshot
		resp, err := http.Get(b.URL + "/metrics")
		if err != nil {
			t.Fatalf("backend %d /metrics: %v", i, err)
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if snap.RunsOK == 0 {
			t.Errorf("backend %d executed zero runs; campaign was not sharded", i)
		}
	}

	// Byte-identity against the sequential single-backend reference.
	ref := referenceCampaign(t, spec)
	if final.ArtifactsCSV != ref.ArtifactsCSV {
		t.Error("fleet CSV differs from the single-backend reference")
	}
	if final.ArtifactsMarkdown != ref.ArtifactsMarkdown {
		t.Error("fleet markdown differs from the single-backend reference")
	}

	// Re-run with one axis value changed (mispredict_penalty 12 -> 14):
	// the 180 unchanged cells are result-cache hits, only the 36 cold
	// cells re-execute.
	rerun := strings.Replace(spec, "[2, 4, 6, 8, 10, 12]", "[2, 4, 6, 8, 10, 14]", 1)
	st2 := postFleetCampaign(t, f.ts.URL, rerun)
	final2 := waitFleetCampaign(t, f.ts.URL, st2.ID)
	if final2.Status != "completed" || final2.Done != 216 || final2.Failed != 0 {
		t.Fatalf("re-run status %+v", final2)
	}
	if final2.Cached != 180 {
		t.Errorf("re-run hit the cache on %d/216 points, want exactly the 180 unchanged cells", final2.Cached)
	}

	// Identical re-run: every point cached, nothing simulated anywhere.
	st3 := postFleetCampaign(t, f.ts.URL, spec)
	final3 := waitFleetCampaign(t, f.ts.URL, st3.ID)
	if final3.Cached != 216 {
		t.Errorf("identical re-run hit the cache on %d/216 points", final3.Cached)
	}
	if final3.ArtifactsCSV != final.ArtifactsCSV {
		t.Error("cached re-run rendered different artifacts")
	}

	// Fleet /metrics accounts the campaigns.
	fm := fleetSnapshot(t, f.ts.URL)
	if fm.CampaignsTotal != 3 || fm.CampaignPoints != 3*216 {
		t.Errorf("fleet campaign counters: total=%d points=%d", fm.CampaignsTotal, fm.CampaignPoints)
	}
	if fm.CampaignPointsFailed != 0 {
		t.Errorf("campaign_points_failed = %d", fm.CampaignPointsFailed)
	}
}

// TestFleetCampaignSurvivesBackendDeath kills one of two backends while a
// campaign is in flight: its points must re-route to the survivor, the
// campaign must complete with zero failed points, and the artifacts must
// still equal the single-backend reference byte for byte.
func TestFleetCampaignSurvivesBackendDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("36-point campaign with a mid-flight kill; skipped in -short mode")
	}
	const spec = `{
		"programs": ["fir.mmx"],
		"dispatch": ["block"],
		"axes": {
			"mul_latency": [1, 2, 3, 4, 5, 6],
			"emms_latency": [0, 5, 10, 15, 20, 25]
		},
		"skip_check": true
	}`
	f := newFleet(t, 2, cluster.Config{Retries: 4, FailThreshold: 1})

	st := postFleetCampaign(t, f.ts.URL, spec)

	// Kill backend 0 once it has served at least one run (provably
	// mid-campaign), or after 2s as a backstop.
	victim := f.backends[0]
	killed := false
	deadline := time.Now().Add(2 * time.Second)
	for !killed && time.Now().Before(deadline) {
		resp, err := http.Get(victim.URL + "/metrics")
		if err != nil {
			break
		}
		var snap server.MetricsSnapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err == nil && snap.RunsOK >= 1 {
			victim.CloseClientConnections()
			victim.Close()
			killed = true
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !killed {
		t.Log("victim served nothing before the backstop; killing anyway")
		victim.CloseClientConnections()
		victim.Close()
	}

	final := waitFleetCampaign(t, f.ts.URL, st.ID)
	if final.Status != "completed" {
		t.Fatalf("campaign status %q: %+v", final.Status, final)
	}
	if final.Failed != 0 || final.Done != 36 {
		t.Fatalf("campaign with a killed backend: %d done, %d failed", final.Done, final.Failed)
	}

	ref := referenceCampaign(t, spec)
	if final.ArtifactsCSV != ref.ArtifactsCSV || final.ArtifactsMarkdown != ref.ArtifactsMarkdown {
		t.Error("artifacts differ from the single-backend reference after a backend death")
	}
}

// TestFleetCampaignValidation pins the coordinator-side request checks.
func TestFleetCampaignValidation(t *testing.T) {
	f := newFleet(t, 1, cluster.Config{})
	cases := []struct {
		name, body string
		status     int
	}{
		{"unknown program", `{"programs":["nope.mmx"]}`, http.StatusNotFound},
		{"unknown axis", `{"programs":["fir.mmx"],"axes":{"warp":[1]}}`, http.StatusBadRequest},
		{"bad JSON", `{`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(f.ts.URL+"/campaign", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, data)
			}
		})
	}
	resp, err := http.Get(f.ts.URL + "/campaign/deadbeef00000000")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign: %d", resp.StatusCode)
	}
}

func fleetSnapshot(t *testing.T, url string) cluster.FleetMetrics {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var fm cluster.FleetMetrics
	if err := json.NewDecoder(resp.Body).Decode(&fm); err != nil {
		t.Fatalf("decoding fleet metrics: %v", err)
	}
	return fm
}

// TestFleetCampaignArtifactsOnDiskAtCompletion pins the coordinator's
// persist-before-publish order: when /campaign/{id}/events first reports
// completed, both artifact files already exist under CampaignDir/<id>/.
func TestFleetCampaignArtifactsOnDiskAtCompletion(t *testing.T) {
	dir := t.TempDir()
	f := newFleet(t, 1, cluster.Config{CampaignDir: dir})
	st := postFleetCampaign(t, f.ts.URL,
		`{"programs":["fir.mmx"],"axes":{"mul_latency":[1,3]},"skip_check":true}`)

	resp, err := http.Get(f.ts.URL + "/campaign/" + st.ID + "/events")
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	defer resp.Body.Close()
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		payload, ok := strings.CutPrefix(scanner.Text(), "data: ")
		if !ok {
			continue
		}
		var ev struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal([]byte(payload), &ev); err != nil {
			t.Fatalf("event payload: %v", err)
		}
		if ev.Status != "completed" {
			continue
		}
		for _, name := range []string{"points.csv", "sensitivity.md"} {
			if _, err := os.Stat(filepath.Join(dir, st.ID, name)); err != nil {
				t.Errorf("at the completed event: %v", err)
			}
		}
		return
	}
	t.Fatal("event stream ended without a completed event")
}

// TestFleetCampaignPanickingCheck drives a campaign through the coordinator
// over a real mmxd whose badcheck.c panics in its Check: those points fail
// (the backend answers 500) while the sibling fir.c points complete, the
// backend counts the panics as run_panics and keeps serving, and neither
// tier caches the failed key.
func TestFleetCampaignPanickingCheck(t *testing.T) {
	fir, ok := suite.ByName("fir.c")
	if !ok {
		t.Fatal("fir.c missing from the suite")
	}
	bad := fir
	bad.Base = "badcheck"
	bad.Check = func(*vm.CPU) error { panic("check exploded") }
	benches := []core.Benchmark{fir, bad}
	backend := httptest.NewServer(server.New(server.Config{
		ResultCacheEntries: 64,
		Lookup: func(name string) (core.Benchmark, bool) {
			for _, b := range benches {
				if b.Name() == name {
					return b, true
				}
			}
			return core.Benchmark{}, false
		},
		Benchmarks: func() []core.Benchmark { return benches },
	}).Handler())
	t.Cleanup(backend.Close)
	coord, err := cluster.New(cluster.Config{Backends: []string{backend.URL}, ResultCacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	coord.ProbeAll()
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)

	st := postFleetCampaign(t, ts.URL, `{"programs":["badcheck.c","fir.c"],"axes":{"emms_latency":[0,1]}}`)
	final := waitFleetCampaign(t, ts.URL, st.ID)
	if final.Status != "completed" || final.Done != 2 || final.Failed != 2 {
		t.Fatalf("campaign: status %s, %d done, %d failed; want completed, 2 and 2", final.Status, final.Done, final.Failed)
	}
	backendPanics := func() int64 {
		resp, err := http.Get(backend.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap server.MetricsSnapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return snap.RunPanics
	}
	if got := backendPanics(); got != 2 {
		t.Errorf("backend run_panics = %d after the campaign, want 2", got)
	}

	// A failed point's key is cached on neither tier: a /run of it
	// reaches the backend and panics again.
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(`{"program":"badcheck.c","config":{"emms_latency":0}}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(data), "check exploded") {
		t.Errorf("/run of a failed point's key: status %d: %s", resp.StatusCode, data)
	}
	if got := backendPanics(); got != 3 {
		t.Errorf("backend run_panics = %d, want 3 (the failed key must re-execute)", got)
	}
	resp, err = http.Post(ts.URL+"/run", "application/json", strings.NewReader(`{"program":"fir.c"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/run fir.c after the panics: status %d", resp.StatusCode)
	}
}
