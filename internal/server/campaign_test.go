// Campaign endpoint tests: grid lifecycle over HTTP, SSE progress,
// result-cache reuse across re-runs, and the cancellation classification
// regression (canceled campaigns report canceled points, never failed —
// the 499 rule applied to campaigns).
package server_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mmxdsp/internal/server"
)

func postCampaign(t *testing.T, url, body string) (int, []byte) {
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
	return resp.StatusCode, data
}

func decodeCampaign(t *testing.T, data []byte) server.CampaignStatus {
	t.Helper()
	var st server.CampaignStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decoding campaign status: %v\n%s", err, data)
	}
	return st
}

// waitCampaign polls GET /campaign/{id} until it leaves "running".
func waitCampaign(t *testing.T, url, id string) server.CampaignStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/campaign/" + id + "?points=1")
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
		st := decodeCampaign(t, data)
		if st.Status != "running" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s still running: %s", id, data)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestCampaignLifecycle(t *testing.T) {
	lookup, all := registryFromSuite(t, "fir.mmx", "fir.c")
	dir := t.TempDir()
	_, ts := newTestServer(t, server.Config{
		Lookup: lookup, Benchmarks: all, CampaignDir: dir,
	})

	status, data := postCampaign(t, ts.URL, `{
		"programs": ["fir.mmx", "fir.c"],
		"dispatch": ["block"],
		"axes": {"mul_latency": [1, 3], "emms_latency": [0, 25]},
		"skip_check": true
	}`)
	if status != http.StatusAccepted {
		t.Fatalf("POST /campaign: %d %s", status, data)
	}
	st := decodeCampaign(t, data)
	if st.ID == "" || st.Total != 8 {
		t.Fatalf("created campaign %+v", st)
	}

	final := waitCampaign(t, ts.URL, st.ID)
	if final.Status != "completed" || final.Done != 8 || final.Failed != 0 {
		t.Fatalf("final status %+v", final)
	}
	if len(final.Points) != 8 {
		t.Fatalf("?points=1 returned %d points", len(final.Points))
	}
	for _, p := range final.Points {
		if p.Status != "done" || p.Cycles == 0 {
			t.Fatalf("point %+v", p)
		}
	}
	if !strings.HasPrefix(final.ArtifactsCSV, "program,dispatch,emms_latency,mul_latency,cycles") {
		t.Fatalf("csv header: %q", firstLine(final.ArtifactsCSV))
	}
	if !strings.Contains(final.ArtifactsMarkdown, "## Axis `mul_latency`") {
		t.Fatal("markdown lacks the mul_latency axis section")
	}
	// The sweep must actually move the needle: fir.mmx at mul_latency 3
	// costs more cycles than at 1.
	var at1, at3 uint64
	for _, p := range final.Points {
		if p.Program != "fir.mmx" {
			continue
		}
		switch {
		case p.Values[0] == 0 && p.Values[1] == 1:
			at1 = p.Cycles
		case p.Values[0] == 0 && p.Values[1] == 3:
			at3 = p.Cycles
		}
	}
	if at1 == 0 || at3 <= at1 {
		t.Fatalf("mul_latency sweep flat: cycles(1)=%d cycles(3)=%d", at1, at3)
	}
	// Artifacts persisted under CampaignDir/<id>/ and match the inlined
	// copies byte for byte.
	csvDisk, err := os.ReadFile(filepath.Join(dir, st.ID, "points.csv"))
	if err != nil {
		t.Fatalf("persisted CSV: %v", err)
	}
	if string(csvDisk) != final.ArtifactsCSV {
		t.Fatal("persisted CSV differs from the inlined artifact")
	}
	if _, err := os.Stat(filepath.Join(dir, st.ID, "sensitivity.md")); err != nil {
		t.Fatalf("persisted markdown: %v", err)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// TestCampaignCancelNeverReportsFailed is the classification regression:
// DELETE /campaign/{id} is a client-initiated cancel, so the campaign must
// settle "canceled" with zero failed points — at both the resource and
// the /metrics level — mirroring the 499-not-5xx rule for canceled runs.
func TestCampaignCancelNeverReportsFailed(t *testing.T) {
	lookup, all := registry(spinBench("spin"))
	_, ts := newTestServer(t, server.Config{Lookup: lookup, Benchmarks: all})

	status, data := postCampaign(t, ts.URL, `{
		"programs": ["spin.c"],
		"axes": {"mul_latency": [1, 2, 3, 4, 5, 6]},
		"max_instrs": 2000000000,
		"skip_check": true
	}`)
	if status != http.StatusAccepted {
		t.Fatalf("POST /campaign: %d %s", status, data)
	}
	st := decodeCampaign(t, data)

	// Give at least one spin point time to enter the interpreter, then
	// cancel the whole campaign.
	time.Sleep(50 * time.Millisecond)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/campaign/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE /campaign: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}

	final := waitCampaign(t, ts.URL, st.ID)
	if final.Status != "canceled" {
		t.Fatalf("status %q, want canceled", final.Status)
	}
	if final.Failed != 0 {
		t.Fatalf("canceled campaign reports %d failed points: %+v", final.Failed, final)
	}
	if final.Canceled == 0 {
		t.Fatal("canceled campaign reports zero canceled points")
	}
	if final.Done+final.Canceled != final.Total {
		t.Fatalf("counters do not sum: %+v", final)
	}
	for _, p := range final.Points {
		if p.Status == "failed" {
			t.Fatalf("point marked failed in a canceled campaign: %+v", p)
		}
	}
	snap := getMetrics(t, ts.URL)
	if snap.CampaignPointsFailed != 0 {
		t.Fatalf("campaign_points_failed = %d after a pure cancel", snap.CampaignPointsFailed)
	}
	if snap.CampaignPointsCanceled == 0 {
		t.Fatal("campaign_points_canceled = 0 after a cancel")
	}
	// Every point settles into exactly one metrics bucket — including
	// points canceled while still queued, never handed to a worker.
	if got := snap.CampaignPoints; got != int64(final.Total) {
		t.Fatalf("campaign_points_total = %d, want %d (all points settle in /metrics)", got, final.Total)
	}
	if got := snap.CampaignPointsCanceled; got != int64(final.Canceled) {
		t.Fatalf("campaign_points_canceled = %d, want %d", got, final.Canceled)
	}
}

// TestCampaignRerunServedFromResultCache: an identical re-run is answered
// entirely by the result cache — zero fresh simulation, every point
// cached.
func TestCampaignRerunServedFromResultCache(t *testing.T) {
	lookup, all := registryFromSuite(t, "fir.mmx")
	_, ts := newTestServer(t, server.Config{
		Lookup: lookup, Benchmarks: all, ResultCacheEntries: 64,
	})
	const spec = `{"programs":["fir.mmx"],"axes":{"mul_latency":[1,3],"l1_size":[8192,16384]},"skip_check":true}`

	_, data := postCampaign(t, ts.URL, spec)
	first := waitCampaign(t, ts.URL, decodeCampaign(t, data).ID)
	if first.Status != "completed" || first.Done != 4 {
		t.Fatalf("first run %+v", first)
	}
	if first.SimulatedInstrs == 0 {
		t.Fatal("first run simulated nothing")
	}

	_, data = postCampaign(t, ts.URL, spec)
	second := waitCampaign(t, ts.URL, decodeCampaign(t, data).ID)
	if second.Status != "completed" || second.Done != 4 {
		t.Fatalf("second run %+v", second)
	}
	if second.Cached != 4 {
		t.Fatalf("re-run hit the cache on %d/4 points", second.Cached)
	}
	if second.SimulatedInstrs != 0 {
		t.Fatalf("re-run simulated %d instrs, want 0 (all cached)", second.SimulatedInstrs)
	}
	// Byte-identical artifacts: caching must not perturb the curves.
	if second.ArtifactsCSV != first.ArtifactsCSV || second.ArtifactsMarkdown != first.ArtifactsMarkdown {
		t.Fatal("cached re-run rendered different artifacts")
	}
}

func TestCampaignEventsStream(t *testing.T) {
	lookup, all := registryFromSuite(t, "fir.mmx")
	_, ts := newTestServer(t, server.Config{Lookup: lookup, Benchmarks: all})

	_, data := postCampaign(t, ts.URL,
		`{"programs":["fir.mmx"],"axes":{"mul_latency":[1,3]},"skip_check":true}`)
	st := decodeCampaign(t, data)

	resp, err := http.Get(ts.URL + "/campaign/" + st.ID + "/events")
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	var sawProgress, sawDone bool
	var finalEv struct {
		Status string `json:"status"`
		Done   int    `json:"done"`
		Total  int    `json:"total"`
	}
	scanner := bufio.NewScanner(resp.Body)
	event := ""
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			payload := strings.TrimPrefix(line, "data: ")
			switch event {
			case "progress":
				sawProgress = true
			case "done":
				sawDone = true
				if err := json.Unmarshal([]byte(payload), &finalEv); err != nil {
					t.Fatalf("done payload: %v", err)
				}
			}
		}
	}
	if !sawProgress || !sawDone {
		t.Fatalf("stream: progress=%t done=%t", sawProgress, sawDone)
	}
	if finalEv.Status != "completed" || finalEv.Done != finalEv.Total {
		t.Fatalf("terminal event %+v", finalEv)
	}
}

func TestCampaignValidation(t *testing.T) {
	lookup, all := registryFromSuite(t, "fir.mmx")
	_, ts := newTestServer(t, server.Config{Lookup: lookup, Benchmarks: all})

	cases := []struct {
		name, body string
		status     int
	}{
		{"unknown program", `{"programs":["nope.mmx"]}`, http.StatusNotFound},
		{"unknown axis", `{"programs":["fir.mmx"],"axes":{"warp":[1]}}`, http.StatusBadRequest},
		{"bad JSON", `{`, http.StatusBadRequest},
		{"axis out of range", `{"programs":["fir.mmx"],"axes":{"l1_size":[7]}}`, http.StatusBadRequest},
		{"oversized grid", `{"programs":["fir.mmx"],"axes":{"emms_latency":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39,40,41,42,43,44,45,46,47,48,49,50,51,52,53,54,55,56,57,58,59,60,61,62,63,64],"mul_latency":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39,40,41,42,43,44,45,46,47,48,49,50,51,52,53,54,55,56,57,58,59,60,61,62,63,64],"mispredict_penalty":[1,2]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, data := postCampaign(t, ts.URL, tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d: %s", status, tc.status, data)
			}
		})
	}

	// Unknown campaign resources answer 404.
	resp, err := http.Get(ts.URL + "/campaign/deadbeef00000000")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign: %d", resp.StatusCode)
	}
	// GET on the collection is not allowed.
	resp, err = http.Get(ts.URL + "/campaign")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /campaign: %d", resp.StatusCode)
	}
}

func TestCampaignActiveCapSheds429(t *testing.T) {
	lookup, all := registry(spinBench("spin"))
	_, ts := newTestServer(t, server.Config{
		Lookup: lookup, Benchmarks: all, CampaignMaxActive: 1,
	})
	const spec = `{"programs":["spin.c"],"axes":{"mul_latency":[1,2]},"max_instrs":2000000000,"skip_check":true}`
	status, data := postCampaign(t, ts.URL, spec)
	if status != http.StatusAccepted {
		t.Fatalf("first campaign: %d %s", status, data)
	}
	id := decodeCampaign(t, data).ID
	status, _ = postCampaign(t, ts.URL, spec)
	if status != http.StatusTooManyRequests {
		t.Fatalf("second active campaign: %d, want 429", status)
	}
	// Cancel and settle so the goroutine drains before server shutdown.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/campaign/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	waitCampaign(t, ts.URL, id)
}

// TestCampaignArtifactsOnDiskAtCompletion pins the persist-before-publish
// order: when /campaign/{id}/events first reports completed, both artifact
// files already exist under CampaignDir/<id>/.
func TestCampaignArtifactsOnDiskAtCompletion(t *testing.T) {
	lookup, all := registryFromSuite(t, "fir.mmx")
	dir := t.TempDir()
	_, ts := newTestServer(t, server.Config{Lookup: lookup, Benchmarks: all, CampaignDir: dir})

	_, data := postCampaign(t, ts.URL,
		`{"programs":["fir.mmx"],"axes":{"mul_latency":[1,3]},"skip_check":true}`)
	st := decodeCampaign(t, data)

	resp, err := http.Get(ts.URL + "/campaign/" + st.ID + "/events")
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
