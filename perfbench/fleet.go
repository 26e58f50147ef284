package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"mmxdsp/internal/cluster"
	"mmxdsp/internal/server"
)

// fleetBackends is the number of mmxd servers behind the coordinator; with
// one worker each, no more simulations run at once than this host's two
// cores.
const fleetBackends = 2

// fleet is the serving stack under test, in this process on loopback
// listeners: fleetBackends mmxd servers fronted by one mmxfleet
// coordinator, plus the generator's HTTP client.
type fleet struct {
	coord    *cluster.Coordinator
	servers  []*http.Server
	url      string   // coordinator base URL
	backends []string // backend base URLs
	client   *http.Client
}

// serveOn serves h on a fresh loopback listener.
func serveOn(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed on shutdown
	return srv, "http://" + ln.Addr().String(), nil
}

// startFleet builds and starts the fleet. With rec non-nil, the
// coordinator and backend handlers are wrapped to record spans while the
// recorder is on; with rec nil, the handlers are mounted as they are.
func startFleet(rec *recorder) (*fleet, error) {
	f := &fleet{}
	wrap := func(layer, node string, h http.Handler) http.Handler {
		if rec == nil {
			return h
		}
		return rec.wrap(layer, node, h)
	}
	for i := 0; i < fleetBackends; i++ {
		srv, url, err := serveOn(wrap(layerServer, fmt.Sprintf("backend%d", i), server.New(server.Config{Workers: 1}).Handler()))
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		f.backends = append(f.backends, url)
	}
	coord, err := cluster.New(cluster.Config{Backends: f.backends})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	coord.ProbeAll()
	coord.Start()
	srv, url, err := serveOn(wrap(layerCluster, "coordinator", coord.Handler()))
	if err != nil {
		f.close()
		return nil, err
	}
	f.servers = append(f.servers, srv)
	f.url = url
	f.client = &http.Client{
		// No answer, campaign event streams included, takes this long;
		// reaching it means a hang, which fails the run.
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
	return f, nil
}

// close stops the prober and every server, waiting for each to finish.
func (f *fleet) close() {
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	if f.coord != nil {
		f.coord.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(f.servers) - 1; i >= 0; i-- {
		if err := f.servers[i].Shutdown(ctx); err != nil {
			_ = f.servers[i].Close() // shutdown timed out; drop the connections
		}
	}
}

// reply is one HTTP answer as the generator sees it.
type reply struct {
	status int
	body   []byte
	etag   string
}

// do sends one request and reads the whole answer.
func (f *fleet) do(method, path string, body []byte, hdr map[string]string) (reply, error) {
	req, err := http.NewRequest(method, f.url+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	return reply{status: resp.StatusCode, body: data, etag: resp.Header.Get("ETag")}, nil
}

// getJSON decodes a GET answer from base+path into v.
func (f *fleet) getJSON(base, path string, v any) error {
	resp, err := f.client.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// counters is the part of the fleet's /metrics the per-layer figures use,
// summed over backends where a counter is per backend.
type counters struct {
	coordHits, coordMisses, retries int64
	resultHits, resultMisses        uint64
	compileHits, compileMisses      uint64
}

func (f *fleet) counters() (counters, error) {
	var c counters
	var fm cluster.FleetMetrics
	if err := f.getJSON(f.url, "/metrics", &fm); err != nil {
		return c, err
	}
	c.coordHits, c.coordMisses, c.retries = fm.ResultHits, fm.ResultMisses, fm.Retries
	for _, b := range f.backends {
		var m server.MetricsSnapshot
		if err := f.getJSON(b, "/metrics", &m); err != nil {
			return c, err
		}
		c.resultHits += m.ResultHits + m.ResultSpillHits
		c.resultMisses += m.ResultMisses
		c.compileHits += m.CacheHits
		c.compileMisses += m.CacheMisses
	}
	return c, nil
}

// sub returns the counter deltas from before to c.
func (c counters) sub(before counters) counters {
	return counters{
		coordHits: c.coordHits - before.coordHits, coordMisses: c.coordMisses - before.coordMisses,
		retries:    c.retries - before.retries,
		resultHits: c.resultHits - before.resultHits, resultMisses: c.resultMisses - before.resultMisses,
		compileHits: c.compileHits - before.compileHits, compileMisses: c.compileMisses - before.compileMisses,
	}
}

// clusterLayers turns counter deltas into the coordinator's cache figures.
func (c counters) clusterLayers(o *outcome) {
	o.set("cluster.result_hit_pct", pct(float64(c.coordHits), float64(c.coordHits+c.coordMisses)))
	o.set("cluster.retries", float64(c.retries))
}

// serverLayers turns counter deltas into the backends' cache figures.
func (c counters) serverLayers(o *outcome) {
	o.set("server.result_hit_pct", pct(float64(c.resultHits), float64(c.resultHits+c.resultMisses)))
	o.set("server.result_fills", float64(c.resultMisses))
	o.set("server.compile_hit_pct", pct(float64(c.compileHits), float64(c.compileHits+c.compileMisses)))
}
