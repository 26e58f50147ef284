package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mmxdsp/internal/core"
	"mmxdsp/internal/server"
	"mmxdsp/internal/suite"
)

// serveKeys is the serve_warm key space as the client holds it after the
// fill: every key's first answer and ETag.
type serveKeys struct {
	run, asm         [][]byte // request bodies
	runBody, asmBody [][]byte // first answers
	runETag          []string
}

// serveInputs builds the request bodies: 84 /run keys and the /asm
// listings of every suite program under asmMaxSource.
func serveInputs() (*serveKeys, error) {
	k := &serveKeys{}
	var err error
	if k.run, err = runBodies(suite.Names()); err != nil {
		return nil, err
	}
	for _, b := range suite.All() {
		prog, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", b.Name(), err)
		}
		if src := prog.Source(); len(src) < asmMaxSource {
			body, err := asmBody(b.Name(), src)
			if err != nil {
				return nil, err
			}
			k.asm = append(k.asm, body)
		}
	}
	return k, nil
}

// closedLoop runs operations 0..n-1 on clients goroutines, each starting
// its next operation only after its previous one completed.
func closedLoop(n int, do func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
}

// fillStats is one set-up's fill: its wall time and the backends' summed
// interpreter time (each answer's wall_ns), raw and in reference time, the
// simulated instructions the answers report, and the first reference pass.
type fillStats struct {
	wall, scaled       float64 // seconds
	simWall, simScaled float64 // seconds
	firstRef           time.Duration
	instrs             uint64
}

// fillAnswer is the part of a /run or /asm answer the fill reads.
type fillAnswer struct {
	WallNS int64 `json:"wall_ns"`
	Report struct {
		DynamicInstructions uint64
	} `json:"report"`
}

// fill sends every key once and keeps the first answers. It is the cold
// half of serve_warm's set-up: every answer is simulated by a backend.
// It sends one request at a time. With two in flight, how often both
// backends simulated at once on the two cores depended on how routing
// split the keys, which changes with every set-up's ports, and the
// interpreter's speed moved with it. Like a suite program run, every
// request is scaled by the reference passes right before and after it.
func fill(f *fleet, k *serveKeys, ref *hostRef) (fillStats, error) {
	nRun, nAsm := len(k.run), len(k.asm)
	k.runBody, k.runETag = make([][]byte, nRun), make([]string, nRun)
	k.asmBody = make([][]byte, nAsm)
	runtime.GC()
	fs := fillStats{firstRef: ref.run()}
	prev := fs.firstRef
	for i := 0; i < nRun+nAsm; i++ {
		path, body := "/run", []byte(nil)
		if i < nRun {
			body = k.run[i]
		} else {
			path, body = "/asm", k.asm[i-nRun]
		}
		start := time.Now()
		rep, err := f.do(http.MethodPost, path, body, nil)
		d := time.Since(start).Seconds()
		if err == nil && rep.status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", rep.status, rep.body)
		}
		var a fillAnswer
		if err == nil {
			err = json.Unmarshal(rep.body, &a)
		}
		if err != nil {
			return fillStats{}, fmt.Errorf("fill %s #%d: %w", path, i, err)
		}
		if i < nRun {
			k.runBody[i], k.runETag[i] = rep.body, rep.etag
		} else {
			k.asmBody[i-nRun] = rep.body
		}
		runtime.GC()
		next := ref.run()
		sc := scale(prev, next)
		prev = next
		sim := float64(a.WallNS) / 1e9
		fs.wall += d
		fs.scaled += d * sc
		fs.simWall += sim
		fs.simScaled += sim * sc
		fs.instrs += a.Report.DynamicInstructions
	}
	return fs, nil
}

// warmElasticity is how far the warm loop's speed follows the reference's
// when the host's speed changes. Over 30 runs on the 2-vCPU guest the
// reference pass took 0.9x to 1.8x its nominal time, and warm-loop figures
// scaled in full still rose with that factor at a log-log slope of about
// 0.2 (correlation 0.7 to 0.8), so a busy host slows the warm loop less
// than the reference; requests spend part of their time in the kernel's
// loopback path, which may explain it. The simulator's own figures (suite,
// the fill) showed no such slope and are scaled in full.
const warmElasticity = 0.8

// serveBatch is one timed batch: its wall time, per-request latencies, the
// number of answers that carry a report (all but the 304s) and the factor
// that converts times into reference time.
type serveBatch struct {
	wall    time.Duration
	lat     []float64
	reports int
	scale   float64
}

// runServe drives the fleet with a seeded uniform mix over keys that were
// all filled during set-up, so no simulation runs in the timed loop.
func runServe(e *env) (*outcome, error) {
	o := newOutcome()
	k, err := serveInputs()
	if err != nil {
		return nil, err
	}
	var rec *recorder
	setups := serveSetups
	if e.trace {
		rec, setups = newRecorder(), 1
	}

	var f *fleet
	defer func() {
		if f != nil {
			f.close()
		}
	}()
	ref := newHostRef()
	var setup, fillMinstr, rawSetup, rawMinstr []float64
	for i := 0; i < setups; i++ {
		if f != nil {
			f.close()
			f = nil
		}
		runtime.GC()
		before := ref.run()
		start := time.Now()
		if f, err = startFleet(rec); err != nil {
			return nil, err
		}
		boot := time.Since(start).Seconds()
		fs, err := fill(f, k, ref)
		if err != nil {
			return nil, err
		}
		setup = append(setup, boot*scale(before, fs.firstRef)+fs.scaled)
		fillMinstr = append(fillMinstr, float64(fs.instrs)/fs.simScaled/1e6)
		rawSetup = append(rawSetup, boot+fs.wall)
		rawMinstr = append(rawMinstr, float64(fs.instrs)/fs.simWall/1e6)
	}

	gen := newServeGen(e.seed, len(k.run), len(k.asm))
	before, err := f.counters()
	if err != nil {
		return nil, err
	}
	var plain, traced []serveBatch
	var allocBytes uint64
	var untracedReqs int
	var wrongMu sync.Mutex
	start := time.Now()
	batches := minRounds
	if e.trace {
		batches *= 2
	}
	for b := 0; b < batches || time.Since(start) < e.seconds; b++ {
		ops := gen.batch()
		tracing := e.trace && b%2 == 1
		lat := make([]float64, len(ops))
		var failed atomic.Int64
		runtime.GC()
		before := ref.run()
		var ms0, ms1 runtime.MemStats
		if tracing {
			rec.on.Store(true)
		} else if e.trace {
			runtime.ReadMemStats(&ms0)
		}
		t0 := time.Now()
		closedLoop(len(ops), func(i int) {
			id := ""
			var s int64
			if tracing {
				id = fmt.Sprintf("pb-%d-%d", b, i)
				s = rec.now()
			}
			t := time.Now()
			wrong, err := serveOp(f, k, ops[i], id)
			lat[i] = ms(time.Since(t))
			if tracing {
				rec.add(layerClient, "", "", id, s)
			}
			if err != nil || wrong != "" {
				failed.Add(1)
				wrongMu.Lock()
				if err != nil {
					o.fail("batch %d op %d: %v", b, i, err)
				} else {
					o.fail("batch %d op %d: %s", b, i, wrong)
				}
				wrongMu.Unlock()
			}
		})
		wall := time.Since(t0)
		if tracing {
			rec.on.Store(false)
		} else if e.trace {
			runtime.ReadMemStats(&ms1)
			allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
			untracedReqs += len(ops)
		}
		runtime.GC()
		sc := math.Pow(scale(before, ref.run()), warmElasticity)
		batch := serveBatch{wall: wall, lat: lat, reports: len(ops) - batchUnits*unitRevals, scale: sc}
		if tracing {
			traced = append(traced, batch)
		} else {
			plain = append(plain, batch)
		}
		o.attempted += len(ops)
		o.failed += int(failed.Load())
	}
	after, err := f.counters()
	if err != nil {
		return nil, err
	}

	figures := serveFigures(plain, false)
	figures["setup_s"] = medianOf(setup, "s")
	figures["sim_minstr_per_s"] = medianOf(fillMinstr, "Minstr/s")
	raw := serveFigures(plain, true)
	raw["setup_s"] = medianOf(rawSetup, "s")
	raw["sim_minstr_per_s"] = medianOf(rawMinstr, "Minstr/s")
	o.ledger["raw"] = raw
	o.ledger["mix"] = map[string]any{
		"keys": len(k.run), "listings": len(k.asm), "batch": batchUnits * (unitRuns + unitRevals + len(k.asm)), "key_draw": "uniform",
		"runs_per_unit": unitRuns, "revalidations_per_unit": unitRevals, "units_per_batch": batchUnits,
	}
	if !e.trace {
		o.metrics = figures
		return o, nil
	}

	tfig := serveFigures(traced, false)
	o.ledger["untraced"], o.ledger["traced"] = figures, tfig
	o.set("trace.overhead_pct", overhead(figures, tfig))
	after.sub(before).clusterLayers(o)
	o.set("server.alloc_kb_per_req", float64(allocBytes)/float64(untracedReqs)/1024)
	spanLayers(o, rec.snapshot())
	if err := parseProbe(o, k, gen.batch()); err != nil {
		return nil, err
	}
	if err := campaignProbe(o, f, rec, e.seed); err != nil {
		return nil, err
	}
	if err := simulatorLayers(o, core.DefaultOptions(), rand.New(rand.NewSource(e.seed))); err != nil {
		return nil, err
	}
	return o, rec.dump(filepath.Join(e.out, fmt.Sprintf("serve_warm-seed%d.spans.jsonl", e.seed)))
}

// serveOp sends one generated request and checks its answer against the
// key's first answer. It returns a description of a wrong answer, or an
// error when no answer arrived.
func serveOp(f *fleet, k *serveKeys, x op, id string) (string, error) {
	hdr := map[string]string{}
	if id != "" {
		hdr[server.RequestIDHeader] = id
	}
	switch x.Kind {
	case opRun:
		rep, err := f.do(http.MethodPost, "/run", k.run[x.Key], hdr)
		if err != nil {
			return "", err
		}
		if rep.status != http.StatusOK || !bytes.Equal(rep.body, k.runBody[x.Key]) {
			return fmt.Sprintf("/run key %d: status %d, body differs from first answer", x.Key, rep.status), nil
		}
	case opReval:
		hdr["If-None-Match"] = k.runETag[x.Key]
		rep, err := f.do(http.MethodPost, "/run", k.run[x.Key], hdr)
		if err != nil {
			return "", err
		}
		if rep.status != http.StatusNotModified {
			return fmt.Sprintf("revalidation of key %d: status %d, want 304", x.Key, rep.status), nil
		}
	case opAsm:
		rep, err := f.do(http.MethodPost, "/asm", k.asm[x.Key], hdr)
		if err != nil {
			return "", err
		}
		if rep.status != http.StatusOK || !bytes.Equal(rep.body, k.asmBody[x.Key]) {
			return fmt.Sprintf("/asm listing %d: status %d, body differs from first answer", x.Key, rep.status), nil
		}
	}
	return "", nil
}

// serveFigures turns batches into req_per_s, points_per_s, p50_ms and
// p99_ms, in reference time or raw: each is computed per batch (every batch
// has the same composition) and the median over batches is reported.
func serveFigures(batches []serveBatch, raw bool) map[string]sample {
	var rps, pps, p50, p99 []float64
	for _, b := range batches {
		k := b.scale
		if raw {
			k = 1
		}
		sec := b.wall.Seconds() * k
		rps = append(rps, float64(len(b.lat))/sec)
		pps = append(pps, float64(b.reports)/sec)
		p50 = append(p50, quantile(b.lat, 0.5)*k)
		p99 = append(p99, quantile(b.lat, 0.99)*k)
	}
	return map[string]sample{
		"req_per_s":    medianOf(rps, "1/s"),
		"points_per_s": medianOf(pps, "1/s"),
		"p50_ms":       medianOf(p50, "ms"),
		"p99_ms":       medianOf(p99, "ms"),
	}
}

// spanLayers derives the serving layers' figures from the traced spans of
// the generator's requests: a request's coordinator self time is its
// coordinator spans minus the backend spans it caused (joined on
// X-Request-ID), its transport time its client spans minus its
// coordinator spans.
func spanLayers(o *outcome, spans []span) {
	coord := byReqID(spans, layerCluster)
	back := byReqID(spans, layerServer)
	var self, transport []float64
	var clientTotal, transportTotal float64
	for id, cl := range byReqID(spans, layerClient) {
		cs := coord[id]
		self = append(self, float64(selfTime(cs, back[id]))/1e6)
		c := float64(length(union(cl))) / 1e6
		d := c - float64(length(union(cs)))/1e6
		transport = append(transport, d)
		transportTotal += d
		clientTotal += c
	}
	o.set("cluster.self_ms_p50", quantile(self, 0.5))
	o.set("cluster.self_ms_p99", quantile(self, 0.99))
	o.set("http.transport_ms_p50", quantile(transport, 0.5))
	o.set("http.transport_pct", pct(transportTotal, clientTotal))
	o.ledger["spans"] = map[string]int{"requests": len(self)}
}

// parseProbe times server.ParseRunRequest and server.ParseAsmRequest on
// one batch's own bodies, probeReps times, and reports the median mean
// time per body.
func parseProbe(o *outcome, k *serveKeys, ops []op) error {
	var per []float64
	for r := 0; r < probeReps; r++ {
		runtime.GC()
		start := time.Now()
		for _, x := range ops {
			var err error
			if x.Kind == opAsm {
				_, err = server.ParseAsmRequest(k.asm[x.Key], server.DefaultMaxSourceBytes)
			} else {
				_, err = server.ParseRunRequest(k.run[x.Key])
			}
			if err != nil {
				return fmt.Errorf("parse probe: %w", err)
			}
		}
		per = append(per, float64(time.Since(start))/1e3/float64(len(ops)))
	}
	o.set("server.parse_us", median(per))
	return nil
}
