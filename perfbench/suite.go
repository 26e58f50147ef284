package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mmxdsp/internal/core"
	"mmxdsp/internal/suite"
)

// suiteDigest pins sha256(core.Table2CSV + core.Table3CSV) of the whole
// suite at the paper's configuration. Simulated statistics are
// deterministic, so any change to it is a change to the simulated machine.
const suiteDigest = "08647db7753b9f38d719f0de465fb2a1ab93973f64697e62bc5186b470fc7c73"

// serveLayers are the per-layer metrics of the serving stack, which the
// suite workload does not use; it reports them as 0.
var serveLayers = []string{
	"cluster.self_ms_p50", "cluster.self_ms_p99", "cluster.result_hit_pct", "cluster.retries",
	"server.handler_ms_p50", "server.handler_ms_p99", "server.parse_us", "server.result_hit_pct",
	"server.result_fills", "server.compile_hit_pct", "server.alloc_kb_per_req",
	"http.transport_ms_p50", "http.transport_pct", "campaign.parse_ms", "server.busy_pct",
}

func zero(o *outcome, names []string) {
	for _, n := range names {
		o.set(n, 0)
	}
}

// suitePass is one program's timings over the rounds: the whole
// RunCompiled call and the VM-only Result.Wall inside it, in
// reference time and raw.
type suitePass struct{ call, vm, rawCall, rawVM []float64 }

// runSuite runs all 21 programs through core.RunCompiled at trace dispatch
// with output checks on, round after round, in a seeded order per round.
func runSuite(e *env) (*outcome, error) {
	o := newOutcome()
	benches := suite.All()
	rng := rand.New(rand.NewSource(e.seed))

	setups := suiteSetups
	if e.trace {
		setups = 1
	}
	ref := newHostRef()
	var comps []*core.Compiled
	var setup, rawSetup []float64
	for i := 0; i < setups; i++ {
		runtime.GC()
		before := ref.run()
		start := time.Now()
		cs, err := compileAll(benches)
		if err != nil {
			return nil, err
		}
		d := time.Since(start).Seconds()
		runtime.GC()
		setup = append(setup, d*scale(before, ref.run()))
		rawSetup = append(rawSetup, d)
		comps = cs
	}

	opt := core.DefaultOptions()
	opt.Dispatch = core.DispatchTrace
	n := len(comps)
	passes := make([]suitePass, n)
	first := make([]*core.Result, n)
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start) < e.seconds; round++ {
		runtime.GC()
		prev := ref.run()
		for _, i := range rng.Perm(n) {
			o.attempted++
			name := comps[i].Benchmark.Name()
			t := time.Now()
			res, err := core.RunCompiled(comps[i], opt)
			d := time.Since(t)
			// Collect this run's garbage before the reference pass that
			// scales it, so its cost is not charged to the reference.
			runtime.GC()
			next := ref.run()
			k := scale(prev, next)
			prev = next
			if err != nil {
				o.failed++
				o.fail("%v", err)
				continue
			}
			p := &passes[i]
			p.call = append(p.call, ms(d)*k)
			p.vm = append(p.vm, ms(res.Wall)*k)
			p.rawCall = append(p.rawCall, ms(d))
			p.rawVM = append(p.rawVM, ms(res.Wall))
			if first[i] == nil {
				first[i] = res
			} else if !sameReport(first[i].Report, res.Report) {
				o.fail("%s: report changed between rounds", name)
			}
		}
	}
	if err := checkDigest(first, suiteDigest); err != nil {
		o.fail("%v", err)
	}
	var instrs float64
	for _, r := range first {
		if r != nil {
			instrs += float64(r.Report.DynamicInstructions)
		}
	}

	figures := suiteFigures(passes, instrs, false)
	figures["setup_s"] = medianOf(setup, "s")
	raw := suiteFigures(passes, instrs, true)
	raw["setup_s"] = medianOf(rawSetup, "s")
	o.ledger["raw"] = raw
	if !e.trace {
		o.metrics = figures
		return o, nil
	}
	// The suite records no spans: its traced run differs from an untraced
	// one only by the ladder, which runs after the timed rounds.
	o.ledger["end_to_end"] = figures
	o.set("trace.overhead_pct", 0)
	if err := simulatorLayers(o, opt, rng); err != nil {
		return nil, err
	}
	zero(o, serveLayers)
	return o, nil
}

// suiteFigures turns per-program samples, in reference time or raw, into
// the end-to-end metrics.
// Programs differ in length by 50x, so no quantile mixes single runs of
// different programs: each program's runs reduce to their median first.
// Throughput divides by the sum of those medians; p50_ms and p99_ms are
// quantiles over the 21 per-program medians.
func suiteFigures(passes []suitePass, instrs float64, raw bool) map[string]sample {
	var callMed, vmMed float64
	var meds []float64
	rounds := len(passes[0].call)
	for _, p := range passes {
		call, vm := p.call, p.vm
		if raw {
			call, vm = p.rawCall, p.rawVM
		}
		m := median(call)
		meds = append(meds, m)
		callMed += m
		vmMed += median(vm)
		rounds = min(rounds, len(call))
	}
	perSec := float64(len(passes)) / (callMed / 1e3)
	return map[string]sample{
		"sim_minstr_per_s": {Value: instrs / (vmMed * 1e3), Unit: "Minstr/s", N: rounds},
		"req_per_s":        {Value: perSec, Unit: "1/s", N: rounds},
		"points_per_s":     {Value: perSec, Unit: "1/s", N: rounds},
		"p50_ms":           {Value: quantile(meds, 0.5), Unit: "ms", N: rounds},
		"p99_ms":           {Value: quantile(meds, 0.99), Unit: "ms", N: rounds},
	}
}

// overhead is the tracing overhead of serve_warm: how much slower req_per_s
// ran in the traced batches than in the untraced ones, in percent.
func overhead(plain, traced map[string]sample) float64 {
	return pct(plain["req_per_s"].Value-traced["req_per_s"].Value, plain["req_per_s"].Value)
}

// tableDigest hashes the paper's Table 2 and Table 3 CSV for results.
func tableDigest(results []*core.Result) string {
	rs := core.ResultSet{}
	for _, r := range results {
		if r != nil {
			rs[r.Benchmark.Name()] = r
		}
	}
	sum := sha256.Sum256([]byte(core.Table2CSV(rs) + core.Table3CSV(rs)))
	return hex.EncodeToString(sum[:])
}

// checkDigest is the suite's correctness gate on the tables.
func checkDigest(results []*core.Result, want string) error {
	if got := tableDigest(results); got != want {
		return fmt.Errorf("table digest %s, want %s", got, want)
	}
	return nil
}
