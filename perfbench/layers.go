package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"mmxdsp/internal/core"
	"mmxdsp/internal/mem"
	"mmxdsp/internal/pentium"
	"mmxdsp/internal/profile"
	"mmxdsp/internal/suite"
	"mmxdsp/internal/vm"
)

// maxInstrs is RunCompiled's default budget, used by the ladder rungs so
// they run the same instructions.
const maxInstrs = 1 << 31

// compileAll builds and predecodes every benchmark: the set-up every
// mmxbench invocation pays.
func compileAll(benches []core.Benchmark) ([]*core.Compiled, error) {
	out := make([]*core.Compiled, len(benches))
	for i, b := range benches {
		c, err := core.CompileBenchmark(b)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// buildProbe times Benchmark.Build and vm.Compile per program, reps times
// with programs interleaved, and sets asm.build_ms and vm.compile_ms to the
// sums of the per-program medians (one whole-suite build and compile).
func buildProbe(o *outcome, benches []core.Benchmark, reps int, rng *rand.Rand) error {
	build := make([][]float64, len(benches))
	comp := make([][]float64, len(benches))
	for r := 0; r < reps; r++ {
		runtime.GC()
		for _, i := range rng.Perm(len(benches)) {
			t := time.Now()
			prog, err := benches[i].Build()
			build[i] = append(build[i], ms(time.Since(t)))
			if err != nil {
				return fmt.Errorf("build %s: %w", benches[i].Name(), err)
			}
			t = time.Now()
			vm.Compile(prog)
			comp[i] = append(comp[i], ms(time.Since(t)))
		}
	}
	o.set("asm.build_ms", sumMedians(build))
	o.set("vm.compile_ms", sumMedians(comp))
	return nil
}

func sumMedians(xss [][]float64) float64 {
	t := 0.0
	for _, xs := range xss {
		t += median(xs)
	}
	return t
}

// simulatorLayers sets every simulator per-layer figure: the build probe,
// then the ladder at the workload's run options.
func simulatorLayers(o *outcome, opt core.Options, rng *rand.Rand) error {
	benches := suite.All()
	if err := buildProbe(o, benches, probeReps, rng); err != nil {
		return err
	}
	comps, err := compileAll(benches)
	if err != nil {
		return err
	}
	return ladder(o, comps, opt, ladderReps, rng, newHostRef())
}

// ladder prices the simulator's layers from outside by running each
// program on rungs that add one layer at a time, then the full
// core.RunCompiled:
//
//	rung 1  vm.NewWithCode + Run, no observer, no cache model
//	rung 2  + mem.NewHierarchy()
//	rung 3  + pentium.New/Bind and profile.NewCollector as the observer
//	check   Benchmark.Check on the rung-3 machine
//	report  Collector.Report, plus core.Table2/Table3 and their CSV once
//	        per repeat
//	full    core.RunCompiled with opt
//
// Rungs run per program, interleaved, reps times; each layer's figure is
// its rung's median minus the previous rung's. Every rung's times are in
// reference time (hostref.go), from reference passes between rungs, so a
// change of host speed between two rungs does not show as a layer's cost.
// A garbage collection precedes every reference pass, so a rung's garbage
// is not collected inside the pass that scales it.
// The full runs also give the allocation figures and the simulated-machine
// counts, which must repeat exactly between runs.
func ladder(o *outcome, comps []*core.Compiled, opt core.Options, reps int, rng *rand.Rand, ref *hostRef) error {
	n := len(comps)
	type times struct{ r1, r2, r3, check, report, full []float64 }
	t := make([]times, n)
	first := make([]*core.Result, n)
	var tables []float64
	var allocBytes, pauseNs uint64
	var fullRuns int
	traces := opt.Dispatch == core.DispatchTrace
	cfg := pentium.DefaultConfig()
	if opt.Pentium != nil {
		cfg = *opt.Pentium
	}
	instrs := make([]int64, n)

	for r := 0; r < reps; r++ {
		results := core.ResultSet{}
		for _, i := range rng.Perm(n) {
			c := comps[i]
			runtime.GC()
			prev := ref.run()
			// Rotate the rung order so no rung always runs first.
			for k := 0; k < 4; k++ {
				var step []*[]float64 // the samples this rung appended
				switch (k + r + i) % 4 {
				case 0:
					start := time.Now()
					cpu := vm.NewWithCode(c.Code)
					cpu.Traces = traces
					if err := cpu.Run(maxInstrs); err != nil {
						return fmt.Errorf("rung 1 %s: %w", c.Benchmark.Name(), err)
					}
					t[i].r1 = append(t[i].r1, ms(time.Since(start)))
					step = append(step, &t[i].r1)
					instrs[i] = cpu.Executed()
				case 1:
					start := time.Now()
					cpu := vm.NewWithCode(c.Code)
					cpu.Traces = traces
					cpu.Hier = mem.NewHierarchy()
					if err := cpu.Run(maxInstrs); err != nil {
						return fmt.Errorf("rung 2 %s: %w", c.Benchmark.Name(), err)
					}
					t[i].r2 = append(t[i].r2, ms(time.Since(start)))
					step = append(step, &t[i].r2)
				case 2:
					start := time.Now()
					model := pentium.New(cfg)
					model.Bind(c.Prog)
					col := profile.NewCollector(c.Prog, model)
					cpu := vm.NewWithCode(c.Code)
					cpu.Traces = traces
					cpu.Hier = mem.NewHierarchy()
					cpu.Obs = col
					if err := cpu.Run(maxInstrs); err != nil {
						return fmt.Errorf("rung 3 %s: %w", c.Benchmark.Name(), err)
					}
					t[i].r3 = append(t[i].r3, ms(time.Since(start)))
					step = append(step, &t[i].r3)
					if check := c.Benchmark.Check; check != nil {
						start = time.Now()
						if err := check(cpu); err != nil {
							o.fail("ladder check %s: %v", c.Benchmark.Name(), err)
						}
						t[i].check = append(t[i].check, ms(time.Since(start)))
						step = append(step, &t[i].check)
					}
					start = time.Now()
					col.Report(c.Benchmark.Name())
					t[i].report = append(t[i].report, ms(time.Since(start)))
					step = append(step, &t[i].report)
				case 3:
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					start := time.Now()
					res, err := core.RunCompiled(c, opt)
					t[i].full = append(t[i].full, ms(time.Since(start)))
					step = append(step, &t[i].full)
					runtime.ReadMemStats(&after)
					if err != nil {
						o.fail("ladder run %s: %v", c.Benchmark.Name(), err)
						break
					}
					allocBytes += after.TotalAlloc - before.TotalAlloc
					pauseNs += after.PauseTotalNs - before.PauseTotalNs
					fullRuns++
					results[c.Benchmark.Name()] = res
					if first[i] == nil {
						first[i] = res
					} else if !sameReport(first[i].Report, res.Report) {
						o.fail("ladder %s: report changed between repeats", c.Benchmark.Name())
					}
				}
				runtime.GC()
				next := ref.run()
				sc := scale(prev, next)
				prev = next
				for _, xs := range step {
					(*xs)[len(*xs)-1] *= sc
				}
			}
		}
		start := time.Now()
		_ = core.Table2(results) + core.Table3(results) + core.Table2CSV(results) + core.Table3CSV(results)
		tables = append(tables, ms(time.Since(start)))
	}

	var r1, r2, r3, check, report, full, executed float64
	for i := range t {
		r1 += median(t[i].r1)
		r2 += median(t[i].r2)
		r3 += median(t[i].r3)
		check += median(t[i].check)
		report += median(t[i].report)
		full += median(t[i].full)
		executed += float64(instrs[i])
	}
	nsPer := func(msTotal float64) float64 { return msTotal * 1e6 / executed }
	o.set("vm.ns_per_instr", nsPer(r1))
	o.set("mem.ns_per_instr", nsPer(r2-r1))
	o.set("pentium.ns_per_instr", nsPer(r3-r2))
	o.set("core.check_ms", check)
	o.set("core.report_ms", report+median(tables))
	o.set("ladder.residual_pct", pct(full-r3-check-report, full))
	if fullRuns > 0 {
		o.set("core.alloc_mb_per_run", float64(allocBytes)/float64(fullRuns)/(1<<20))
		o.set("gc.pause_ms", float64(pauseNs)/float64(fullRuns)/1e6)
	}
	o.ledger["ladder"] = map[string]any{
		"reps": reps, "programs": n, "dispatch": opt.Dispatch,
		"rung1_ms": r1, "rung2_ms": r2, "rung3_ms": r3, "check_ms": check,
		"collector_report_ms": report, "tables_ms": median(tables), "full_runcompiled_ms": full,
	}
	counts(o, first)
	return nil
}

// sameReport reports whether two runs simulated the same machine.
func sameReport(a, b *profile.Report) bool { return reflect.DeepEqual(a, b) }

// counts sets the simulated-machine counts, summed over the programs.
// Speed-only changes must leave every one of them identical.
func counts(o *outcome, results []*core.Result) {
	var instrs, accesses, l1, l2, cycles, pairs, mispredicts float64
	var fast, events, traceInstrs, executed, iters, exits float64
	for _, r := range results {
		if r == nil {
			continue
		}
		rep := r.Report
		instrs += float64(rep.DynamicInstructions)
		accesses += float64(rep.CacheAccesses)
		l1 += float64(rep.L1Misses)
		l2 += float64(rep.L2Misses)
		cycles += float64(rep.Cycles)
		pairs += float64(rep.Pairs)
		mispredicts += float64(rep.Mispredicts)
		fast += float64(r.Blocks.FastEvents)
		events += float64(r.Blocks.FastEvents + r.Blocks.PerEvents)
		traceInstrs += float64(r.Traces.TraceInstrs)
		executed += float64(r.Traces.Executed)
		iters += float64(r.Traces.Iters)
		exits += float64(r.Traces.Exits)
	}
	o.set("vm.instrs", instrs)
	o.set("mem.accesses", accesses)
	o.set("mem.l1_misses", l1)
	o.set("mem.l2_misses", l2)
	o.set("pentium.cycles", cycles)
	o.set("pentium.pairs", pairs)
	o.set("pentium.mispredicts", mispredicts)
	o.set("vm.fast_event_pct", pct(fast, events))
	o.set("vm.trace_resident_pct", pct(traceInstrs, executed))
	o.set("vm.side_exit_pct", pct(exits, iters+exits))
}
