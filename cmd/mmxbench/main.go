// Command mmxbench runs the benchmark suite on the simulated
// Pentium-with-MMX and regenerates every table and figure of the paper's
// evaluation section.
//
// Usage:
//
//	mmxbench                  # run everything, print all tables and figures
//	mmxbench -only fft,image  # restrict to some benchmark families
//	mmxbench -table3 -csv     # one artifact, machine-readable
//	mmxbench -skip-check      # skip output validation (faster)
//	mmxbench -j 0             # run benchmarks in parallel (0 = all cores)
//	mmxbench -emms 0          # ablation: free emms
//	mmxbench -mmxmul 10       # ablation: unpipelined 10-cycle MMX multiplier
//	mmxbench -perfect-cache   # ablation: no cache penalties
//	mmxbench -bench-json BENCH_interp.json   # per-program host throughput
//	mmxbench -cpuprofile cpu.pprof -memprofile mem.pprof   # profile the simulator
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"mmxdsp/internal/core"
	"mmxdsp/internal/pentium"
	"mmxdsp/internal/suite"
)

func main() {
	var (
		table1 = flag.Bool("table1", false, "print Table 1 (benchmark summary)")
		table2 = flag.Bool("table2", false, "print Table 2 (instruction characteristics)")
		table3 = flag.Bool("table3", false, "print Table 3 (non-MMX/MMX ratios)")
		fig1a  = flag.Bool("fig1a", false, "print Figure 1(a) (MMX instruction mix)")
		fig1b  = flag.Bool("fig1b", false, "print Figure 1(b) (instruction-count ratios)")
		fig2a  = flag.Bool("fig2a", false, "print Figure 2(a) (C-only/MMX ratios)")
		fig2b  = flag.Bool("fig2b", false, "print Figure 2(b) (FP/MMX ratios)")
		notes  = flag.Bool("notes", false, "print Section 4 narrative metrics")
		csv    = flag.Bool("csv", false, "CSV output for tables 2 and 3")
		md     = flag.Bool("markdown", false, "full evaluation as a Markdown document")

		only      = flag.String("only", "", "comma-separated benchmark families (e.g. fft,image)")
		skipCheck = flag.Bool("skip-check", false, "skip output validation")
		jobs      = flag.Int("j", 0, "parallel benchmark runs (0 = one per core)")

		perfectCache = flag.Bool("perfect-cache", false, "ablation: disable the cache model")
		noPairing    = flag.Bool("no-pairing", false, "ablation: disable dual issue")
		noBTB        = flag.Bool("no-btb", false, "ablation: disable branch prediction")
		emms         = flag.Int("emms", -1, "override emms latency (cycles; -1 = default 50)")
		mmxMul       = flag.Int("mmxmul", 0, "override MMX multiplier latency (0 = default pipelined 3)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile after the run to this file")
		benchJSON  = flag.String("bench-json", "", "write per-program host throughput (JSON) to this file")

		dispatch    = flag.String("dispatch", "auto", "interpreter: trace, generic, auto, block or predecode, which all name trace dispatch")
		benchCommit = flag.String("bench-commit", "", "git commit hash to stamp into the -bench-json artifact")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmxbench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "mmxbench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	all := !(*table1 || *table2 || *table3 || *fig1a || *fig1b || *fig2a || *fig2b || *notes)

	opt := core.DefaultOptions()
	opt.SkipCheck = *skipCheck
	opt.PerfectCache = *perfectCache
	if err := core.CheckDispatch(*dispatch); err != nil {
		fmt.Fprintf(os.Stderr, "mmxbench: -dispatch: %v\n", err)
		os.Exit(2)
	}
	cfg := pentium.DefaultConfig()
	cfg.DisablePairing = *noPairing
	cfg.DisableBTB = *noBTB
	cfg.EmmsLatency = *emms
	cfg.MMXMulLatency = *mmxMul
	opt.Pentium = &cfg

	benches := suite.All()
	if *only != "" {
		want := map[string]bool{}
		for _, f := range strings.Split(*only, ",") {
			want[strings.TrimSpace(f)] = true
		}
		var filtered []core.Benchmark
		for _, b := range benches {
			if want[b.Base] {
				filtered = append(filtered, b)
			}
		}
		benches = filtered
	}
	if len(benches) == 0 {
		fmt.Fprintln(os.Stderr, "mmxbench: no benchmarks selected")
		os.Exit(2)
	}

	opt.Parallelism = *jobs
	opt.Progress = func(st core.RunStatus) {
		if st.Err != nil {
			fmt.Fprintf(os.Stderr, "[%2d/%d] %-12s FAILED: %v\n",
				st.Done, st.Total, st.Benchmark.Name(), st.Err)
			return
		}
		fmt.Fprintf(os.Stderr, "[%2d/%d] %-12s %12d cycles, %10d instructions  (%6.0f ms, %5.1f M instr/s)\n",
			st.Done, st.Total, st.Benchmark.Name(),
			st.Result.Report.Cycles, st.Result.Report.DynamicInstructions,
			float64(st.Result.Wall.Microseconds())/1000, st.Result.InstrsPerSec()/1e6)
	}

	start := time.Now()
	rs, err := core.RunAll(benches, opt)
	elapsed := time.Since(start)
	stats := core.Stats(rs)
	fmt.Fprintf(os.Stderr, "suite: %d programs, %d instructions in %.2fs wall (%.1f M instr/s aggregate)\n\n",
		stats.Programs, stats.Instructions, elapsed.Seconds(), stats.InstrsPerSec()/1e6)
	if err != nil {
		// Failures are aggregated; tables below still cover the programs
		// that succeeded.
		var runErr *core.RunError
		if errors.As(err, &runErr) {
			fmt.Fprintf(os.Stderr, "mmxbench: %v\n", runErr)
		} else {
			fmt.Fprintf(os.Stderr, "mmxbench: %v\n", err)
		}
		defer os.Exit(1)
	}

	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, rs, elapsed, *benchCommit); err != nil {
			fmt.Fprintf(os.Stderr, "mmxbench: -bench-json: %v\n", err)
			os.Exit(1)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmxbench: -memprofile: %v\n", err)
			os.Exit(2)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "mmxbench: -memprofile: %v\n", err)
			os.Exit(2)
		}
		f.Close()
	}

	show := func(enabled bool, text string) {
		if all || enabled {
			fmt.Println(text)
		}
	}
	if *md {
		fmt.Print(core.MarkdownReport(rs))
		return
	}
	if *csv {
		show(*table2, core.Table2CSV(rs))
		show(*table3, core.Table3CSV(rs))
		return
	}
	show(*table1, core.Table1(benches))
	show(*table2, core.Table2(rs))
	show(*table3, core.Table3(rs))
	show(*fig1a, core.Fig1a(rs))
	show(*fig1b, core.Fig1b(rs))
	show(*fig2a, core.Fig2a(rs))
	show(*fig2b, core.Fig2b(rs))
	show(*notes, core.Notes(rs))
}

// benchRecord is one program's host-side throughput measurement.
type benchRecord struct {
	Program      string  `json:"program"`
	WallSeconds  float64 `json:"wall_seconds"`
	Instructions uint64  `json:"instructions"`
	InstrsPerSec float64 `json:"instrs_per_sec"`
	// Region-pricing coverage: basic blocks compiled and the share of
	// retired events priced through a region schedule.
	Blocks      int     `json:"blocks"`
	FastPathPct float64 `json:"fast_path_pct"`
	// Trace-dispatch coverage: superblocks formed, side exits as a share of
	// trace entries, and the share of retired instructions that retired
	// inside a superblock.
	TracesFormed     int     `json:"traces_formed,omitempty"`
	SideExitPct      float64 `json:"side_exit_pct,omitempty"`
	TraceResidentPct float64 `json:"trace_resident_pct,omitempty"`
	// Trace-tree growth: child paths attached, and the share of retired
	// instructions in child-path iterations.
	TreeNodes       int     `json:"tree_nodes,omitempty"`
	TreeResidentPct float64 `json:"tree_resident_pct,omitempty"`
}

// benchFile is the schema of the -bench-json artifact.
type benchFile struct {
	GitCommit      string        `json:"git_commit,omitempty"`
	Dispatch       string        `json:"dispatch"`
	UTCDate        string        `json:"utc_date"`
	Programs       []benchRecord `json:"programs"`
	SuiteWallSec   float64       `json:"suite_wall_seconds"`
	GeomeanIPS     float64       `json:"geomean_instrs_per_sec"`
	TotalInstrs    uint64        `json:"total_instructions"`
	AggregateIPS   float64       `json:"aggregate_instrs_per_sec"`
	HostGoroutines int           `json:"host_parallelism"`
}

func writeBenchJSON(path string, rs core.ResultSet, elapsed time.Duration, commit string) error {
	names := make([]string, 0, len(rs))
	for name := range rs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := benchFile{
		GitCommit:      commit,
		Dispatch:       core.DispatchTrace,
		UTCDate:        time.Now().UTC().Format(time.RFC3339),
		SuiteWallSec:   elapsed.Seconds(),
		HostGoroutines: runtime.GOMAXPROCS(0),
	}
	logSum, logN := 0.0, 0
	for _, name := range names {
		r := rs[name]
		ips := r.InstrsPerSec()
		out.Programs = append(out.Programs, benchRecord{
			Program:          name,
			WallSeconds:      r.Wall.Seconds(),
			Instructions:     r.Report.DynamicInstructions,
			InstrsPerSec:     ips,
			Blocks:           r.Blocks.Compiled,
			FastPathPct:      r.Blocks.FastPct(),
			TracesFormed:     r.Traces.Formed,
			SideExitPct:      r.Traces.SideExitPct(),
			TraceResidentPct: r.Traces.ResidentPct(),
			TreeNodes:        r.Traces.TreeNodes,
			TreeResidentPct:  r.Traces.TreeResidentPct(),
		})
		out.TotalInstrs += r.Report.DynamicInstructions
		if ips > 0 {
			logSum += math.Log(ips)
			logN++
		}
	}
	if logN > 0 {
		out.GeomeanIPS = math.Exp(logSum / float64(logN))
	}
	if elapsed > 0 {
		out.AggregateIPS = float64(out.TotalInstrs) / elapsed.Seconds()
	}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
