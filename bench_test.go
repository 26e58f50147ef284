// Package mmxdsp's benchmark harness: one testing.B benchmark per table
// and figure of the paper, plus the ablation benches DESIGN.md calls out.
// Custom metrics carry the reproduced numbers (speedups, ratios), so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation and reports it through the standard
// benchmark output.
package mmxdsp

import (
	"fmt"
	"testing"

	"mmxdsp/internal/apps"
	"mmxdsp/internal/core"
	"mmxdsp/internal/pentium"
	"mmxdsp/internal/suite"
)

// runSet runs the named programs once and returns the results.
func runSet(b *testing.B, opt core.Options, names ...string) core.ResultSet {
	b.Helper()
	rs := core.ResultSet{}
	for _, name := range names {
		bench, ok := suite.ByName(name)
		if !ok {
			b.Fatalf("unknown program %q", name)
		}
		r, err := core.Run(bench, opt)
		if err != nil {
			b.Fatal(err)
		}
		rs[name] = r
	}
	return rs
}

func defaultOpt() core.Options {
	o := core.DefaultOptions()
	o.SkipCheck = true // validation is covered by go test; benches measure
	return o
}

var allPrograms = suite.Names()

// BenchmarkTable2 regenerates Table 2: per-program static/dynamic/uop/
// memory-reference characteristics for the whole suite.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := runSet(b, defaultOpt(), allPrograms...)
		if i == 0 {
			for _, name := range []string{"matvec.mmx", "fft.mmx"} {
				rep := rs[name].Report
				b.ReportMetric(rep.PercentMMX(), name+"_%mmx")
			}
			b.ReportMetric(float64(rs["image.c"].Report.DynamicInstructions), "image.c_dyn")
		}
	}
}

// BenchmarkTable3 regenerates Table 3: the non-MMX/MMX ratio rows.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := runSet(b, defaultOpt(), allPrograms...)
		if i == 0 {
			for _, base := range []string{"matvec", "image", "iir", "fft", "fir", "radar", "g722", "jpeg"} {
				r := core.Compare(rs[base+".c"].Report, rs[base+".mmx"].Report)
				b.ReportMetric(r.Speedup, base+"_speedup")
			}
		}
	}
}

// BenchmarkFig1a regenerates Figure 1(a): the MMX instruction-category
// breakdown of every .mmx program.
func BenchmarkFig1a(b *testing.B) {
	mmxProgs := []string{"fft.mmx", "fir.mmx", "iir.mmx", "matvec.mmx",
		"radar.mmx", "g722.mmx", "jpeg.mmx", "image.mmx"}
	for i := 0; i < b.N; i++ {
		rs := runSet(b, defaultOpt(), mmxProgs...)
		if i == 0 {
			bd := rs["image.mmx"].Report.MMXBreakdown()
			b.ReportMetric(bd[0], "image_pack%")
			b.ReportMetric(rs["fir.mmx"].Report.MMXBreakdown()[0], "fir_pack%")
		}
	}
}

// BenchmarkFig1b regenerates Figure 1(b): static and dynamic count ratios.
func BenchmarkFig1b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := runSet(b, defaultOpt(), "image.c", "image.mmx", "jpeg.c", "jpeg.mmx")
		if i == 0 {
			r := core.Compare(rs["image.c"].Report, rs["image.mmx"].Report)
			b.ReportMetric(r.Static, "image_static_ratio")
			b.ReportMetric(r.Dynamic, "image_dynamic_ratio")
		}
	}
}

// BenchmarkFig2a regenerates Figure 2(a): C-only/MMX ratios for the suite.
func BenchmarkFig2a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := runSet(b, defaultOpt(), "matvec.c", "matvec.mmx", "g722.c", "g722.mmx")
		if i == 0 {
			r := core.Compare(rs["matvec.c"].Report, rs["matvec.mmx"].Report)
			b.ReportMetric(r.Speedup, "matvec_speedup")
			b.ReportMetric(r.MemRefs, "matvec_memref_ratio")
		}
	}
}

// BenchmarkFig2b regenerates Figure 2(b): FP-library/MMX ratios for the
// three kernels that have FP versions.
func BenchmarkFig2b(b *testing.B) {
	progs := []string{"fft.fp", "fft.mmx", "fir.fp", "fir.mmx", "iir.fp", "iir.mmx"}
	for i := 0; i < b.N; i++ {
		rs := runSet(b, defaultOpt(), progs...)
		if i == 0 {
			for _, base := range []string{"fft", "fir", "iir"} {
				r := core.Compare(rs[base+".fp"].Report, rs[base+".mmx"].Report)
				b.ReportMetric(r.Speedup, base+"_fp_speedup")
			}
		}
	}
}

// BenchmarkKernels runs each kernel program individually so per-program
// simulation throughput is visible.
func BenchmarkKernels(b *testing.B) {
	for _, name := range []string{"fft.mmx", "fir.mmx", "iir.mmx", "matvec.mmx"} {
		b.Run(name, func(b *testing.B) {
			bench, _ := suite.ByName(name)
			for i := 0; i < b.N; i++ {
				r, err := core.Run(bench, defaultOpt())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(r.Report.Cycles), "modelcycles")
			}
		})
	}
}

// BenchmarkSuiteSequential runs the full 21-program suite on one worker —
// the baseline for the parallel-runner speedup.
func BenchmarkSuiteSequential(b *testing.B) {
	benches := suite.All()
	opt := defaultOpt()
	opt.Parallelism = 1
	for i := 0; i < b.N; i++ {
		rs, err := core.RunAll(benches, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(core.Stats(rs).Instructions), "suite_instrs")
		}
	}
}

// BenchmarkSuiteParallel runs the same suite on the bounded worker pool
// (one worker per core). Comparing ns/op against BenchmarkSuiteSequential
// gives the suite wall-time speedup recorded in EXPERIMENTS.md.
func BenchmarkSuiteParallel(b *testing.B) {
	benches := suite.All()
	opt := defaultOpt()
	opt.Parallelism = 0 // auto: GOMAXPROCS
	for i := 0; i < b.N; i++ {
		rs, err := core.RunAll(benches, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(core.Stats(rs).Instructions), "suite_instrs")
		}
	}
}

// --- Ablations (DESIGN.md §5) ----------------------------------------------

// ablateOpt returns options with one timing-model change.
func ablateOpt(change func(*pentium.Config)) core.Options {
	o := defaultOpt()
	cfg := pentium.DefaultConfig()
	change(&cfg)
	o.Pentium = &cfg
	return o
}

// BenchmarkAblationEmms: how much of the fir.mmx and g722.mmx slowdown is
// the 50-cycle MMX-to-FP switch. With emms free, their speedups rise.
func BenchmarkAblationEmms(b *testing.B) {
	free := ablateOpt(func(c *pentium.Config) { c.EmmsLatency = 0 })
	for i := 0; i < b.N; i++ {
		base := runSet(b, defaultOpt(), "fir.c", "fir.mmx", "g722.c", "g722.mmx")
		abl := runSet(b, free, "fir.c", "fir.mmx", "g722.c", "g722.mmx")
		if i == 0 {
			for _, fam := range []string{"fir", "g722"} {
				s0 := core.Compare(base[fam+".c"].Report, base[fam+".mmx"].Report).Speedup
				s1 := core.Compare(abl[fam+".c"].Report, abl[fam+".mmx"].Report).Speedup
				b.ReportMetric(s0, fam+"_speedup_emms50")
				b.ReportMetric(s1, fam+"_speedup_emms0")
			}
		}
	}
}

// BenchmarkAblationPmadd: matvec's superlinear speedup collapses when the
// MMX multiplier is as slow and unpipelined as imul (10 cycles).
func BenchmarkAblationPmadd(b *testing.B) {
	slow := ablateOpt(func(c *pentium.Config) { c.MMXMulLatency = 10 })
	for i := 0; i < b.N; i++ {
		base := runSet(b, defaultOpt(), "matvec.c", "matvec.mmx")
		abl := runSet(b, slow, "matvec.c", "matvec.mmx")
		if i == 0 {
			b.ReportMetric(core.Compare(base["matvec.c"].Report, base["matvec.mmx"].Report).Speedup,
				"speedup_pmadd3")
			b.ReportMetric(core.Compare(abl["matvec.c"].Report, abl["matvec.mmx"].Report).Speedup,
				"speedup_pmadd10")
		}
	}
}

// BenchmarkAblationCache: how much of the suite's behavior is memory-
// reference reduction — with a perfect cache, cycle counts drop and the
// FFT's advantage narrows.
func BenchmarkAblationCache(b *testing.B) {
	perfect := defaultOpt()
	perfect.PerfectCache = true
	for i := 0; i < b.N; i++ {
		base := runSet(b, defaultOpt(), "fft.c", "fft.mmx", "image.c", "image.mmx")
		abl := runSet(b, perfect, "fft.c", "fft.mmx", "image.c", "image.mmx")
		if i == 0 {
			b.ReportMetric(core.Compare(base["fft.c"].Report, base["fft.mmx"].Report).Speedup,
				"fft_speedup_cached")
			b.ReportMetric(core.Compare(abl["fft.c"].Report, abl["fft.mmx"].Report).Speedup,
				"fft_speedup_perfect")
			b.ReportMetric(core.Compare(base["image.c"].Report, base["image.mmx"].Report).Speedup,
				"image_speedup_cached")
			b.ReportMetric(core.Compare(abl["image.c"].Report, abl["image.mmx"].Report).Speedup,
				"image_speedup_perfect")
		}
	}
}

// BenchmarkAblationPairing: dual issue off — the Pentium's second pipe
// matters more to the scalar versions than to the MMX ones.
func BenchmarkAblationPairing(b *testing.B) {
	single := ablateOpt(func(c *pentium.Config) { c.DisablePairing = true })
	for i := 0; i < b.N; i++ {
		base := runSet(b, defaultOpt(), "image.c", "image.mmx")
		abl := runSet(b, single, "image.c", "image.mmx")
		if i == 0 {
			b.ReportMetric(core.Compare(base["image.c"].Report, base["image.mmx"].Report).Speedup,
				"speedup_dualissue")
			b.ReportMetric(core.Compare(abl["image.c"].Report, abl["image.mmx"].Report).Speedup,
				"speedup_single")
		}
	}
}

// BenchmarkAblationBTB: branch prediction off — loop-heavy scalar code
// pays per-iteration mispredict penalties.
func BenchmarkAblationBTB(b *testing.B) {
	noBTB := ablateOpt(func(c *pentium.Config) { c.DisableBTB = true })
	for i := 0; i < b.N; i++ {
		base := runSet(b, defaultOpt(), "matvec.c", "matvec.mmx")
		abl := runSet(b, noBTB, "matvec.c", "matvec.mmx")
		if i == 0 {
			b.ReportMetric(core.Compare(base["matvec.c"].Report, base["matvec.mmx"].Report).Speedup,
				"speedup_btb")
			b.ReportMetric(core.Compare(abl["matvec.c"].Report, abl["matvec.mmx"].Report).Speedup,
				"speedup_nobtb")
		}
	}
}

// BenchmarkAblationDct2D: the paper's conclusion asks for a 2-D DCT in the
// MMX library. This runs jpeg.mmx against the jpeg2d.mmx variant (one
// fused nsDct2D call per block instead of sixteen staged 1-D calls) —
// identical output bits, fewer calls, fewer cycles.
func BenchmarkAblationDct2D(b *testing.B) {
	jpegMMX, ok := suite.ByName("jpeg.mmx")
	if !ok {
		b.Fatal("suite missing jpeg.mmx")
	}
	for i := 0; i < b.N; i++ {
		oneD, err := core.Run(jpegMMX, defaultOpt())
		if err != nil {
			b.Fatal(err)
		}
		twoD, err := core.Run(apps.JPEGMMX2D(), defaultOpt())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(oneD.Report.Cycles), "cycles_16x1d")
			b.ReportMetric(float64(twoD.Report.Cycles), "cycles_fused2d")
			b.ReportMetric(float64(oneD.Report.Calls), "calls_16x1d")
			b.ReportMetric(float64(twoD.Report.Calls), "calls_fused2d")
		}
	}
}

// TestBenchHarnessSmoke keeps the bench harness compiling and exercised in
// plain `go test` runs: a single tiny end-to-end run.
func TestBenchHarnessSmoke(t *testing.T) {
	bench, ok := suite.ByName("matvec.mmx")
	if !ok {
		t.Fatal("suite missing matvec.mmx")
	}
	r, err := core.Run(bench, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.Report.Cycles == 0 {
		t.Error("no cycles recorded")
	}
	fmt.Fprintf(testWriter{t}, "matvec.mmx: %d cycles\n", r.Report.Cycles)
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}
