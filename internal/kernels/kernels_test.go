package kernels

import (
	"testing"

	"mmxdsp/internal/core"
)

func TestFIRShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload")
	}
	rc := runPair(t, FIR(), core.VersionC, core.VersionMMX)
	rf := runPair(t, FIR(), core.VersionFP, core.VersionMMX)
	t.Logf("fir.c/mmx: %+v", rc)
	t.Logf("fir.fp/mmx: %+v", rf)
	// Paper: fir.c 1.57, fir.fp 1.34; MMX wins but modestly, and the FP
	// library sits between the two.
	if rc.Speedup < 1.1 || rc.Speedup > 2.6 {
		t.Errorf("fir.c/mmx speedup = %.2f, want ~1.57 (band 1.1..2.6)", rc.Speedup)
	}
	if rf.Speedup < 1.0 || rf.Speedup > 2.2 {
		t.Errorf("fir.fp/mmx speedup = %.2f, want ~1.34 (band 1.0..2.2)", rf.Speedup)
	}
	if rf.Speedup >= rc.Speedup {
		t.Errorf("fp speedup %.2f must be below c speedup %.2f", rf.Speedup, rc.Speedup)
	}
	if rc.Static >= 1 {
		t.Errorf("fir static ratio %.2f: MMX code must be bigger", rc.Static)
	}
}

func TestIIRShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload")
	}
	rc := runPair(t, IIR(), core.VersionC, core.VersionMMX)
	rf := runPair(t, IIR(), core.VersionFP, core.VersionMMX)
	t.Logf("iir.c/mmx: %+v", rc)
	t.Logf("iir.fp/mmx: %+v", rf)
	// Paper: iir.c 2.55, iir.fp 1.71.
	if rc.Speedup < 1.7 || rc.Speedup > 4.0 {
		t.Errorf("iir.c/mmx speedup = %.2f, want ~2.55 (band 1.7..4.0)", rc.Speedup)
	}
	if rf.Speedup < 1.2 || rf.Speedup > 2.8 {
		t.Errorf("iir.fp/mmx speedup = %.2f, want ~1.71 (band 1.2..2.8)", rf.Speedup)
	}
	if rf.Speedup >= rc.Speedup {
		t.Errorf("fp speedup %.2f must be below c speedup %.2f", rf.Speedup, rc.Speedup)
	}
}

func TestFFTShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload")
	}
	rc := runPair(t, FFT(), core.VersionC, core.VersionMMX)
	rf := runPair(t, FFT(), core.VersionFP, core.VersionMMX)
	t.Logf("fft.c/mmx: %+v", rc)
	t.Logf("fft.fp/mmx: %+v", rf)
	// Paper: fft.c 1.98, fft.fp 1.25. The crucial shape: the hybrid MMX
	// FFT beats even the hand-optimized FP library, and the C version
	// trails both.
	if rc.Speedup < 1.4 || rc.Speedup > 3.0 {
		t.Errorf("fft.c/mmx speedup = %.2f, want ~1.98 (band 1.4..3.0)", rc.Speedup)
	}
	if rf.Speedup < 1.0 || rf.Speedup > 1.8 {
		t.Errorf("fft.fp/mmx speedup = %.2f, want ~1.25 (band 1.0..1.8)", rf.Speedup)
	}
	if rf.Speedup >= rc.Speedup {
		t.Errorf("fp speedup %.2f must be below c speedup %.2f", rf.Speedup, rc.Speedup)
	}
}

func TestKernelMMXPercentages(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload")
	}
	// Table 2 shape: matvec.mmx is almost all MMX (91.6%), iir.mmx is
	// mostly MMX (71.2%), fir.mmx moderate (20.3%), fft.mmx tiny (4.69%).
	pct := map[string]float64{}
	for _, bm := range Benchmarks() {
		if bm.Version != core.VersionMMX {
			continue
		}
		r, err := core.Run(bm, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		pct[bm.Base] = r.Report.PercentMMX()
		t.Logf("%s.mmx %%MMX = %.1f", bm.Base, r.Report.PercentMMX())
	}
	if pct["matvec"] < 60 {
		t.Errorf("matvec %%MMX = %.1f, want high (paper 91.6)", pct["matvec"])
	}
	if pct["iir"] < 35 {
		t.Errorf("iir %%MMX = %.1f, want substantial (paper 71.2)", pct["iir"])
	}
	if pct["fft"] > 15 {
		t.Errorf("fft %%MMX = %.1f, want small (paper 4.69, hybrid strategy)", pct["fft"])
	}
	if !(pct["fft"] < pct["fir"] && pct["fir"] < pct["matvec"]) {
		t.Errorf("ordering fft < fir < matvec violated: %+v", pct)
	}
}

// programNames is the full kernel program list of Table 1, plus sad.
var programNames = []string{
	"fft.c", "fft.fp", "fft.mmx",
	"fir.c", "fir.fp", "fir.mmx",
	"iir.c", "iir.fp", "iir.mmx",
	"matvec.c", "matvec.mmx",
	"sad.c", "sad.mmx",
}

func TestBenchmarksRegistryComplete(t *testing.T) {
	names := map[string]bool{}
	for _, bm := range Benchmarks() {
		names[bm.Name()] = true
		if bm.Kind != core.KindKernel {
			t.Errorf("%s kind = %q", bm.Name(), bm.Kind)
		}
		if bm.Build == nil || bm.Check == nil {
			t.Errorf("%s missing Build or Check", bm.Name())
		}
	}
	for _, want := range programNames {
		if !names[want] {
			t.Errorf("registry missing %s", want)
		}
	}
	if len(names) != len(programNames) {
		t.Errorf("registry has %d programs, want %d", len(names), len(programNames))
	}
}
