package apps

import (
	"fmt"
	"testing"

	"mmxdsp/internal/core"
	"mmxdsp/internal/vm"
)

// runPair runs a family's .c and .mmx versions and returns the comparison.
func runPair(t *testing.T, benches []core.Benchmark) core.Ratios {
	t.Helper()
	var base, mmx *core.Result
	for _, bm := range benches {
		r, err := core.Run(bm, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		switch bm.Version {
		case core.VersionC:
			base = r
		case core.VersionMMX:
			mmx = r
		}
	}
	if base == nil || mmx == nil {
		t.Fatal("missing versions")
	}
	return core.Compare(base.Report, mmx.Report)
}

func TestImageShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full 640x480 workload")
	}
	r := runPair(t, Image())
	t.Logf("image ratios: %+v", r)
	// Paper: speedup 5.50, dynamic 9.92, memrefs 7.12.
	if r.Speedup < 3.5 || r.Speedup > 9 {
		t.Errorf("image speedup = %.2f, want ~5.5 (band 3.5..9)", r.Speedup)
	}
	if r.Dynamic < 4 {
		t.Errorf("image dynamic ratio = %.2f, want large (paper 9.92)", r.Dynamic)
	}
	if r.MemRefs < 3 {
		t.Errorf("image memref ratio = %.2f, want large (paper 7.12)", r.MemRefs)
	}
}

func TestRadarShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload")
	}
	r := runPair(t, Radar())
	t.Logf("radar ratios: %+v", r)
	// Paper: speedup 1.21 — modest, eaten by call overhead and formatting.
	if r.Speedup < 0.95 || r.Speedup > 1.9 {
		t.Errorf("radar speedup = %.2f, want ~1.21 (band 0.95..1.9)", r.Speedup)
	}
}

func TestJPEGShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload")
	}
	r := runPair(t, JPEG())
	t.Logf("jpeg ratios: %+v", r)
	// Paper: speedup 0.49 — the MMX version LOSES.
	if r.Speedup >= 1.0 {
		t.Errorf("jpeg speedup = %.2f, want < 1 (paper 0.49: scalar wins)", r.Speedup)
	}
	if r.Speedup < 0.3 {
		t.Errorf("jpeg speedup = %.2f, implausibly low", r.Speedup)
	}
}

func TestG722Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload")
	}
	r := runPair(t, G722())
	t.Logf("g722 ratios: %+v", r)
	// Paper: speedup 0.77 — the MMX version loses.
	if r.Speedup >= 1.0 {
		t.Errorf("g722 speedup = %.2f, want < 1 (paper 0.77: scalar wins)", r.Speedup)
	}
	if r.Speedup < 0.5 {
		t.Errorf("g722 speedup = %.2f, implausibly low", r.Speedup)
	}
}

func TestAppRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, bm := range Benchmarks() {
		names[bm.Name()] = true
		if bm.Kind != core.KindApplication {
			t.Errorf("%s kind = %q", bm.Name(), bm.Kind)
		}
	}
	for _, want := range []string{"image.c", "image.mmx", "radar.c", "radar.mmx",
		"jpeg.c", "jpeg.mmx", "g722.c", "g722.mmx"} {
		if !names[want] {
			t.Errorf("registry missing %s", want)
		}
	}
}

func TestJPEG2DVariantValidatesAndBeats1D(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload")
	}
	var oneD, twoD *core.Result
	for _, bm := range JPEG() {
		if bm.Version == core.VersionMMX {
			r, err := core.Run(bm, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			oneD = r
		}
	}
	r, err := core.Run(JPEGMMX2D(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	twoD = r
	// Same bit stream (validated in Check), far fewer calls and cycles:
	// the paper's "2-D DCT in the library" recommendation quantified.
	if twoD.Report.Calls >= oneD.Report.Calls {
		t.Errorf("2-D calls %d >= 1-D calls %d", twoD.Report.Calls, oneD.Report.Calls)
	}
	gain := float64(oneD.Report.Cycles) / float64(twoD.Report.Cycles)
	t.Logf("fused 2-D DCT: %d -> %d cycles (%.2fx), calls %d -> %d",
		oneD.Report.Cycles, twoD.Report.Cycles, gain, oneD.Report.Calls, twoD.Report.Calls)
	if gain < 1.1 {
		t.Errorf("fused 2-D DCT gain %.2f, want >= 1.1", gain)
	}
}

// TestNarrativeMetrics pins the paper's §4.2 mechanism claims: the MMX
// applications make many more function calls, and the losing applications
// execute MORE dynamic instructions than their C versions.
func TestNarrativeMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload")
	}
	run := func(name string, benches []core.Benchmark) (c, m *core.Result) {
		t.Helper()
		for _, bm := range benches {
			r, err := core.Run(bm, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if bm.Version == core.VersionC {
				c = r
			} else {
				m = r
			}
		}
		return c, m
	}

	rc, rm := run("radar", Radar())
	callRatio := float64(rm.Report.Calls) / float64(rc.Report.Calls)
	t.Logf("radar calls: %d -> %d (%.1fx)", rc.Report.Calls, rm.Report.Calls, callRatio)
	if callRatio < 5 {
		t.Errorf("radar.mmx call ratio %.1f, want >> 1 (paper: 27x)", callRatio)
	}

	jc, jm := run("jpeg", JPEG())
	if jm.Report.DynamicInstructions <= jc.Report.DynamicInstructions {
		t.Errorf("jpeg.mmx dynamic %d <= jpeg.c %d; paper's anomaly missing",
			jm.Report.DynamicInstructions, jc.Report.DynamicInstructions)
	}
	if jm.Report.Calls <= jc.Report.Calls {
		t.Errorf("jpeg.mmx calls %d <= jpeg.c %d", jm.Report.Calls, jc.Report.Calls)
	}

	gc, gm := run("g722", G722())
	if gm.Report.DynamicInstructions <= gc.Report.DynamicInstructions {
		t.Errorf("g722.mmx dynamic %d <= g722.c %d; paper's anomaly missing",
			gm.Report.DynamicInstructions, gc.Report.DynamicInstructions)
	}
	// Both g722 versions are call-heavy, sample at a time.
	if gc.Report.CallRetCycleShare() < 5 || gm.Report.CallRetCycleShare() < 5 {
		t.Errorf("g722 call/ret shares %.1f%% / %.1f%%, want substantial",
			gc.Report.CallRetCycleShare(), gm.Report.CallRetCycleShare())
	}
}

// TestImageCheckReportsFirstDifference holds imageCheck's answers on an
// unrun image: a matching output passes, and a mismatch names the first
// differing byte.
func TestImageCheckReportsFirstDifference(t *testing.T) {
	prog, err := buildImageMMX()
	if err != nil {
		t.Fatal(err)
	}
	c := vm.New(prog)
	want := imageExpected()
	out := prog.Addr("out")
	c.Mem.WriteBytes(out, want)
	if err := imageCheck(c, "image.mmx"); err != nil {
		t.Fatalf("matching output: %v", err)
	}
	for _, i := range []int{0, 4321, len(want) - 1} {
		c.Mem.WriteBytes(out, want)
		c.Mem.StoreU8(out+uint32(i), want[i]^0x80)
		wantErr := fmt.Sprintf("image.mmx: byte %d = %d, want %d", i, want[i]^0x80, want[i])
		if err := imageCheck(c, "image.mmx"); err == nil || err.Error() != wantErr {
			t.Errorf("byte %d flipped: %v, want %q", i, err, wantErr)
		}
	}
}
