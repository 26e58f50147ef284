package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/vm"
)

// buildScalarVecAdd builds a scalar 16-bit vector add of length n.
func buildScalarVecAdd(n int) func() (*asm.Program, error) {
	return func() (*asm.Program, error) {
		b := asm.NewBuilder("vadd.c")
		x := make([]int16, n)
		y := make([]int16, n)
		for i := range x {
			x[i] = int16(i)
			y[i] = int16(2 * i)
		}
		b.Words("x", x)
		b.Words("y", y)
		b.Reserve("out", 2*n)
		b.Proc("main")
		// Warm the caches with one unmeasured pass, then measure.
		b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(0))
		b.Label("warm")
		b.I(isa.MOVSXW, asm.R(isa.EAX), asm.SymIdx(isa.SizeW, "x", isa.ECX, 2, 0))
		b.I(isa.MOVSXW, asm.R(isa.EDX), asm.SymIdx(isa.SizeW, "y", isa.ECX, 2, 0))
		b.I(isa.INC, asm.R(isa.ECX))
		b.I(isa.CMP, asm.R(isa.ECX), asm.Imm(int64(n)))
		b.J(isa.JL, "warm")
		b.I(isa.PROFON)
		b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(0))
		b.Label("loop")
		b.I(isa.MOVSXW, asm.R(isa.EAX), asm.SymIdx(isa.SizeW, "x", isa.ECX, 2, 0))
		b.I(isa.MOVSXW, asm.R(isa.EDX), asm.SymIdx(isa.SizeW, "y", isa.ECX, 2, 0))
		b.I(isa.ADD, asm.R(isa.EAX), asm.R(isa.EDX))
		b.I(isa.MOV, asm.SymIdx(isa.SizeW, "out", isa.ECX, 2, 0), asm.R(isa.EAX))
		b.I(isa.INC, asm.R(isa.ECX))
		b.I(isa.CMP, asm.R(isa.ECX), asm.Imm(int64(n)))
		b.J(isa.JL, "loop")
		b.I(isa.PROFOFF)
		b.I(isa.HALT)
		return b.Link()
	}
}

// buildMMXVecAdd builds the 4-wide MMX version of the same computation.
func buildMMXVecAdd(n int) func() (*asm.Program, error) {
	return func() (*asm.Program, error) {
		b := asm.NewBuilder("vadd.mmx")
		x := make([]int16, n)
		y := make([]int16, n)
		for i := range x {
			x[i] = int16(i)
			y[i] = int16(2 * i)
		}
		b.Words("x", x)
		b.Words("y", y)
		b.Reserve("out", 2*n)
		b.Proc("main")
		b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(0))
		b.Label("warm")
		b.I(isa.MOVQ, asm.R(isa.MM0), asm.SymIdx(isa.SizeQ, "x", isa.ECX, 2, 0))
		b.I(isa.MOVQ, asm.R(isa.MM1), asm.SymIdx(isa.SizeQ, "y", isa.ECX, 2, 0))
		b.I(isa.ADD, asm.R(isa.ECX), asm.Imm(4))
		b.I(isa.CMP, asm.R(isa.ECX), asm.Imm(int64(n)))
		b.J(isa.JL, "warm")
		b.I(isa.PROFON)
		b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(0))
		b.Label("loop")
		b.I(isa.MOVQ, asm.R(isa.MM0), asm.SymIdx(isa.SizeQ, "x", isa.ECX, 2, 0))
		b.I(isa.PADDW, asm.R(isa.MM0), asm.SymIdx(isa.SizeQ, "y", isa.ECX, 2, 0))
		b.I(isa.MOVQ, asm.SymIdx(isa.SizeQ, "out", isa.ECX, 2, 0), asm.R(isa.MM0))
		b.I(isa.ADD, asm.R(isa.ECX), asm.Imm(4))
		b.I(isa.CMP, asm.R(isa.ECX), asm.Imm(int64(n)))
		b.J(isa.JL, "loop")
		b.I(isa.EMMS)
		b.I(isa.PROFOFF)
		b.I(isa.HALT)
		return b.Link()
	}
}

func checkVecAdd(n int) func(c *vm.CPU) error {
	return func(c *vm.CPU) error {
		out, ok := c.Mem.ReadInt16s(c.Prog.Addr("out"), n)
		if !ok {
			return fmt.Errorf("cannot read output")
		}
		for i, v := range out {
			if want := int16(3 * i); v != want {
				return fmt.Errorf("out[%d] = %d, want %d", i, v, want)
			}
		}
		return nil
	}
}

func testBenches(n int) (Benchmark, Benchmark) {
	c := Benchmark{
		Base: "vadd", Version: VersionC, Kind: KindKernel,
		Build: buildScalarVecAdd(n), Check: checkVecAdd(n),
	}
	m := Benchmark{
		Base: "vadd", Version: VersionMMX, Kind: KindKernel,
		Build: buildMMXVecAdd(n), Check: checkVecAdd(n),
	}
	return c, m
}

func TestRunAndCompareEndToEnd(t *testing.T) {
	cb, mb := testBenches(256)
	opt := DefaultOptions()
	rc, err := Run(cb, opt)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := Run(mb, opt)
	if err != nil {
		t.Fatal(err)
	}

	// The scalar loop retires ~7 instructions per element; MMX ~6 per 4
	// elements. The MMX version must be well ahead on every Table 3 metric.
	r := Compare(rc.Report, rm.Report)
	if r.Speedup <= 2 {
		t.Errorf("speedup = %.2f, want > 2", r.Speedup)
	}
	if r.Dynamic <= 3 {
		t.Errorf("dynamic ratio = %.2f, want > 3", r.Dynamic)
	}
	if r.MemRefs <= 2 {
		t.Errorf("memref ratio = %.2f, want > 2", r.MemRefs)
	}
	if r.Static >= 2 {
		t.Errorf("static ratio = %.2f; MMX static size should not be much smaller", r.Static)
	}

	// Report sanity.
	if rm.Report.PercentMMX() < 40 {
		t.Errorf("MMX version %%MMX = %.1f, want >= 40", rm.Report.PercentMMX())
	}
	if rc.Report.PercentMMX() != 0 {
		t.Errorf("C version %%MMX = %.1f, want 0", rc.Report.PercentMMX())
	}
	bd := rm.Report.MMXBreakdown()
	if bd[0] != 0 {
		t.Errorf("aligned vector add must have zero pack/unpack, got %.2f%%", bd[0])
	}
	if bd[1] == 0 || bd[2] == 0 {
		t.Errorf("expected arithmetic and move MMX instructions, got %v", bd)
	}
	if rm.Report.StaticInstructions == 0 || rm.Report.StaticInstructions > 12 {
		t.Errorf("static instructions = %d, want small and nonzero", rm.Report.StaticInstructions)
	}
	if rc.Report.Cycles == 0 || rm.Report.Cycles == 0 {
		t.Error("cycle counts must be nonzero")
	}
}

func TestValidationFailureSurfaces(t *testing.T) {
	bad := Benchmark{
		Base: "vadd", Version: VersionC,
		Build: buildScalarVecAdd(16),
		Check: func(c *vm.CPU) error { return fmt.Errorf("forced failure") },
	}
	if _, err := Run(bad, DefaultOptions()); err == nil {
		t.Fatal("validation failure must surface")
	}
	// SkipCheck suppresses it.
	if _, err := Run(bad, Options{SkipCheck: true}); err != nil {
		t.Fatalf("SkipCheck run failed: %v", err)
	}
}

func TestPerfectCacheAblationIsFaster(t *testing.T) {
	// Use a vector long enough to spill the L1 set working pattern.
	cb, _ := testBenches(2048)
	withCache, err := Run(cb, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.PerfectCache = true
	noCache, err := Run(cb, opt)
	if err != nil {
		t.Fatal(err)
	}
	if noCache.Report.Cycles >= withCache.Report.Cycles {
		t.Errorf("perfect cache cycles %d >= cached %d",
			noCache.Report.Cycles, withCache.Report.Cycles)
	}
	if withCache.Report.CacheAccesses == 0 || withCache.Report.L1Misses == 0 {
		t.Errorf("cache stats empty: %+v", withCache.Report)
	}
	if noCache.Report.CacheAccesses != 0 {
		t.Error("perfect-cache run must report no cache accesses")
	}
}

func TestRunAll(t *testing.T) {
	cb, mb := testBenches(64)
	res, err := RunAll([]Benchmark{cb, mb}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	if res["vadd.c"] == nil || res["vadd.mmx"] == nil {
		t.Error("results not keyed by program name")
	}
}

func TestProcAttribution(t *testing.T) {
	// A program split into two procedures: the callee should dominate.
	bench := Benchmark{
		Base: "attr", Version: VersionC,
		Build: func() (*asm.Program, error) {
			b := asm.NewBuilder("attr.c")
			b.Proc("main")
			b.I(isa.PROFON)
			b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(50))
			b.Label("outer")
			b.Call("work")
			b.I(isa.DEC, asm.R(isa.ECX))
			b.J(isa.JNE, "outer")
			b.I(isa.PROFOFF)
			b.I(isa.HALT)
			b.Proc("work")
			b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(20))
			b.Label("spin")
			b.I(isa.IMUL, asm.R(isa.EBX), asm.R(isa.EAX))
			b.I(isa.DEC, asm.R(isa.EAX))
			b.J(isa.JNE, "spin")
			b.Ret()
			return b.Link()
		},
	}
	res, err := Run(bench, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.Calls != 50 {
		t.Errorf("calls = %d, want 50", rep.Calls)
	}
	if len(rep.Procs) < 2 || rep.Procs[0].Name != "work" {
		t.Fatalf("hot procedure should be 'work': %+v", rep.Procs)
	}
	if rep.CallRetCycleShare() <= 0 || rep.CallRetCycleShare() >= 50 {
		t.Errorf("call/ret share = %.2f%%, want a small positive share", rep.CallRetCycleShare())
	}
}

// TestTraceWriteFailureSurfaces: a broken -trace destination must fail the
// run loudly (the tracer latches the error) instead of silently producing
// a truncated listing.
func TestTraceWriteFailureSurfaces(t *testing.T) {
	cb, _ := testBenches(64)
	opt := DefaultOptions()
	opt.SkipCheck = true
	opt.Trace = brokenWriter{}
	_, err := Run(cb, opt)
	if err == nil {
		t.Fatal("run with a broken trace writer must fail")
	}
	if !strings.Contains(err.Error(), "trace") {
		t.Errorf("error should identify the trace stage: %v", err)
	}
}

type brokenWriter struct{}

func (brokenWriter) Write(p []byte) (int, error) { return 0, fmt.Errorf("disk full") }

// TestObserverPanicIsPanicError: the trace writer runs inside the observer;
// its panic comes back from RunCompiled as a *PanicError carrying the
// original value.
func TestObserverPanicIsPanicError(t *testing.T) {
	cb, _ := testBenches(64)
	opt := DefaultOptions()
	opt.Trace = panickyWriter{}
	_, err := Run(cb, opt)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Program != cb.Name() || pe.Value != "writer exploded" {
		t.Errorf("PanicError = {%q, %v}", pe.Program, pe.Value)
	}
}

type panickyWriter struct{}

func (panickyWriter) Write(p []byte) (int, error) { panic("writer exploded") }
