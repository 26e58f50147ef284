package kernels

import (
	"math"
	"sync"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/core"
	"mmxdsp/internal/dsp"
	"mmxdsp/internal/emit"
	"mmxdsp/internal/fixed"
	"mmxdsp/internal/fplib"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/mmxlib"
	"mmxdsp/internal/synth"
	"mmxdsp/internal/vm"
)

// Paper workload: "Low-pass filter of length 35 (i.e. 35 coefficients and
// 35 entry history)", invoked once per input sample. The non-MMX versions
// use 32-bit floating point; the MMX version uses 16-bit fixed point with
// float conversion at the call boundary (the library data-formatting cost
// the paper measures).
const (
	firTaps    = 35
	firPadded  = 36 // MMX version pads to a multiple of 4
	firSamples = 4096
	firCutoff  = 0.125
)

// firWorkload is what the FIR programs place: float32 coefficients and
// input for the scalar and FP versions, padded Q15 coefficients for the
// MMX version.
type firWorkload struct {
	coef32 []float32
	coefQ  []int16 // padded
	in32   []float32
}

// firData is the FIR workload, synthesized once per process. Builds and
// checks only read it.
var firData = sync.OnceValue(func() firWorkload {
	coef := dsp.LowpassFIR(firTaps, firCutoff)
	w := firWorkload{coef32: make([]float32, firTaps), coefQ: make([]int16, firPadded)}
	for i, v := range coef {
		w.coef32[i] = float32(v)
	}
	copy(w.coefQ, fixed.VecToQ15(coef))
	w.in32 = make([]float32, firSamples)
	for i, v := range synth.MultiTone(firSamples, 0xF15, 0.03, 0.21, 0.4) {
		w.in32[i] = float32(v)
	}
	return w
})

// firFloatExpected mirrors the scalar asm exactly: float32 storage, float64
// accumulation. It is computed once per process.
var firFloatExpected = sync.OnceValue(func() []float32 {
	w := firData()
	hist := make([]float32, firTaps)
	out := make([]float32, firSamples)
	for i, x := range w.in32 {
		copy(hist[1:], hist)
		hist[0] = x
		var acc float64
		for k := 0; k < firTaps; k++ {
			acc += float64(hist[k]) * float64(w.coef32[k])
		}
		out[i] = float32(acc)
	}
	return out
})

// firMMXExpected mirrors fir.mmx: the float32 input is quantized to Q15
// with fist rounding, filtered by the fixed-point library, and converted
// back to float32 by fild * (1/32768). It is computed once per process.
var firMMXExpected = sync.OnceValue(func() []float32 {
	w := firData()
	f := dsp.NewFIRQ15(w.coefQ)
	out := make([]float32, firSamples)
	inv := float32(1.0 / 32768.0)
	for i, x := range w.in32 {
		q := int16(math.RoundToEven(float64(x) * 32768))
		y := f.Process(q)
		out[i] = float32(float64(y) * float64(inv))
	}
	return out
})

// FIR returns the fir.c, fir.fp and fir.mmx benchmarks.
func FIR() []core.Benchmark {
	descr := "35-tap low-pass FIR, one sample per invocation, 4096 samples"
	return []core.Benchmark{
		{
			Base: "fir", Version: core.VersionC, Kind: core.KindKernel, Descr: descr,
			Build: buildFirC,
			Check: func(c *vm.CPU) error {
				return core.Expect(c, "out", firFloatExpected(), 0, "fir.c")
			},
		},
		{
			Base: "fir", Version: core.VersionFP, Kind: core.KindKernel, Descr: descr,
			Build: buildFirFP,
			Check: func(c *vm.CPU) error {
				return core.Expect(c, "out", firFloatExpected(), 0, "fir.fp")
			},
		},
		{
			Base: "fir", Version: core.VersionMMX, Kind: core.KindKernel, Descr: descr,
			Build: buildFirMMX,
			Check: func(c *vm.CPU) error {
				// Paper: precision loss "order 10^-4"; semantics should be
				// modeled exactly, so the tolerance is tight.
				return core.Expect(c, "out", firMMXExpected(), 1e-7, "fir.mmx")
			},
		},
	}
}

// buildFirC: straightforward compiled scalar code. Per sample it shifts a
// float32 delay line and accumulates taps with x87 arithmetic, all inline
// (a compiler would inline this small function or the call is negligible
// against 35 serialized FP operations).
func buildFirC() (*asm.Program, error) {
	b := asm.NewBuilder("fir.c")
	w := firData()
	b.Floats("coef", w.coef32)
	b.Floats("in", w.in32)
	b.Floats("hist", make([]float32, firTaps))
	b.Reserve("out", 4*firSamples)

	b.Proc("main")
	b.I(isa.PROFON)
	b.I(isa.MOV, asm.R(isa.EBP), asm.Imm(0))
	b.Label("sample")
	// Shift history (newest at 0) with dword moves like compiled memmove.
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(firTaps-1))
	b.Label("shift")
	b.I(isa.MOV, asm.R(isa.EDX), asm.SymIdx(isa.SizeD, "hist", isa.EAX, 4, -4))
	b.I(isa.MOV, asm.SymIdx(isa.SizeD, "hist", isa.EAX, 4, 0), asm.R(isa.EDX))
	b.I(isa.DEC, asm.R(isa.EAX))
	b.J(isa.JNE, "shift")
	b.I(isa.MOV, asm.R(isa.EDX), asm.SymIdx(isa.SizeD, "in", isa.EBP, 4, 0))
	b.I(isa.MOV, asm.Sym(isa.SizeD, "hist", 0), asm.R(isa.EDX))
	// MAC.
	b.I(isa.FLDC, asm.R(isa.FP0), asm.Imm(0))
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(0))
	b.Label("mac")
	b.I(isa.FLD, asm.R(isa.FP1), asm.SymIdx(isa.SizeD, "hist", isa.EAX, 4, 0))
	b.I(isa.FMUL, asm.R(isa.FP1), asm.SymIdx(isa.SizeD, "coef", isa.EAX, 4, 0))
	b.I(isa.FADD, asm.R(isa.FP0), asm.R(isa.FP1))
	b.I(isa.INC, asm.R(isa.EAX))
	b.I(isa.CMP, asm.R(isa.EAX), asm.Imm(firTaps))
	b.J(isa.JL, "mac")
	b.I(isa.FST, asm.SymIdx(isa.SizeD, "out", isa.EBP, 4, 0), asm.R(isa.FP0))
	b.I(isa.INC, asm.R(isa.EBP))
	b.I(isa.CMP, asm.R(isa.EBP), asm.Imm(firSamples))
	b.J(isa.JL, "sample")
	b.I(isa.PROFOFF)
	b.I(isa.HALT)
	return b.Link()
}

// buildFirFP: the application loop calls the optimized FP library once per
// sample (identical arithmetic, library call overhead added).
func buildFirFP() (*asm.Program, error) {
	b := asm.NewBuilder("fir.fp")
	w := firData()
	fplib.EmitFirF32(b)
	b.Floats("coef", w.coef32)
	b.Floats("in", w.in32)
	b.Floats("hist", make([]float32, firTaps))
	b.Reserve("out", 4*firSamples)

	b.Entry()
	b.Proc("main")
	b.I(isa.PROFON)
	b.I(isa.MOV, asm.R(isa.EBP), asm.Imm(0))
	b.Label("sample")
	b.I(isa.MOV, asm.R(isa.EAX), asm.SymIdx(isa.SizeD, "in", isa.EBP, 4, 0))
	b.I(isa.PUSH, asm.R(isa.EBP))
	emit.Call(b, "fpFir", asm.ImmSym("hist", 0), asm.ImmSym("coef", 0),
		asm.Imm(firTaps), asm.R(isa.EAX))
	b.I(isa.POP, asm.R(isa.EBP))
	b.I(isa.FST, asm.SymIdx(isa.SizeD, "out", isa.EBP, 4, 0), asm.R(isa.FP0))
	b.I(isa.INC, asm.R(isa.EBP))
	b.I(isa.CMP, asm.R(isa.EBP), asm.Imm(firSamples))
	b.J(isa.JL, "sample")
	b.I(isa.PROFOFF)
	b.I(isa.HALT)
	return b.Link()
}

// buildFirMMX: the application data stays float32 (as in the paper's C
// applications), so every sample pays the library-format conversion both
// ways plus an emms before returning to x87 — exactly the per-call
// overhead §4.1 describes for fir.mmx.
func buildFirMMX() (*asm.Program, error) {
	b := asm.NewBuilder("fir.mmx")
	w := firData()
	mmxlib.EmitFirQ15(b)
	b.Floats("in", w.in32)
	b.Words("coefq", w.coefQ)
	b.Words("histq", make([]int16, firPadded))
	b.Words("xq", make([]int16, 4))
	b.Floats("scale", []float32{32768, 1.0 / 32768})
	b.Reserve("out", 4*firSamples)

	b.Entry()
	b.Proc("main")
	b.I(isa.PROFON)
	b.I(isa.MOV, asm.R(isa.EBP), asm.Imm(0))
	b.Label("sample")
	// Format: quantize the float sample to Q15 for the library.
	b.I(isa.FLD, asm.R(isa.FP0), asm.SymIdx(isa.SizeD, "in", isa.EBP, 4, 0))
	b.I(isa.FMUL, asm.R(isa.FP0), asm.Sym(isa.SizeD, "scale", 0))
	b.I(isa.FIST, asm.Sym(isa.SizeW, "xq", 0), asm.R(isa.FP0))
	b.I(isa.MOVSXW, asm.R(isa.EAX), asm.Sym(isa.SizeW, "xq", 0))
	b.I(isa.PUSH, asm.R(isa.EBP))
	emit.Call(b, "nsFir", asm.ImmSym("histq", 0), asm.ImmSym("coefq", 0),
		asm.Imm(firPadded), asm.R(isa.EAX))
	b.I(isa.POP, asm.R(isa.EBP))
	// Back-format: Q15 result to float32 output.
	b.I(isa.MOV, asm.Sym(isa.SizeW, "xq", 2), asm.R(isa.EAX))
	b.I(isa.EMMS) // leave MMX before x87 use: up to 50 cycles, every sample
	b.I(isa.FILD, asm.R(isa.FP0), asm.Sym(isa.SizeW, "xq", 2))
	b.I(isa.FMUL, asm.R(isa.FP0), asm.Sym(isa.SizeD, "scale", 4))
	b.I(isa.FST, asm.SymIdx(isa.SizeD, "out", isa.EBP, 4, 0), asm.R(isa.FP0))
	b.I(isa.INC, asm.R(isa.EBP))
	b.I(isa.CMP, asm.R(isa.EBP), asm.Imm(firSamples))
	b.J(isa.JL, "sample")
	b.I(isa.PROFOFF)
	b.I(isa.HALT)
	return b.Link()
}
