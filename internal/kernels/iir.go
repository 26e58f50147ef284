package kernels

import (
	"sync"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/core"
	"mmxdsp/internal/dsp"
	"mmxdsp/internal/emit"
	"mmxdsp/internal/fplib"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/mmxlib"
	"mmxdsp/internal/synth"
	"mmxdsp/internal/vm"
)

// Paper workload: "Butterworth, direct form, eighth-order bandpass filter.
// Filter length of eight with 17 coefficients", block filtering with eight
// samples per invocation. Non-MMX versions use 64-bit floating point; the
// MMX version uses 16-bit fixed point (and, as the paper reports, loses
// precision through the feedback path).
const (
	iirOrder    = 4 // biquad order parameter: 2n = 8th order
	iirLo       = 0.1
	iirHi       = 0.2
	iirBlockLen = 8
	iirBlocks   = 512
	iirSamples  = iirBlockLen * iirBlocks
)

// iirWorkload is what the IIR programs place: the float64 coefficients
// and input of the .c and .fp versions, and the Q15 input of the .mmx
// version (which derives its coefficients from b and a).
type iirWorkload struct {
	b, a []float64
	in   []float64
	inQ  []int16
}

// iirData is the IIR workload, synthesized once per process. Builds and
// checks only read it.
var iirData = sync.OnceValue(func() iirWorkload {
	w := iirWorkload{}
	w.b, w.a = dsp.ButterworthBandpass(iirOrder, iirLo, iirHi)
	// Keep the level modest: the paper's 16-bit IIR overflows eventually;
	// a quarter-scale passband tone keeps the comparison meaningful while
	// still exercising the same code path.
	w.in = synth.MultiTone(iirSamples, 0x11B, 0.14, 0.16, 0.05)
	for i := range w.in {
		w.in[i] *= 0.25
	}
	w.inQ = synth.ToQ15(w.in)
	return w
})

// iirFloatExpected mirrors the float64 pipeline (both .c and .fp share
// it), and iirMMXExpected the fixed-point library; each is computed once
// per process.
var (
	iirFloatExpected = sync.OnceValue(func() []float64 {
		w := iirData()
		return dsp.NewIIR(w.b, w.a).ProcessBlock(w.in)
	})
	iirMMXExpected = sync.OnceValue(func() []int16 {
		w := iirData()
		return dsp.NewIIRQ15(w.b, w.a).ProcessBlock(w.inQ)
	})
)

// IIR returns the iir.c, iir.fp and iir.mmx benchmarks.
func IIR() []core.Benchmark {
	descr := "8th-order Butterworth bandpass IIR, 17 coefficients, blocks of 8 samples"
	return []core.Benchmark{
		{
			Base: "iir", Version: core.VersionC, Kind: core.KindKernel, Descr: descr,
			Build: buildIirC,
			Check: func(c *vm.CPU) error {
				return core.Expect(c, "out", iirFloatExpected(), 0, "iir.c")
			},
		},
		{
			Base: "iir", Version: core.VersionFP, Kind: core.KindKernel, Descr: descr,
			Build: buildIirFP,
			Check: func(c *vm.CPU) error {
				return core.Expect(c, "out", iirFloatExpected(), 0, "iir.fp")
			},
		},
		{
			Base: "iir", Version: core.VersionMMX, Kind: core.KindKernel, Descr: descr,
			Build: buildIirMMX,
			Check: func(c *vm.CPU) error {
				return core.Expect(c, "out", iirMMXExpected(), 0, "iir.mmx")
			},
		},
	}
}

// buildIirC: compiled scalar float64 code, one function call per sample
// (the unblocked structure whose call overhead the paper contrasts with
// the MMX version's block processing).
func buildIirC() (*asm.Program, error) {
	b := asm.NewBuilder("iir.c")
	w := iirData()
	nb := len(w.b)     // 9
	na := len(w.a) - 1 // 8
	b.Doubles("bco", w.b)
	b.Doubles("aco", w.a[1:])
	b.Doubles("xh", make([]float64, nb))
	b.Doubles("yh", make([]float64, na))
	b.Doubles("in", w.in)
	b.Doubles("accvar", []float64{0}) // the compiler keeps `acc` in memory
	b.Reserve("out", 8*iirSamples)

	b.Proc("main")
	b.I(isa.PROFON)
	b.I(isa.MOV, asm.R(isa.EBP), asm.Imm(0))
	b.Label("sample")
	b.I(isa.PUSH, asm.R(isa.EBP))
	emit.Call(b, "iir_filter", asm.R(isa.EBP))
	b.I(isa.POP, asm.R(isa.EBP))
	b.I(isa.INC, asm.R(isa.EBP))
	b.I(isa.CMP, asm.R(isa.EBP), asm.Imm(iirSamples))
	b.J(isa.JL, "sample")
	b.I(isa.PROFOFF)
	b.I(isa.HALT)

	// iir_filter(i): out[i] = filter(in[i]); direct form I on float64.
	b.Proc("iir_filter")
	b.I(isa.MOV, asm.R(isa.EBP), emit.Arg(0))
	// Shift x history.
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(int64(nb-1)))
	b.Label("xshift")
	b.I(isa.FLD, asm.R(isa.FP1), asm.SymIdx(isa.SizeQ, "xh", isa.EAX, 8, -8))
	b.I(isa.FST, asm.SymIdx(isa.SizeQ, "xh", isa.EAX, 8, 0), asm.R(isa.FP1))
	b.I(isa.DEC, asm.R(isa.EAX))
	b.J(isa.JNE, "xshift")
	b.I(isa.FLD, asm.R(isa.FP1), asm.SymIdx(isa.SizeQ, "in", isa.EBP, 8, 0))
	b.I(isa.FST, asm.Sym(isa.SizeQ, "xh", 0), asm.R(isa.FP1))
	// acc = sum b*xh - sum a*yh.
	b.I(isa.FLDC, asm.R(isa.FP0), asm.Imm(0))
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(0))
	b.Label("bmac")
	b.I(isa.FLD, asm.R(isa.FP1), asm.SymIdx(isa.SizeQ, "xh", isa.EAX, 8, 0))
	b.I(isa.FMUL, asm.R(isa.FP1), asm.SymIdx(isa.SizeQ, "bco", isa.EAX, 8, 0))
	b.I(isa.FADD, asm.R(isa.FP0), asm.R(isa.FP1))
	// Compiled code round-trips the C accumulator variable through its
	// stack slot every iteration (float64 slot: numerically a no-op).
	b.I(isa.FST, asm.Sym(isa.SizeQ, "accvar", 0), asm.R(isa.FP0))
	b.I(isa.FLD, asm.R(isa.FP0), asm.Sym(isa.SizeQ, "accvar", 0))
	b.I(isa.INC, asm.R(isa.EAX))
	b.I(isa.CMP, asm.R(isa.EAX), asm.Imm(int64(nb)))
	b.J(isa.JL, "bmac")
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(0))
	b.Label("amac")
	b.I(isa.FLD, asm.R(isa.FP1), asm.SymIdx(isa.SizeQ, "yh", isa.EAX, 8, 0))
	b.I(isa.FMUL, asm.R(isa.FP1), asm.SymIdx(isa.SizeQ, "aco", isa.EAX, 8, 0))
	b.I(isa.FSUB, asm.R(isa.FP0), asm.R(isa.FP1))
	b.I(isa.FST, asm.Sym(isa.SizeQ, "accvar", 0), asm.R(isa.FP0))
	b.I(isa.FLD, asm.R(isa.FP0), asm.Sym(isa.SizeQ, "accvar", 0))
	b.I(isa.INC, asm.R(isa.EAX))
	b.I(isa.CMP, asm.R(isa.EAX), asm.Imm(int64(na)))
	b.J(isa.JL, "amac")
	// Shift y history, insert, store output.
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(int64(na-1)))
	b.Label("yshift")
	b.I(isa.FLD, asm.R(isa.FP1), asm.SymIdx(isa.SizeQ, "yh", isa.EAX, 8, -8))
	b.I(isa.FST, asm.SymIdx(isa.SizeQ, "yh", isa.EAX, 8, 0), asm.R(isa.FP1))
	b.I(isa.DEC, asm.R(isa.EAX))
	b.J(isa.JNE, "yshift")
	b.I(isa.FST, asm.Sym(isa.SizeQ, "yh", 0), asm.R(isa.FP0))
	b.I(isa.FST, asm.SymIdx(isa.SizeQ, "out", isa.EBP, 8, 0), asm.R(isa.FP0))
	b.Ret()

	return b.Link()
}

// buildIirFP: the FP library processes blocks of 8 per call.
func buildIirFP() (*asm.Program, error) {
	b := asm.NewBuilder("iir.fp")
	w := iirData()
	nb := len(w.b)
	na := len(w.a) - 1
	fplib.EmitIirBlockF64(b)
	b.Dwords("state", []int32{int32(nb), int32(na)})
	b.Doubles("state.b", w.b)
	b.Doubles("state.a", w.a[1:])
	b.Doubles("state.xh", make([]float64, nb))
	b.Doubles("state.yh", make([]float64, na))
	b.Doubles("in", w.in)
	b.Reserve("out", 8*iirSamples)

	b.Entry()
	b.Proc("main")
	b.I(isa.PROFON)
	b.I(isa.MOV, asm.R(isa.EBP), asm.Imm(0))
	b.Label("blk")
	b.I(isa.MOV, asm.R(isa.EAX), asm.R(isa.EBP))
	b.I(isa.SHL, asm.R(isa.EAX), asm.Imm(6)) // 8 samples * 8 bytes
	b.I(isa.MOV, asm.R(isa.EBX), asm.ImmSym("in", 0))
	b.I(isa.ADD, asm.R(isa.EBX), asm.R(isa.EAX))
	b.I(isa.MOV, asm.R(isa.ECX), asm.ImmSym("out", 0))
	b.I(isa.ADD, asm.R(isa.ECX), asm.R(isa.EAX))
	b.I(isa.PUSH, asm.R(isa.EBP))
	emit.Call(b, "fpIirBlock", asm.ImmSym("state", 0), asm.R(isa.EBX),
		asm.R(isa.ECX), asm.Imm(iirBlockLen))
	b.I(isa.POP, asm.R(isa.EBP))
	b.I(isa.INC, asm.R(isa.EBP))
	b.I(isa.CMP, asm.R(isa.EBP), asm.Imm(iirBlocks))
	b.J(isa.JL, "blk")
	b.I(isa.PROFOFF)
	b.I(isa.HALT)
	return b.Link()
}

// buildIirMMX: the MMX library processes Q15 blocks of 8 per call; the
// data is 16-bit end to end (no conversion overhead), which with the
// SIMD MACs is why iir.mmx is the best-speedup filter kernel in Table 3.
func buildIirMMX() (*asm.Program, error) {
	b := asm.NewBuilder("iir.mmx")
	w := iirData()
	q := dsp.NewIIRQ15(w.b, w.a)
	bq, aq := q.Coefs()
	nbPad := (len(bq) + 3) &^ 3
	naPad := (len(aq) + 3) &^ 3
	bPad := make([]int16, nbPad)
	copy(bPad, bq)
	aPad := make([]int16, naPad)
	copy(aPad, aq)

	mmxlib.EmitIirBlockQ15(b)
	b.Dwords("state", []int32{int32(nbPad), int32(naPad), int32(q.FracBits()),
		int32(1) << (q.FracBits() - 1)})
	b.Words("state.b", bPad)
	b.Words("state.a", aPad)
	b.Words("state.xh", make([]int16, nbPad))
	b.Words("state.yh", make([]int16, naPad))
	b.Words("in", w.inQ)
	b.Reserve("out", 2*iirSamples)

	b.Entry()
	b.Proc("main")
	b.I(isa.PROFON)
	b.I(isa.MOV, asm.R(isa.EBP), asm.Imm(0))
	b.Label("blk")
	b.I(isa.MOV, asm.R(isa.EAX), asm.R(isa.EBP))
	b.I(isa.SHL, asm.R(isa.EAX), asm.Imm(4)) // 8 samples * 2 bytes
	b.I(isa.MOV, asm.R(isa.EBX), asm.ImmSym("in", 0))
	b.I(isa.ADD, asm.R(isa.EBX), asm.R(isa.EAX))
	b.I(isa.MOV, asm.R(isa.ECX), asm.ImmSym("out", 0))
	b.I(isa.ADD, asm.R(isa.ECX), asm.R(isa.EAX))
	b.I(isa.PUSH, asm.R(isa.EBP))
	emit.Call(b, "nsIir", asm.ImmSym("state", 0), asm.R(isa.EBX),
		asm.R(isa.ECX), asm.Imm(iirBlockLen))
	b.I(isa.POP, asm.R(isa.EBP))
	b.I(isa.INC, asm.R(isa.EBP))
	b.I(isa.CMP, asm.R(isa.EBP), asm.Imm(iirBlocks))
	b.J(isa.JL, "blk")
	b.I(isa.EMMS)
	b.I(isa.PROFOFF)
	b.I(isa.HALT)
	return b.Link()
}
