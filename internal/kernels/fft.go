package kernels

import (
	"math"
	"sync"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/core"
	"mmxdsp/internal/emit"
	"mmxdsp/internal/fplib"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/mmxlib"
	"mmxdsp/internal/synth"
	"mmxdsp/internal/vm"
)

// Paper workload: "4096 point, in-place FFT". The non-MMX versions compute
// in 32-bit floating point; the MMX version takes 16-bit fixed-point data
// and internally converts to float (the hybrid strategy of the SPL 4.0
// library the paper dissects in §4.1).
const fftN = 4096

type fftWorkload struct {
	re32, im32 []float32
	reQ, imQ   []int16
}

// fftData is the FFT workload, synthesized once per process. Builds and
// checks only read it.
var fftData = sync.OnceValue(func() fftWorkload {
	sig := synth.MultiTone(fftN, 0xFF7, 0.05, 0.17, 0.31)
	w := fftWorkload{
		re32: make([]float32, fftN),
		im32: make([]float32, fftN),
	}
	for i, v := range sig {
		w.re32[i] = float32(0.5 * v)
	}
	w.reQ = make([]int16, fftN)
	w.imQ = make([]int16, fftN)
	for i := range w.re32 {
		w.reQ[i] = synth.ToQ15([]float64{float64(w.re32[i])})[0]
	}
	return w
})

// runtimeTwiddles mirrors fft.c's in-region table initialization with
// fsin/fcos.
func runtimeTwiddles(n int) (cos, sin []float32) {
	cos = make([]float32, n/2)
	sin = make([]float32, n/2)
	c := -2 * math.Pi / float64(n)
	for k := 0; k < n/2; k++ {
		ang := float64(k) * c
		cos[k] = float32(math.Cos(ang))
		sin[k] = float32(math.Sin(ang))
	}
	return cos, sin
}

// fftCExpected, fftFPExpected and fftMMXExpected are the reference
// spectra of the three versions, each computed once per process.
var (
	fftCExpected = sync.OnceValues(func() (re, im []float32) {
		cos, sin := runtimeTwiddles(fftN)
		return fftFloatModel(cos, sin)
	})
	fftFPExpected = sync.OnceValues(func() (re, im []float32) {
		return fftFloatModel(fplib.TwiddleTablesF32(fftN))
	})
	fftMMXExpected = sync.OnceValues(func() (re, im []int16) {
		w := fftData()
		reF := make([]float32, fftN)
		imF := make([]float32, fftN)
		for i := range w.reQ {
			reF[i] = float32(w.reQ[i])
			imF[i] = float32(w.imQ[i])
		}
		cos, sin := fplib.TwiddleTablesF32(fftN)
		fplib.ModelFftF32(reF, imF, cos, sin, false)
		re = make([]int16, fftN)
		im = make([]int16, fftN)
		inv := float64(float32(1.0 / fftN))
		for i := range reF {
			re[i] = fistRound(float64(reF[i]) * inv)
			im[i] = fistRound(float64(imF[i]) * inv)
		}
		return re, im
	})
)

// fftFloatModel transforms a copy of the float32 input with the given
// twiddles.
func fftFloatModel(cos, sin []float32) (re, im []float32) {
	w := fftData()
	re = append([]float32{}, w.re32...)
	im = append([]float32{}, w.im32...)
	fplib.ModelFftF32(re, im, cos, sin, true)
	return re, im
}

func fistRound(v float64) int16 {
	r := math.RoundToEven(v)
	if r > 32767 {
		return 32767
	}
	if r < -32768 {
		return -32768
	}
	return int16(r)
}

// checkFFT compares the program's spectrum with the reference's.
func checkFFT[T int16 | float32](c *vm.CPU, expected func() (re, im []T), context string) error {
	re, im := expected()
	if err := core.Expect(c, "re", re, 0, context); err != nil {
		return err
	}
	return core.Expect(c, "im", im, 0, context)
}

// FFT returns the fft.c, fft.fp and fft.mmx benchmarks.
func FFT() []core.Benchmark {
	descr := "4096-point in-place radix-2 FFT"
	return []core.Benchmark{
		{
			Base: "fft", Version: core.VersionC, Kind: core.KindKernel, Descr: descr,
			Build: buildFftC,
			Check: func(c *vm.CPU) error { return checkFFT(c, fftCExpected, "fft.c") },
		},
		{
			Base: "fft", Version: core.VersionFP, Kind: core.KindKernel, Descr: descr,
			Build: buildFftFP,
			Check: func(c *vm.CPU) error { return checkFFT(c, fftFPExpected, "fft.fp") },
		},
		{
			Base: "fft", Version: core.VersionMMX, Kind: core.KindKernel, Descr: descr,
			Build: buildFftMMX,
			Check: func(c *vm.CPU) error { return checkFFT(c, fftMMXExpected, "fft.mmx") },
		},
	}
}

// buildFftC: compiled C — the butterfly core is the compiler-with-trig
// preset: memory temporaries, unhoisted division, and fsin/fcos twiddle
// computation at the top of every stage (the textbook C FFT's loop
// structure; the twiddle values match runtimeTwiddles exactly).
func buildFftC() (*asm.Program, error) {
	b := asm.NewBuilder("fft.c")
	w := fftData()
	fplib.EmitFftCore(b, "fft_core", fplib.PresetCompiledTrig())
	b.Floats("re", w.re32)
	b.Floats("im", w.im32)
	b.Reserve("cos", 4*fftN/2)
	b.Reserve("sin", 4*fftN/2)
	b.Dwords("br", fplib.BitReverseSwaps(fftN))
	swaps := len(fplib.BitReverseSwaps(fftN)) / 2

	b.Entry()
	b.Proc("main")
	b.I(isa.PROFON)
	emit.Call(b, "fft_core", asm.ImmSym("re", 0), asm.ImmSym("im", 0), asm.Imm(fftN),
		asm.ImmSym("cos", 0), asm.ImmSym("sin", 0), asm.ImmSym("br", 0),
		asm.Imm(int64(swaps)))
	b.I(isa.PROFOFF)
	b.I(isa.HALT)
	return b.Link()
}

// buildFftFP: precomputed tables, FP library core.
func buildFftFP() (*asm.Program, error) {
	b := asm.NewBuilder("fft.fp")
	w := fftData()
	fplib.EmitFftF32(b)
	cos, sin := fplib.TwiddleTablesF32(fftN)
	swaps := fplib.BitReverseSwaps(fftN)
	b.Floats("re", w.re32)
	b.Floats("im", w.im32)
	b.Floats("cos", cos)
	b.Floats("sin", sin)
	b.Dwords("br", swaps)

	b.Entry()
	b.Proc("main")
	b.I(isa.PROFON)
	emit.Call(b, "fpFft", asm.ImmSym("re", 0), asm.ImmSym("im", 0), asm.Imm(fftN),
		asm.ImmSym("cos", 0), asm.ImmSym("sin", 0), asm.ImmSym("br", 0),
		asm.Imm(int64(len(swaps)/2)))
	b.I(isa.PROFOFF)
	b.I(isa.HALT)
	return b.Link()
}

// buildFftMMX: Q15 data through the hybrid MMX library FFT.
func buildFftMMX() (*asm.Program, error) {
	b := asm.NewBuilder("fft.mmx")
	w := fftData()
	mmxlib.EmitCvtI16ToF32(b)
	mmxlib.EmitCvtF32ToI16(b)
	mmxlib.EmitFftHybrid(b)
	fplib.EmitFftCore(b, "fftCoreFast", fplib.PresetFast())
	mmxlib.CvtScratch(b)
	cos, sin := fplib.TwiddleTablesF32(fftN)
	swaps := fplib.BitReverseSwaps(fftN)
	b.Words("re", w.reQ)
	b.Words("im", w.imQ)
	b.Reserve("reF", 4*fftN)
	b.Reserve("imF", 4*fftN)
	b.Reserve("stage", 4*fftN)
	b.Floats("cos", cos)
	b.Floats("sin", sin)
	b.Dwords("br", swaps)

	b.Entry()
	b.Proc("main")
	b.I(isa.PROFON)
	emit.Call(b, "nsFft",
		asm.ImmSym("re", 0), asm.ImmSym("im", 0), asm.Imm(fftN),
		asm.ImmSym("reF", 0), asm.ImmSym("imF", 0),
		asm.ImmSym("cos", 0), asm.ImmSym("sin", 0),
		asm.ImmSym("br", 0), asm.Imm(int64(len(swaps)/2)),
		asm.Imm(int64(math.Float32bits(1.0/fftN))), asm.ImmSym("stage", 0))
	b.I(isa.PROFOFF)
	b.I(isa.HALT)
	return b.Link()
}
