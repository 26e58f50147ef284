package mmxlib

import (
	"math"
	"testing"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/dsp"
	"mmxdsp/internal/emit"
	"mmxdsp/internal/fplib"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/synth"
)

func TestNsFftHybridMatchesFloatFFT(t *testing.T) {
	const n = 128
	sig := synth.ToQ15(scale(synth.MultiTone(n, 23, 0.1, 0.23), 0.5))
	re16 := make([]int16, n)
	im16 := make([]int16, n)
	copy(re16, sig)

	cos, sin := fplib.TwiddleTablesF32(n)
	swaps := fplib.BitReverseSwaps(n)
	scaleBits := int64(math.Float32bits(1.0 / n))

	b := asm.NewBuilder("t")
	EmitCvtI16ToF32(b)
	EmitCvtF32ToI16(b)
	EmitFftHybrid(b)
	fplib.EmitFftCore(b, "fftCoreFast", fplib.PresetFast())
	CvtScratch(b)
	b.Words("re16", re16)
	b.Words("im16", im16)
	b.Reserve("reF", 4*n)
	b.Reserve("imF", 4*n)
	b.Reserve("stage", 4*n)
	b.Floats("cos", cos)
	b.Floats("sin", sin)
	b.Dwords("br", swaps)
	b.Entry()
	b.Proc("main")
	emit.Call(b, "nsFft",
		asm.ImmSym("re16", 0), asm.ImmSym("im16", 0), asm.Imm(n),
		asm.ImmSym("reF", 0), asm.ImmSym("imF", 0),
		asm.ImmSym("cos", 0), asm.ImmSym("sin", 0),
		asm.ImmSym("br", 0), asm.Imm(int64(len(swaps)/2)),
		asm.Imm(scaleBits), asm.ImmSym("stage", 0))
	b.I(isa.HALT)

	c := runProgram(t, b)
	gotRe, _ := c.Mem.ReadInt16s(c.Prog.Addr("re16"), n)
	gotIm, _ := c.Mem.ReadInt16s(c.Prog.Addr("im16"), n)

	wantRe := make([]float64, n)
	wantIm := make([]float64, n)
	for i, v := range sig {
		wantRe[i] = float64(v)
	}
	if err := dsp.FFT(wantRe, wantIm); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		wr := wantRe[k] / n
		wi := wantIm[k] / n
		if math.Abs(float64(gotRe[k])-wr) > 1.0 || math.Abs(float64(gotIm[k])-wi) > 1.0 {
			t.Fatalf("bin %d: vm (%d, %d), ref (%.2f, %.2f)",
				k, gotRe[k], gotIm[k], wr, wi)
		}
	}
	// The hybrid keeps full precision on a scaled tone (paper: order 1e-2
	// relative); check the peak bin is right and large.
	ps := make([]float64, n/2)
	for k := range ps {
		ps[k] = float64(gotRe[k])*float64(gotRe[k]) + float64(gotIm[k])*float64(gotIm[k])
	}
	if ps[dsp.PeakIndex(ps[1:])+1] == 0 {
		t.Error("spectrum empty")
	}
}
