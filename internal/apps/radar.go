package apps

import (
	"fmt"
	"math"
	"sync"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/core"
	"mmxdsp/internal/emit"
	"mmxdsp/internal/fixed"
	"mmxdsp/internal/fplib"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/mmxlib"
	"mmxdsp/internal/synth"
	"mmxdsp/internal/vm"
)

// Paper workload: "Subtracts successive complex echo signals to remove
// stationary targets from a radar signal and estimates the power spectrum
// of the resulting samples. The dominant frequency is then estimated using
// the peak of the FFT spectrum. The input is complex and represents 12
// range locations from each echo. The FFT is a 16-point, in-place,
// radix-2, decimation-in-time FFT."
const (
	radGates   = 12
	radFFT     = 16
	radPulses  = radFFT + 1
	radBatches = 96
)

// radarWorkload holds the per-batch echo planes. Layout per batch:
// re[pulse][gate] flattened pulse-major, and the same for im.
type radarWorkload struct {
	// float32 planes for the .c version, Q15 planes for the .mmx version:
	// all derived from the same float echoes.
	reF, imF []float32 // radBatches * radPulses * radGates
	reQ, imQ []int16
	targets  []int // expected target gate per batch
	dopplers []int // expected Doppler bin per batch
}

// radarData is the radar workload, synthesized once per process. Builds
// and checks only read it.
var radarData = sync.OnceValue(func() radarWorkload {
	w := radarWorkload{}
	n := radBatches * radPulses * radGates
	w.reF = make([]float32, n)
	w.imF = make([]float32, n)
	w.reQ = make([]int16, n)
	w.imQ = make([]int16, n)
	for batch := 0; batch < radBatches; batch++ {
		target := batch % radGates
		bin := 1 + batch%7 // Doppler bins 1..7
		p := synth.RadarParams{
			Gates:  radGates,
			Pulses: radPulses,
			Target: target,
			// Positive Doppler aligned to an FFT bin.
			Doppler: float64(bin) / radFFT,
			Clutter: 0.55,
			Seed:    0xADA7 + uint64(batch)*977,
		}
		re, im := synth.RadarEchoes(p)
		base := batch * radPulses * radGates
		for n := 0; n < radPulses; n++ {
			for g := 0; g < radGates; g++ {
				i := base + n*radGates + g
				w.reF[i] = float32(re[n][g])
				w.imF[i] = float32(im[n][g])
				w.reQ[i] = fixed.ToQ15(re[n][g] * 0.5)
				w.imQ[i] = fixed.ToQ15(im[n][g] * 0.5)
			}
		}
		w.targets = append(w.targets, target)
		w.dopplers = append(w.dopplers, bin)
	}
	return w
})

// Radar returns the radar.c and radar.mmx benchmarks.
func Radar() []core.Benchmark {
	descr := "Doppler radar: MTI cancellation, 16-pt FFT power spectrum, peak pick, 12 gates"
	return []core.Benchmark{
		{
			Base: "radar", Version: core.VersionC, Kind: core.KindApplication, Descr: descr,
			Build: buildRadarC,
			Check: func(c *vm.CPU) error { return checkRadar(c, radarCExpected, "radar.c") },
		},
		{
			Base: "radar", Version: core.VersionMMX, Kind: core.KindApplication, Descr: descr,
			Build: buildRadarMMX,
			Check: func(c *vm.CPU) error { return checkRadar(c, radarMMXExpected, "radar.mmx") },
		},
	}
}

// --- C version -------------------------------------------------------------

// radarCExpected mirrors radar.c: float32 MTI subtraction, compiled-style
// float32 FFT, float32 power spectrum, strict-greater peak scan. It holds
// the peak bin per (batch, gate) and the strongest gate per batch, and is
// computed once per process.
var radarCExpected = sync.OnceValues(func() (bins []int32, strong []int32) {
	w := radarData()
	cos, sin := fplib.TwiddleTablesF32(radFFT)
	bins = make([]int32, radBatches*radGates)
	strong = make([]int32, radBatches)
	for batch := 0; batch < radBatches; batch++ {
		base := batch * radPulses * radGates
		var bestPow float64
		bestGate := 0
		for g := 0; g < radGates; g++ {
			re := make([]float32, radFFT)
			im := make([]float32, radFFT)
			for n := 0; n < radFFT; n++ {
				i := base + n*radGates + g
				j := base + (n+1)*radGates + g
				re[n] = float32(float64(w.reF[j]) - float64(w.reF[i]))
				im[n] = float32(float64(w.imF[j]) - float64(w.imF[i]))
			}
			fplib.ModelFftF32(re, im, cos, sin, true)
			best := 0
			var bestV float64
			for k := 0; k < radFFT; k++ {
				p := float64(float32(float64(re[k])*float64(re[k]) + float64(im[k])*float64(im[k])))
				if p > bestV {
					bestV = p
					best = k
				}
			}
			bins[batch*radGates+g] = int32(best)
			if bestV > bestPow {
				bestPow = bestV
				bestGate = g
			}
		}
		strong[batch] = int32(bestGate)
	}
	return bins, strong
})

func buildRadarC() (*asm.Program, error) {
	b := asm.NewBuilder("radar.c")
	w := radarData()
	fplib.EmitFftCore(b, "fft16", fplib.PresetCompiled())
	cos, sin := fplib.TwiddleTablesF32(radFFT)
	swaps := fplib.BitReverseSwaps(radFFT)
	b.Floats("echoRe", w.reF)
	b.Floats("echoIm", w.imF)
	b.Floats("cos", cos)
	b.Floats("sin", sin)
	b.Dwords("br", swaps)
	b.Floats("bufRe", make([]float32, radFFT))
	b.Floats("bufIm", make([]float32, radFFT))
	b.Floats("pow", make([]float32, radFFT))
	b.Floats("bestPow", []float32{0})
	b.Dwords("bestGate", []int32{0})
	b.Reserve("bins", 4*radBatches*radGates)
	b.Reserve("strong", 4*radBatches)
	b.Dwords("batch", []int32{0})
	b.Dwords("gate", []int32{0})

	const strideP = 4 * radGates             // bytes per pulse row
	const strideB = 4 * radPulses * radGates // bytes per batch

	b.Entry()
	b.Proc("main")
	b.I(isa.PROFON)
	b.I(isa.MOV, asm.Sym(isa.SizeD, "batch", 0), asm.Imm(0))
	b.Label("batchloop")
	b.I(isa.FLDC, asm.R(isa.FP6), asm.Imm(0)) // best power this batch
	b.I(isa.FST, asm.Sym(isa.SizeD, "bestPow", 0), asm.R(isa.FP6))
	b.I(isa.MOV, asm.Sym(isa.SizeD, "gate", 0), asm.Imm(0))

	b.Label("gateloop")
	// esi = &echo[batch][0][gate] (byte offset).
	b.I(isa.MOV, asm.R(isa.EAX), asm.Sym(isa.SizeD, "batch", 0))
	b.I(isa.IMUL, asm.R(isa.EAX), asm.Imm(strideB))
	b.I(isa.MOV, asm.R(isa.ECX), asm.Sym(isa.SizeD, "gate", 0))
	b.I(isa.LEA, asm.R(isa.ESI), asm.MemIdx(isa.SizeD, isa.EAX, isa.ECX, 4, 0))

	// MTI: buf[n] = echo[n+1][g] - echo[n][g], n = 0..15.
	b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(0))
	b.Label("mti")
	b.I(isa.MOV, asm.R(isa.EAX), asm.R(isa.ECX))
	b.I(isa.IMUL, asm.R(isa.EAX), asm.Imm(strideP))
	b.I(isa.ADD, asm.R(isa.EAX), asm.R(isa.ESI))
	b.I(isa.FLD, asm.R(isa.FP0), asm.SymIdx(isa.SizeD, "echoRe", isa.EAX, 1, strideP))
	b.I(isa.FSUB, asm.R(isa.FP0), asm.SymIdx(isa.SizeD, "echoRe", isa.EAX, 1, 0))
	b.I(isa.FST, asm.SymIdx(isa.SizeD, "bufRe", isa.ECX, 4, 0), asm.R(isa.FP0))
	b.I(isa.FLD, asm.R(isa.FP0), asm.SymIdx(isa.SizeD, "echoIm", isa.EAX, 1, strideP))
	b.I(isa.FSUB, asm.R(isa.FP0), asm.SymIdx(isa.SizeD, "echoIm", isa.EAX, 1, 0))
	b.I(isa.FST, asm.SymIdx(isa.SizeD, "bufIm", isa.ECX, 4, 0), asm.R(isa.FP0))
	b.I(isa.INC, asm.R(isa.ECX))
	b.I(isa.CMP, asm.R(isa.ECX), asm.Imm(radFFT))
	b.J(isa.JL, "mti")

	emit.Call(b, "fft16", asm.ImmSym("bufRe", 0), asm.ImmSym("bufIm", 0),
		asm.Imm(radFFT), asm.ImmSym("cos", 0), asm.ImmSym("sin", 0),
		asm.ImmSym("br", 0), asm.Imm(int64(len(swaps)/2)))

	// Power spectrum and peak scan.
	b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(0))
	b.Label("power")
	b.I(isa.FLD, asm.R(isa.FP0), asm.SymIdx(isa.SizeD, "bufRe", isa.ECX, 4, 0))
	b.I(isa.FMUL, asm.R(isa.FP0), asm.R(isa.FP0))
	b.I(isa.FLD, asm.R(isa.FP1), asm.SymIdx(isa.SizeD, "bufIm", isa.ECX, 4, 0))
	b.I(isa.FMUL, asm.R(isa.FP1), asm.R(isa.FP1))
	b.I(isa.FADD, asm.R(isa.FP0), asm.R(isa.FP1))
	b.I(isa.FST, asm.SymIdx(isa.SizeD, "pow", isa.ECX, 4, 0), asm.R(isa.FP0))
	b.I(isa.INC, asm.R(isa.ECX))
	b.I(isa.CMP, asm.R(isa.ECX), asm.Imm(radFFT))
	b.J(isa.JL, "power")

	b.I(isa.MOV, asm.R(isa.EBX), asm.Imm(0)) // best bin
	b.I(isa.FLDC, asm.R(isa.FP2), asm.Imm(0))
	b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(0))
	b.Label("peak")
	b.I(isa.FLD, asm.R(isa.FP0), asm.SymIdx(isa.SizeD, "pow", isa.ECX, 4, 0))
	b.I(isa.FCOM, asm.R(isa.FP0), asm.R(isa.FP2))
	b.J(isa.JBE, "notbigger")
	b.I(isa.FLD, asm.R(isa.FP2), asm.R(isa.FP0))
	b.I(isa.MOV, asm.R(isa.EBX), asm.R(isa.ECX))
	b.Label("notbigger")
	b.I(isa.INC, asm.R(isa.ECX))
	b.I(isa.CMP, asm.R(isa.ECX), asm.Imm(radFFT))
	b.J(isa.JL, "peak")

	// bins[batch*gates + gate] = best bin.
	b.I(isa.MOV, asm.R(isa.EAX), asm.Sym(isa.SizeD, "batch", 0))
	b.I(isa.IMUL, asm.R(isa.EAX), asm.Imm(radGates))
	b.I(isa.ADD, asm.R(isa.EAX), asm.Sym(isa.SizeD, "gate", 0))
	b.I(isa.MOV, asm.SymIdx(isa.SizeD, "bins", isa.EAX, 4, 0), asm.R(isa.EBX))

	// Track the strongest gate for this batch.
	b.I(isa.FLD, asm.R(isa.FP1), asm.Sym(isa.SizeD, "bestPow", 0))
	b.I(isa.FCOM, asm.R(isa.FP2), asm.R(isa.FP1))
	b.J(isa.JBE, "notstrong")
	b.I(isa.FST, asm.Sym(isa.SizeD, "bestPow", 0), asm.R(isa.FP2))
	b.I(isa.MOV, asm.R(isa.EAX), asm.Sym(isa.SizeD, "gate", 0))
	b.I(isa.MOV, asm.Sym(isa.SizeD, "bestGate", 0), asm.R(isa.EAX))
	b.Label("notstrong")

	b.I(isa.MOV, asm.R(isa.EAX), asm.Sym(isa.SizeD, "gate", 0))
	b.I(isa.INC, asm.R(isa.EAX))
	b.I(isa.MOV, asm.Sym(isa.SizeD, "gate", 0), asm.R(isa.EAX))
	b.I(isa.CMP, asm.R(isa.EAX), asm.Imm(radGates))
	b.J(isa.JL, "gateloop")

	b.I(isa.MOV, asm.R(isa.EAX), asm.Sym(isa.SizeD, "bestGate", 0))
	b.I(isa.MOV, asm.R(isa.ECX), asm.Sym(isa.SizeD, "batch", 0))
	b.I(isa.MOV, asm.SymIdx(isa.SizeD, "strong", isa.ECX, 4, 0), asm.R(isa.EAX))
	b.I(isa.INC, asm.R(isa.ECX))
	b.I(isa.MOV, asm.Sym(isa.SizeD, "batch", 0), asm.R(isa.ECX))
	b.I(isa.CMP, asm.R(isa.ECX), asm.Imm(radBatches))
	b.J(isa.JL, "batchloop")

	b.I(isa.PROFOFF)
	b.I(isa.HALT)
	return b.Link()
}

// --- MMX version ------------------------------------------------------------

// radarMMXExpected mirrors radar.mmx: Q15 gather, saturating vector
// subtract, hybrid library FFT (float core, fist back-conversion with 1/16
// scale), truncating Q15 power, strict-greater peak scan on int16 power.
// It is computed once per process.
var radarMMXExpected = sync.OnceValues(func() (bins []int32, strong []int32) {
	w := radarData()
	cos, sin := fplib.TwiddleTablesF32(radFFT)
	bins = make([]int32, radBatches*radGates)
	strong = make([]int32, radBatches)
	inv := float64(float32(1.0 / radFFT))
	for batch := 0; batch < radBatches; batch++ {
		base := batch * radPulses * radGates
		var bestPow int32 = -1
		bestGate := 0
		for g := 0; g < radGates; g++ {
			subRe := make([]int16, radFFT)
			subIm := make([]int16, radFFT)
			for n := 0; n < radFFT; n++ {
				i := base + n*radGates + g
				j := base + (n+1)*radGates + g
				subRe[n] = fixed.SatW(int32(w.reQ[j]) - int32(w.reQ[i]))
				subIm[n] = fixed.SatW(int32(w.imQ[j]) - int32(w.imQ[i]))
			}
			// Hybrid FFT model.
			reF := make([]float32, radFFT)
			imF := make([]float32, radFFT)
			for n := 0; n < radFFT; n++ {
				reF[n] = float32(subRe[n])
				imF[n] = float32(subIm[n])
			}
			fplib.ModelFftF32(reF, imF, cos, sin, false)
			var best int32
			var bestV int32 = -1
			for k := 0; k < radFFT; k++ {
				rq := fistRound16(float64(reF[k]) * inv)
				iq := fistRound16(float64(imF[k]) * inv)
				rr := fixed.MulQ15Trunc(rq, rq)
				ii := fixed.MulQ15Trunc(iq, iq)
				p := int32(fixed.SatW(int32(rr) + int32(ii)))
				if p > bestV {
					bestV = p
					best = int32(k)
				}
			}
			bins[batch*radGates+g] = best
			if bestV > bestPow {
				bestPow = bestV
				bestGate = g
			}
		}
		strong[batch] = int32(bestGate)
	}
	return bins, strong
})

func fistRound16(v float64) int16 {
	r := math.RoundToEven(v)
	if r > 32767 {
		return 32767
	}
	if r < -32768 {
		return -32768
	}
	return int16(r)
}

// checkRadar compares the program's peak bins and strongest gates with
// the reference's, and holds them to the physics: the paper reports
// "little measured change in the output precision" between versions, so
// both must find the planted target gate and Doppler bin of every batch.
func checkRadar(c *vm.CPU, expected func() (bins, strong []int32), context string) error {
	bins, strong := expected()
	if err := core.Expect(c, "bins", bins, 0, context); err != nil {
		return err
	}
	if err := core.Expect(c, "strong", strong, 0, context); err != nil {
		return err
	}
	w := radarData()
	for batch := 0; batch < radBatches; batch++ {
		if int(strong[batch]) != w.targets[batch] {
			return fmt.Errorf("%s: batch %d strongest gate %d, planted %d",
				context, batch, strong[batch], w.targets[batch])
		}
		g := w.targets[batch]
		if int(bins[batch*radGates+g]) != w.dopplers[batch] {
			return fmt.Errorf("%s: batch %d doppler bin %d, planted %d",
				context, batch, bins[batch*radGates+g], w.dopplers[batch])
		}
	}
	return nil
}

func buildRadarMMX() (*asm.Program, error) {
	b := asm.NewBuilder("radar.mmx")
	w := radarData()
	mmxlib.EmitVecSub16(b)
	mmxlib.EmitVecMul16(b)
	mmxlib.EmitVecAdd16(b)
	mmxlib.EmitCvtI16ToF32(b)
	mmxlib.EmitCvtF32ToI16(b)
	mmxlib.EmitFftHybrid(b)
	fplib.EmitFftCore(b, "fftCoreFast", fplib.PresetFast())
	mmxlib.CvtScratch(b)

	cos, sin := fplib.TwiddleTablesF32(radFFT)
	swaps := fplib.BitReverseSwaps(radFFT)
	b.Words("echoRe", w.reQ)
	b.Words("echoIm", w.imQ)
	b.Floats("cos", cos)
	b.Floats("sin", sin)
	b.Dwords("br", swaps)
	// Library-format staging buffers: the echo data is strided by gate, so
	// every call needs a gather into contiguous vectors first — the
	// "preformatting the data" overhead of §4.2.
	for _, sym := range []string{"curRe", "curIm", "prvRe", "prvIm",
		"subRe", "subIm", "re2", "im2", "pow"} {
		b.Words(sym, make([]int16, radFFT))
	}
	b.Reserve("reF", 4*radFFT)
	b.Reserve("imF", 4*radFFT)
	b.Reserve("stage", 4*radFFT)
	b.Reserve("bins", 4*radBatches*radGates)
	b.Reserve("strong", 4*radBatches)
	b.Dwords("batch", []int32{0})
	b.Dwords("gate", []int32{0})
	b.Dwords("bestPow", []int32{-1})
	b.Dwords("bestGate", []int32{0})

	const strideP = 2 * radGates
	const strideB = 2 * radPulses * radGates

	b.Entry()
	b.Proc("main")
	b.I(isa.PROFON)
	b.I(isa.MOV, asm.Sym(isa.SizeD, "batch", 0), asm.Imm(0))
	b.Label("batchloop")
	b.I(isa.MOV, asm.Sym(isa.SizeD, "bestPow", 0), asm.Imm(-1))
	b.I(isa.MOV, asm.Sym(isa.SizeD, "gate", 0), asm.Imm(0))

	b.Label("gateloop")
	// esi = byte offset of echo[batch][0][gate].
	b.I(isa.MOV, asm.R(isa.EAX), asm.Sym(isa.SizeD, "batch", 0))
	b.I(isa.IMUL, asm.R(isa.EAX), asm.Imm(strideB))
	b.I(isa.MOV, asm.R(isa.ECX), asm.Sym(isa.SizeD, "gate", 0))
	b.I(isa.LEA, asm.R(isa.ESI), asm.MemIdx(isa.SizeD, isa.EAX, isa.ECX, 2, 0))

	// Gather strided samples into the contiguous library buffers.
	b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(0))
	b.I(isa.MOV, asm.R(isa.EDI), asm.R(isa.ESI))
	b.Label("gather")
	b.I(isa.MOVZXW, asm.R(isa.EAX), asm.SymIdx(isa.SizeW, "echoRe", isa.EDI, 1, 0))
	b.I(isa.MOV, asm.SymIdx(isa.SizeW, "prvRe", isa.ECX, 2, 0), asm.R(isa.EAX))
	b.I(isa.MOVZXW, asm.R(isa.EAX), asm.SymIdx(isa.SizeW, "echoRe", isa.EDI, 1, strideP))
	b.I(isa.MOV, asm.SymIdx(isa.SizeW, "curRe", isa.ECX, 2, 0), asm.R(isa.EAX))
	b.I(isa.MOVZXW, asm.R(isa.EAX), asm.SymIdx(isa.SizeW, "echoIm", isa.EDI, 1, 0))
	b.I(isa.MOV, asm.SymIdx(isa.SizeW, "prvIm", isa.ECX, 2, 0), asm.R(isa.EAX))
	b.I(isa.MOVZXW, asm.R(isa.EAX), asm.SymIdx(isa.SizeW, "echoIm", isa.EDI, 1, strideP))
	b.I(isa.MOV, asm.SymIdx(isa.SizeW, "curIm", isa.ECX, 2, 0), asm.R(isa.EAX))
	b.I(isa.ADD, asm.R(isa.EDI), asm.Imm(strideP))
	b.I(isa.INC, asm.R(isa.ECX))
	b.I(isa.CMP, asm.R(isa.ECX), asm.Imm(radFFT))
	b.J(isa.JL, "gather")

	// MTI cancellation and power spectrum through the vector library.
	emit.Call(b, "nsVecSub16", asm.ImmSym("subRe", 0), asm.ImmSym("curRe", 0),
		asm.ImmSym("prvRe", 0), asm.Imm(radFFT))
	emit.Call(b, "nsVecSub16", asm.ImmSym("subIm", 0), asm.ImmSym("curIm", 0),
		asm.ImmSym("prvIm", 0), asm.Imm(radFFT))
	b.I(isa.EMMS)
	emit.Call(b, "nsFft",
		asm.ImmSym("subRe", 0), asm.ImmSym("subIm", 0), asm.Imm(radFFT),
		asm.ImmSym("reF", 0), asm.ImmSym("imF", 0),
		asm.ImmSym("cos", 0), asm.ImmSym("sin", 0),
		asm.ImmSym("br", 0), asm.Imm(int64(len(swaps)/2)),
		asm.Imm(int64(math.Float32bits(1.0/radFFT))), asm.ImmSym("stage", 0))
	emit.Call(b, "nsVecMul16", asm.ImmSym("re2", 0), asm.ImmSym("subRe", 0),
		asm.ImmSym("subRe", 0), asm.Imm(radFFT))
	emit.Call(b, "nsVecMul16", asm.ImmSym("im2", 0), asm.ImmSym("subIm", 0),
		asm.ImmSym("subIm", 0), asm.Imm(radFFT))
	emit.Call(b, "nsVecAdd16", asm.ImmSym("pow", 0), asm.ImmSym("re2", 0),
		asm.ImmSym("im2", 0), asm.Imm(radFFT))
	b.I(isa.EMMS)

	// Peak scan on the Q15 power spectrum.
	b.I(isa.MOV, asm.R(isa.EBX), asm.Imm(0))
	b.I(isa.MOV, asm.R(isa.EDX), asm.Imm(-1))
	b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(0))
	b.Label("peak")
	b.I(isa.MOVSXW, asm.R(isa.EAX), asm.SymIdx(isa.SizeW, "pow", isa.ECX, 2, 0))
	b.I(isa.CMP, asm.R(isa.EAX), asm.R(isa.EDX))
	b.J(isa.JLE, "notbigger")
	b.I(isa.MOV, asm.R(isa.EDX), asm.R(isa.EAX))
	b.I(isa.MOV, asm.R(isa.EBX), asm.R(isa.ECX))
	b.Label("notbigger")
	b.I(isa.INC, asm.R(isa.ECX))
	b.I(isa.CMP, asm.R(isa.ECX), asm.Imm(radFFT))
	b.J(isa.JL, "peak")

	// bins[batch*gates + gate] = ebx; track strongest gate via edx.
	b.I(isa.MOV, asm.R(isa.EAX), asm.Sym(isa.SizeD, "batch", 0))
	b.I(isa.IMUL, asm.R(isa.EAX), asm.Imm(radGates))
	b.I(isa.ADD, asm.R(isa.EAX), asm.Sym(isa.SizeD, "gate", 0))
	b.I(isa.MOV, asm.SymIdx(isa.SizeD, "bins", isa.EAX, 4, 0), asm.R(isa.EBX))
	b.I(isa.CMP, asm.R(isa.EDX), asm.Sym(isa.SizeD, "bestPow", 0))
	b.J(isa.JLE, "notstrong")
	b.I(isa.MOV, asm.Sym(isa.SizeD, "bestPow", 0), asm.R(isa.EDX))
	b.I(isa.MOV, asm.R(isa.EAX), asm.Sym(isa.SizeD, "gate", 0))
	b.I(isa.MOV, asm.Sym(isa.SizeD, "bestGate", 0), asm.R(isa.EAX))
	b.Label("notstrong")

	b.I(isa.MOV, asm.R(isa.EAX), asm.Sym(isa.SizeD, "gate", 0))
	b.I(isa.INC, asm.R(isa.EAX))
	b.I(isa.MOV, asm.Sym(isa.SizeD, "gate", 0), asm.R(isa.EAX))
	b.I(isa.CMP, asm.R(isa.EAX), asm.Imm(radGates))
	b.J(isa.JL, "gateloop")

	b.I(isa.MOV, asm.R(isa.EAX), asm.Sym(isa.SizeD, "bestGate", 0))
	b.I(isa.MOV, asm.R(isa.ECX), asm.Sym(isa.SizeD, "batch", 0))
	b.I(isa.MOV, asm.SymIdx(isa.SizeD, "strong", isa.ECX, 4, 0), asm.R(isa.EAX))
	b.I(isa.INC, asm.R(isa.ECX))
	b.I(isa.MOV, asm.Sym(isa.SizeD, "batch", 0), asm.R(isa.ECX))
	b.I(isa.CMP, asm.R(isa.ECX), asm.Imm(radBatches))
	b.J(isa.JL, "batchloop")

	b.I(isa.PROFOFF)
	b.I(isa.HALT)
	return b.Link()
}
