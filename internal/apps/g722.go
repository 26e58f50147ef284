package apps

import (
	"sync"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/core"
	"mmxdsp/internal/emit"
	"mmxdsp/internal/g722"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/mmxlib"
	"mmxdsp/internal/synth"
	"mmxdsp/internal/vm"
)

// Paper workload: "Standard for digital encoding and compression of speech
// and audio signals. Uses adaptive differential pulse code modulation
// (ADPCM). Encoded a 6 kB speech file. ... Both versions of this
// application perform real-time encoding and decoding. Only one sample of
// speech is encoded and decoded at a time."
//
// The programs implement the full ITU G.722 structure — transmit QMF,
// 6-bit/2-bit adaptive quantizers, pole/zero predictor adaptation
// (block 4), receive QMF — validated bit for bit against internal/g722.
// The .mmx version routes the QMF dot products through the MMX vector
// library, which forces 32-to-16-bit packing of the filter history before
// every call plus a defensive emms afterwards: the per-sample formatting
// overhead the paper blames for g722.mmx's slowdown.
const g722Samples = 3000 // ~6 kB of 16-bit speech

// g722Input is the speech input, synthesized once per process, and
// g722Expected the reference codes and decoded audio, computed once per
// process; builds and checks only read them.
var (
	g722Input = sync.OnceValue(func() []int16 {
		speech := synth.Speech(g722Samples, 0x6722)
		in := make([]int16, len(speech))
		for i, v := range speech {
			in[i] = int16(v * 12000)
		}
		return in
	})
	g722Expected = sync.OnceValues(func() (codes []uint8, out []int16) {
		codes = g722.NewEncoder().Encode(g722Input())
		return codes, g722.NewDecoder().Decode(codes)
	})
)

// G722 returns the g722.c and g722.mmx benchmarks.
func G722() []core.Benchmark {
	descr := "G.722 sub-band ADPCM: QMF split, 6+2-bit adaptive quantizers, encode and decode"
	mk := func(version string, build func() (*asm.Program, error)) core.Benchmark {
		return core.Benchmark{
			Base: "g722", Version: version, Kind: core.KindApplication, Descr: descr,
			Build: build,
			Check: func(c *vm.CPU) error { return checkG722(c, "g722."+version) },
		}
	}
	return []core.Benchmark{
		mk(core.VersionC, func() (*asm.Program, error) { return buildG722(false) }),
		mk(core.VersionMMX, func() (*asm.Program, error) { return buildG722(true) }),
	}
}

func checkG722(c *vm.CPU, context string) error {
	codes, out := g722Expected()
	if err := core.Expect(c, "codes", codes, 0, context); err != nil {
		return err
	}
	return core.Expect(c, "outpcm", out, 0, context)
}

// Band-state layout, dword indices into a 45-dword block.
const (
	gS   = 0
	gSP  = 1
	gSZ  = 2
	gNB  = 3
	gDET = 4
	gR   = 5  // r0..r2
	gP   = 8  // p0..p2
	gA   = 11 // a0..a2 (a0 unused)
	gAP  = 14 // ap0..ap2 (ap0 unused)
	gSG  = 17 // sg0..sg6
	gD   = 24 // d0..d6
	gB   = 31 // b0..b6 (b0 unused)
	gBP  = 38 // bp0..bp6 (bp0 unused)

	gStateDwords = 45
)

// st returns the operand for field f (dword index) of the band state
// pointed to by ebp.
func st(f int) isa.Operand { return asm.MemD(isa.EBP, int32(4*f)) }

func newBandState(det int32) []int32 {
	s := make([]int32, gStateDwords)
	s[gDET] = det
	return s
}

// buildG722 emits the full codec; useMMXQmf selects the library-call QMF.
func buildG722(useMMXQmf bool) (*asm.Program, error) {
	name := "g722.c"
	if useMMXQmf {
		name = "g722.mmx"
	}
	b := asm.NewBuilder(name)
	b.Words("pcm", g722Input())
	b.Reserve("codes", g722Samples/2+8)
	b.Reserve("outpcm", 2*g722Samples+8)

	// Quantizer and adaptation tables (int32).
	b.Dwords("q6", []int32{0, 35, 72, 110, 150, 190, 233, 276, 323, 370, 422, 473,
		530, 587, 650, 714, 786, 858, 940, 1023, 1121, 1219, 1339, 1458,
		1612, 1765, 1980, 2195, 2557, 2919, 0, 0})
	b.Dwords("iln", []int32{0, 63, 62, 31, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21,
		20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 0})
	b.Dwords("ilp", []int32{0, 61, 60, 59, 58, 57, 56, 55, 54, 53, 52, 51, 50, 49,
		48, 47, 46, 45, 44, 43, 42, 41, 40, 39, 38, 37, 36, 35, 34, 33, 32, 0})
	b.Dwords("wl", []int32{-60, -30, 58, 172, 334, 538, 1198, 3042})
	b.Dwords("rl42", []int32{0, 7, 6, 5, 4, 3, 2, 1, 7, 6, 5, 4, 3, 2, 1, 0})
	b.Dwords("ilb", []int32{2048, 2093, 2139, 2186, 2233, 2282, 2332, 2383,
		2435, 2489, 2543, 2599, 2656, 2714, 2774, 2834,
		2896, 2960, 3025, 3091, 3158, 3228, 3298, 3371,
		3444, 3520, 3597, 3676, 3756, 3838, 3922, 4008})
	b.Dwords("qm4", []int32{0, -20456, -12896, -8968, -6288, -4240, -2584, -1200,
		20456, 12896, 8968, 6288, 4240, 2584, 1200, 0})
	b.Dwords("qm2", []int32{-7408, -1616, 7408, 1616})
	b.Dwords("qm6", []int32{
		-136, -136, -136, -136, -24808, -21904, -19008, -16704,
		-14984, -13512, -12280, -11192, -10232, -9360, -8576, -7856,
		-7192, -6576, -6000, -5456, -4944, -4464, -4008, -3576,
		-3168, -2776, -2400, -2032, -1688, -1360, -1040, -728,
		24808, 21904, 19008, 16704, 14984, 13512, 12280, 11192,
		10232, 9360, 8576, 7856, 7192, 6576, 6000, 5456,
		4944, 4464, 4008, 3576, 3168, 2776, 2400, 2032,
		1688, 1360, 1040, 728, 432, 136, -432, -136})
	b.Dwords("ihn", []int32{0, 1, 0})
	b.Dwords("ihp", []int32{0, 3, 2})
	b.Dwords("wh", []int32{0, -214, 798})
	b.Dwords("rh2", []int32{2, 1, 2, 1})
	b.Dwords("qmfco", []int32{3, -11, 12, 32, -210, 951, 3876, -805, 362, -156, 53, -11})

	// Band states and QMF delay lines.
	b.Dwords("encL", newBandState(32))
	b.Dwords("encH", newBandState(8))
	b.Dwords("decL", newBandState(32))
	b.Dwords("decH", newBandState(8))
	b.Dwords("xenc", make([]int32, 24))
	b.Dwords("xdec", make([]int32, 24))
	// Scratch cells shared by the helper procedures.
	b.Dwords("xlow", []int32{0})
	b.Dwords("xhigh", []int32{0})
	b.Dwords("rlow", []int32{0})
	b.Dwords("rhigh", []int32{0})
	b.Dwords("dval", []int32{0})
	b.Dwords("wd1v", []int32{0})

	if useMMXQmf {
		mmxlib.EmitDotProd16(b)
		mmxlib.EmitVecMul16(b)
		b.Words("fzb", make([]int16, 8))
		b.Words("fzw", make([]int16, 8))
		b.Words("fzt", make([]int16, 8))
		// Vectors are padded from 12 to 16 taps with zeros: the library's
		// dot product works in 8-element strides (another instance of the
		// "format your data for the library" tax).
		b.Words("qmfw", append([]int16{3, -11, 12, 32, -210, 951, 3876, -805, 362, -156, 53, -11}, 0, 0, 0, 0))
		b.Words("qmfwr", append([]int16{-11, 53, -156, 362, -805, 3876, 951, -210, 32, 12, -11, 3}, 0, 0, 0, 0))
		b.Words("evenw", make([]int16, 16))
		b.Words("oddw", make([]int16, 16))
		b.Dwords("sumodd", []int32{0})
		b.Entry()
	}

	b.Proc("main")
	b.I(isa.PROFON)
	// Encode loop: one byte per sample pair.
	b.I(isa.MOV, asm.R(isa.EBX), asm.Imm(0)) // pair index
	b.Label("encloop")
	b.I(isa.PUSH, asm.R(isa.EBX))
	emit.Call(b, "encode_pair", asm.R(isa.EBX))
	b.I(isa.POP, asm.R(isa.EBX))
	b.I(isa.MOV, asm.SymIdx(isa.SizeB, "codes", isa.EBX, 1, 0), asm.R(isa.EAX))
	b.I(isa.INC, asm.R(isa.EBX))
	b.I(isa.CMP, asm.R(isa.EBX), asm.Imm(g722Samples/2))
	b.J(isa.JL, "encloop")
	// Decode loop.
	b.I(isa.MOV, asm.R(isa.EBX), asm.Imm(0))
	b.Label("decloop")
	b.I(isa.MOVZXB, asm.R(isa.EAX), asm.SymIdx(isa.SizeB, "codes", isa.EBX, 1, 0))
	b.I(isa.PUSH, asm.R(isa.EBX))
	emit.Call(b, "decode_byte", asm.R(isa.EAX), asm.R(isa.EBX))
	b.I(isa.POP, asm.R(isa.EBX))
	b.I(isa.INC, asm.R(isa.EBX))
	b.I(isa.CMP, asm.R(isa.EBX), asm.Imm(g722Samples/2))
	b.J(isa.JL, "decloop")
	b.I(isa.PROFOFF)
	b.I(isa.HALT)

	emitSaturateProc(b)
	emitBlock4Proc(b, useMMXQmf)
	emitLogsclProc(b)
	emitLogschProc(b)
	emitEncodePair(b, useMMXQmf)
	emitDecodeByte(b, useMMXQmf)

	return b.Link()
}

// emitSaturateProc emits saturate: eax = clamp16(eax).
func emitSaturateProc(b *asm.Builder) {
	b.Proc("saturate")
	b.I(isa.CMP, asm.R(isa.EAX), asm.Imm(32767))
	b.J(isa.JLE, "sat.nohi")
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(32767))
	b.Label("sat.nohi")
	b.I(isa.CMP, asm.R(isa.EAX), asm.Imm(-32768))
	b.J(isa.JGE, "sat.nolo")
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(-32768))
	b.Label("sat.nolo")
	b.Ret()
}
