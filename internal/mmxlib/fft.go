package mmxlib

import (
	"mmxdsp/internal/asm"
	"mmxdsp/internal/emit"
	"mmxdsp/internal/isa"
)

// EmitCvtI16ToF32 emits nsCvtI16F32(dst, src, n, stage): convert int16
// samples to float32. Pass one sign-extends all samples to dwords in the
// stage buffer with MMX unpacks; after a single emms, pass two converts the
// staged dwords with fild/fst. This is the data-formatting step of the
// hybrid MMX FFT. n must be a multiple of 4; stage holds n dwords.
func EmitCvtI16ToF32(b *asm.Builder) {
	const name = "nsCvtI16F32"
	b.Proc(name)
	emit.LoadArg(b, isa.ESI, 1) // src
	emit.LoadArg(b, isa.EDI, 3) // stage
	emit.LoadArg(b, isa.ECX, 2)
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(0))
	b.Label(name + ".widen")
	// Sign-extend 4 words to 4 dwords with the compare trick.
	b.I(isa.MOVQ, asm.R(isa.MM0), asm.MemIdx(isa.SizeQ, isa.ESI, isa.EAX, 2, 0))
	b.I(isa.PXOR, asm.R(isa.MM1), asm.R(isa.MM1))
	b.I(isa.PCMPGTW, asm.R(isa.MM1), asm.R(isa.MM0)) // sign mask
	b.I(isa.MOVQ, asm.R(isa.MM2), asm.R(isa.MM0))
	b.I(isa.PUNPCKLWD, asm.R(isa.MM2), asm.R(isa.MM1))
	b.I(isa.PUNPCKHWD, asm.R(isa.MM0), asm.R(isa.MM1))
	b.I(isa.MOVQ, asm.MemIdx(isa.SizeQ, isa.EDI, isa.EAX, 4, 0), asm.R(isa.MM2))
	b.I(isa.MOVQ, asm.MemIdx(isa.SizeQ, isa.EDI, isa.EAX, 4, 8), asm.R(isa.MM0))
	b.I(isa.ADD, asm.R(isa.EAX), asm.Imm(4))
	b.I(isa.CMP, asm.R(isa.EAX), asm.R(isa.ECX))
	b.J(isa.JL, name+".widen")
	b.I(isa.EMMS) // one mode switch before the x87 pass

	emit.LoadArg(b, isa.EDX, 0) // dst
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(0))
	b.Label(name + ".tofloat")
	b.I(isa.FILD, asm.R(isa.FP0), asm.MemIdx(isa.SizeD, isa.EDI, isa.EAX, 4, 0))
	b.I(isa.FST, asm.MemIdx(isa.SizeD, isa.EDX, isa.EAX, 4, 0), asm.R(isa.FP0))
	b.I(isa.INC, asm.R(isa.EAX))
	b.I(isa.CMP, asm.R(isa.EAX), asm.R(isa.ECX))
	b.J(isa.JL, name+".tofloat")
	b.Ret()
}

// EmitCvtF32ToI16 emits nsCvtF32I16(dst, src, n, scaleBits): convert
// float32 values back to int16 with rounding after multiplying by the
// float32 scale whose bit pattern is passed as scaleBits (typically 1/N to
// match the block-scaled fixed-point FFT convention).
func EmitCvtF32ToI16(b *asm.Builder) {
	const name = "nsCvtF32I16"
	b.Proc(name)
	emit.LoadArg(b, isa.EDI, 0)
	emit.LoadArg(b, isa.ESI, 1)
	emit.LoadArg(b, isa.ECX, 2)
	// Stage the scale where x87 can load it.
	b.I(isa.MOV, asm.R(isa.EAX), emit.Arg(3))
	b.I(isa.MOV, asm.Sym(isa.SizeD, "cvt.stage", 0), asm.R(isa.EAX))
	b.I(isa.FLD, asm.R(isa.FP7), asm.Sym(isa.SizeD, "cvt.stage", 0))
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(0))
	b.Label(name + ".loop")
	b.I(isa.FLD, asm.R(isa.FP0), asm.MemIdx(isa.SizeD, isa.ESI, isa.EAX, 4, 0))
	b.I(isa.FMUL, asm.R(isa.FP0), asm.R(isa.FP7))
	b.I(isa.FIST, asm.MemIdx(isa.SizeW, isa.EDI, isa.EAX, 2, 0), asm.R(isa.FP0))
	b.I(isa.INC, asm.R(isa.EAX))
	b.I(isa.CMP, asm.R(isa.EAX), asm.R(isa.ECX))
	b.J(isa.JL, name+".loop")
	b.Ret()
}

// EmitFftHybrid emits nsFft(re16, im16, n, reF, imF, costab, sintab,
// brtab, brcount, scaleBits, stage): the Signal Processing Library 4.0
// strategy the paper discovered — convert the Q15 samples to float32, run
// the newest register-scheduled float butterfly core (it calls
// "fftCoreFast", which the program must emit via
// fplib.EmitFftCore(b, "fftCoreFast", fplib.PresetFast())), and convert
// back with 1/N scaling. Only the
// conversions use MMX, which is why fft.mmx shows under 5% MMX
// instructions in Table 2.
func EmitFftHybrid(b *asm.Builder) {
	const name = "nsFft"
	b.Proc(name)
	// Forward conversions (MMX widen + x87; one emms inside each call).
	b.I(isa.MOV, asm.R(isa.EAX), emit.Arg(3))
	b.I(isa.MOV, asm.R(isa.EBX), emit.Arg(0))
	b.I(isa.MOV, asm.R(isa.ECX), emit.Arg(2))
	b.I(isa.MOV, asm.R(isa.EDX), emit.Arg(10))
	emit.Call(b, "nsCvtI16F32", asm.R(isa.EAX), asm.R(isa.EBX), asm.R(isa.ECX), asm.R(isa.EDX))
	b.I(isa.MOV, asm.R(isa.EAX), emit.Arg(4))
	b.I(isa.MOV, asm.R(isa.EBX), emit.Arg(1))
	b.I(isa.MOV, asm.R(isa.ECX), emit.Arg(2))
	b.I(isa.MOV, asm.R(isa.EDX), emit.Arg(10))
	emit.Call(b, "nsCvtI16F32", asm.R(isa.EAX), asm.R(isa.EBX), asm.R(isa.ECX), asm.R(isa.EDX))

	// Float FFT core (shared with the FP library):
	// fftCoreFast(reF, imF, n, costab, sintab, brtab, brcount).
	// After k pushes, incoming Arg(i) sits at [esp + 4 + 4k + 4i].
	pushArg := func(i, pushed int) {
		b.I(isa.MOV, asm.R(isa.EAX), asm.MemD(isa.ESP, int32(4+4*pushed+4*i)))
		b.I(isa.PUSH, asm.R(isa.EAX))
	}
	pushArg(8, 0) // brcount
	pushArg(7, 1) // brtab
	pushArg(6, 2) // sintab
	pushArg(5, 3) // costab
	pushArg(2, 4) // n
	pushArg(4, 5) // imF
	pushArg(3, 6) // reF
	b.Call("fftCoreFast")
	b.I(isa.ADD, asm.R(isa.ESP), asm.Imm(28))

	// Back conversions with scaling (pure x87).
	b.I(isa.MOV, asm.R(isa.EAX), emit.Arg(0))
	b.I(isa.MOV, asm.R(isa.EBX), emit.Arg(3))
	b.I(isa.MOV, asm.R(isa.ECX), emit.Arg(2))
	b.I(isa.MOV, asm.R(isa.EDX), emit.Arg(9))
	emit.Call(b, "nsCvtF32I16", asm.R(isa.EAX), asm.R(isa.EBX), asm.R(isa.ECX), asm.R(isa.EDX))
	b.I(isa.MOV, asm.R(isa.EAX), emit.Arg(1))
	b.I(isa.MOV, asm.R(isa.EBX), emit.Arg(4))
	b.I(isa.MOV, asm.R(isa.ECX), emit.Arg(2))
	b.I(isa.MOV, asm.R(isa.EDX), emit.Arg(9))
	emit.Call(b, "nsCvtF32I16", asm.R(isa.EAX), asm.R(isa.EBX), asm.R(isa.ECX), asm.R(isa.EDX))
	b.Ret()
}

// CvtScratch places the staging scratch nsCvtI16F32/nsCvtF32I16 need.
func CvtScratch(b *asm.Builder) {
	b.Words("cvt.stage", make([]int16, 8))
}
