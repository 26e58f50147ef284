package mmxlib

import (
	"mmxdsp/internal/asm"
	"mmxdsp/internal/emit"
	"mmxdsp/internal/isa"
)

// EmitFirQ15 emits nsFir(hist, coef, n, x) -> eax: a Q15 FIR that consumes
// one sample per call. n must be a multiple of 4 (coefficients padded with
// zeros); hist[0] is the newest sample. The history shift and the
// multiply-accumulate both run 4 taps per step; because the data is
// word-aligned 16-bit there is no pack/unpack at all — the property the
// paper highlights for fir.mmx.
func EmitFirQ15(b *asm.Builder) {
	const name = "nsFir"
	b.Proc(name)
	emit.LoadArg(b, isa.ESI, 0) // hist
	emit.LoadArg(b, isa.EDI, 1) // coef
	emit.LoadArg(b, isa.EDX, 2) // n
	// Argument validation, as a robust general-purpose library must:
	// non-null pointers, length at least one quad and a multiple of 4.
	// (The paper: "potential overhead and other efficiency issues ...
	// arise when using flexible, robust library functions".)
	b.I(isa.TEST, asm.R(isa.ESI), asm.R(isa.ESI))
	b.J(isa.JE, name+".bail")
	b.I(isa.TEST, asm.R(isa.EDI), asm.R(isa.EDI))
	b.J(isa.JE, name+".bail")
	b.I(isa.CMP, asm.R(isa.EDX), asm.Imm(4))
	b.J(isa.JL, name+".bail")
	b.I(isa.MOV, asm.R(isa.EAX), asm.R(isa.EDX))
	b.I(isa.AND, asm.R(isa.EAX), asm.Imm(3))
	b.J(isa.JNE, name+".bail")
	b.J(isa.JMP, name+".body")
	b.Label(name + ".bail")
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(0))
	b.Ret()
	b.Label(name + ".body")

	// Shift history up one word, a quad at a time from the top:
	// words [k..k+3] <- words [k-1..k+2] for k = n-4, n-8, ..., 4.
	b.I(isa.MOV, asm.R(isa.ECX), asm.R(isa.EDX))
	b.I(isa.SUB, asm.R(isa.ECX), asm.Imm(4))
	b.Label(name + ".shift")
	b.I(isa.CMP, asm.R(isa.ECX), asm.Imm(4))
	b.J(isa.JL, name+".head")
	b.I(isa.MOVQ, asm.R(isa.MM0), asm.MemIdx(isa.SizeQ, isa.ESI, isa.ECX, 2, -2))
	b.I(isa.MOVQ, asm.MemIdx(isa.SizeQ, isa.ESI, isa.ECX, 2, 0), asm.R(isa.MM0))
	b.I(isa.SUB, asm.R(isa.ECX), asm.Imm(4))
	b.J(isa.JMP, name+".shift")

	// Head quad: words 1..3 <- old 0..2, word 0 <- new sample.
	b.Label(name + ".head")
	b.I(isa.MOVQ, asm.R(isa.MM0), asm.MemQ(isa.ESI, 0))
	b.I(isa.PSLLQ, asm.R(isa.MM0), asm.Imm(16))
	b.I(isa.MOV, asm.R(isa.EAX), emit.Arg(3))
	b.I(isa.AND, asm.R(isa.EAX), asm.Imm(0xFFFF)) // keep lane 1 clean
	b.I(isa.MOVD, asm.R(isa.MM1), asm.R(isa.EAX))
	b.I(isa.POR, asm.R(isa.MM0), asm.R(isa.MM1))
	b.I(isa.MOVQ, asm.MemQ(isa.ESI, 0), asm.R(isa.MM0))

	// MAC: acc (two dword lanes in mm6) = sum hist[q] * coef[q].
	b.I(isa.PXOR, asm.R(isa.MM6), asm.R(isa.MM6))
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(0))
	b.Label(name + ".mac")
	b.I(isa.MOVQ, asm.R(isa.MM0), asm.MemIdx(isa.SizeQ, isa.ESI, isa.EAX, 2, 0))
	b.I(isa.PMADDWD, asm.R(isa.MM0), asm.MemIdx(isa.SizeQ, isa.EDI, isa.EAX, 2, 0))
	b.I(isa.PADDD, asm.R(isa.MM6), asm.R(isa.MM0))
	b.I(isa.ADD, asm.R(isa.EAX), asm.Imm(4))
	b.I(isa.CMP, asm.R(isa.EAX), asm.R(isa.EDX))
	b.J(isa.JL, name+".mac")
	emit.HSumD(b, isa.MM6, isa.MM5)
	b.I(isa.MOVD, asm.R(isa.EAX), asm.R(isa.MM6))

	// Narrow Q30 -> Q15 with rounding and saturation (NarrowQ30).
	b.I(isa.ADD, asm.R(isa.EAX), asm.Imm(1<<14))
	b.I(isa.SAR, asm.R(isa.EAX), asm.Imm(15))
	clampAX(b, name)
	b.Ret()
}

// clampAX clamps eax to int16 range in place.
func clampAX(b *asm.Builder, prefix string) {
	b.I(isa.CMP, asm.R(isa.EAX), asm.Imm(32767))
	b.J(isa.JLE, prefix+".nohi")
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(32767))
	b.Label(prefix + ".nohi")
	b.I(isa.CMP, asm.R(isa.EAX), asm.Imm(-32768))
	b.J(isa.JGE, prefix+".nolo")
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(-32768))
	b.Label(prefix + ".nolo")
}

// IIR state-block layout for EmitIirBlockQ15 (all offsets in bytes).
// Word counts are padded to multiples of 4; pad coefficients with zeros.
const (
	IirOffNB    = 0  // dword: numerator words (padded, e.g. 12 for 9 taps)
	IirOffNA    = 4  // dword: denominator words (padded, e.g. 8)
	IirOffFrac  = 8  // dword: coefficient fraction bits
	IirOffRound = 12 // dword: rounding constant 1 << (frac-1)
	IirOffB     = 16 // int16[nb]
)

// EmitIirBlockQ15 emits nsIir(state, in, out, blockLen): direct-form I IIR
// on Q15 samples with block-scaled fixed-point coefficients (see
// dsp.IIRQ15), processing blockLen samples per call — the paper's iir
// benchmark calls it with blocks of 8. The layout after IirOffB is
// a[na], xh[nb], yh[na], all contiguous. Pointers are hoisted out of the
// per-sample loop, so the loop body is dominated by MMX work (Table 2:
// iir.mmx is 71% MMX instructions).
func EmitIirBlockQ15(b *asm.Builder) {
	const name = "nsIir"
	b.Proc(name)
	emit.LoadArg(b, isa.EBP, 0) // state
	// Hoisted pointers: esi = b, edi = a, ebx = xh, edx = yh.
	b.I(isa.MOV, asm.R(isa.ESI), asm.R(isa.EBP))
	b.I(isa.ADD, asm.R(isa.ESI), asm.Imm(IirOffB))
	b.I(isa.MOV, asm.R(isa.EAX), asm.MemD(isa.EBP, IirOffNB))
	b.I(isa.ADD, asm.R(isa.EAX), asm.R(isa.EAX)) // 2*nb bytes
	b.I(isa.MOV, asm.R(isa.EDI), asm.R(isa.ESI))
	b.I(isa.ADD, asm.R(isa.EDI), asm.R(isa.EAX)) // a = b + 2*nb
	b.I(isa.MOV, asm.R(isa.ECX), asm.MemD(isa.EBP, IirOffNA))
	b.I(isa.ADD, asm.R(isa.ECX), asm.R(isa.ECX))
	b.I(isa.MOV, asm.R(isa.EBX), asm.R(isa.EDI))
	b.I(isa.ADD, asm.R(isa.EBX), asm.R(isa.ECX)) // xh = a + 2*na
	b.I(isa.MOV, asm.R(isa.EDX), asm.R(isa.EBX))
	b.I(isa.ADD, asm.R(isa.EDX), asm.R(isa.EAX)) // yh = xh + 2*nb

	b.Label(name + ".sample")
	// Shift xh up one word (quads from the top), insert *in.
	b.I(isa.MOV, asm.R(isa.ECX), asm.MemD(isa.EBP, IirOffNB))
	b.I(isa.SUB, asm.R(isa.ECX), asm.Imm(4))
	b.Label(name + ".xshift")
	b.I(isa.CMP, asm.R(isa.ECX), asm.Imm(4))
	b.J(isa.JL, name+".xhead")
	b.I(isa.MOVQ, asm.R(isa.MM0), asm.MemIdx(isa.SizeQ, isa.EBX, isa.ECX, 2, -2))
	b.I(isa.MOVQ, asm.MemIdx(isa.SizeQ, isa.EBX, isa.ECX, 2, 0), asm.R(isa.MM0))
	b.I(isa.SUB, asm.R(isa.ECX), asm.Imm(4))
	b.J(isa.JMP, name+".xshift")
	b.Label(name + ".xhead")
	b.I(isa.MOVQ, asm.R(isa.MM0), asm.MemQ(isa.EBX, 0))
	b.I(isa.PSLLQ, asm.R(isa.MM0), asm.Imm(16))
	b.I(isa.MOV, asm.R(isa.EAX), emit.Arg(1)) // in pointer
	b.I(isa.MOVZXW, asm.R(isa.EAX), asm.MemW(isa.EAX, 0))
	b.I(isa.MOVD, asm.R(isa.MM1), asm.R(isa.EAX))
	b.I(isa.POR, asm.R(isa.MM0), asm.R(isa.MM1))
	b.I(isa.MOVQ, asm.MemQ(isa.EBX, 0), asm.R(isa.MM0))

	// accB = sum b*xh (mm6), accA = sum a*yh (mm7).
	b.I(isa.PXOR, asm.R(isa.MM6), asm.R(isa.MM6))
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(0))
	b.Label(name + ".bmac")
	b.I(isa.MOVQ, asm.R(isa.MM0), asm.MemIdx(isa.SizeQ, isa.EBX, isa.EAX, 2, 0))
	b.I(isa.PMADDWD, asm.R(isa.MM0), asm.MemIdx(isa.SizeQ, isa.ESI, isa.EAX, 2, 0))
	b.I(isa.PADDD, asm.R(isa.MM6), asm.R(isa.MM0))
	b.I(isa.ADD, asm.R(isa.EAX), asm.Imm(4))
	b.I(isa.CMP, asm.R(isa.EAX), asm.MemD(isa.EBP, IirOffNB))
	b.J(isa.JL, name+".bmac")

	b.I(isa.PXOR, asm.R(isa.MM7), asm.R(isa.MM7))
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(0))
	b.Label(name + ".amac")
	b.I(isa.MOVQ, asm.R(isa.MM0), asm.MemIdx(isa.SizeQ, isa.EDX, isa.EAX, 2, 0))
	b.I(isa.PMADDWD, asm.R(isa.MM0), asm.MemIdx(isa.SizeQ, isa.EDI, isa.EAX, 2, 0))
	b.I(isa.PADDD, asm.R(isa.MM7), asm.R(isa.MM0))
	b.I(isa.ADD, asm.R(isa.EAX), asm.Imm(4))
	b.I(isa.CMP, asm.R(isa.EAX), asm.MemD(isa.EBP, IirOffNA))
	b.J(isa.JL, name+".amac")

	// y = clamp((accB - accA + round) >> frac)
	emit.HSumD(b, isa.MM6, isa.MM5)
	emit.HSumD(b, isa.MM7, isa.MM5)
	b.I(isa.PSUBD, asm.R(isa.MM6), asm.R(isa.MM7))
	b.I(isa.MOVD, asm.R(isa.EAX), asm.R(isa.MM6))
	b.I(isa.ADD, asm.R(isa.EAX), asm.MemD(isa.EBP, IirOffRound))
	b.I(isa.MOV, asm.R(isa.ECX), asm.MemD(isa.EBP, IirOffFrac))
	b.I(isa.SAR, asm.R(isa.EAX), asm.R(isa.ECX))
	clampAX(b, name)

	// Shift yh up one word and insert y.
	b.I(isa.MOV, asm.R(isa.ECX), asm.MemD(isa.EBP, IirOffNA))
	b.I(isa.SUB, asm.R(isa.ECX), asm.Imm(4))
	b.Label(name + ".yshift")
	b.I(isa.CMP, asm.R(isa.ECX), asm.Imm(4))
	b.J(isa.JL, name+".yhead")
	b.I(isa.MOVQ, asm.R(isa.MM0), asm.MemIdx(isa.SizeQ, isa.EDX, isa.ECX, 2, -2))
	b.I(isa.MOVQ, asm.MemIdx(isa.SizeQ, isa.EDX, isa.ECX, 2, 0), asm.R(isa.MM0))
	b.I(isa.SUB, asm.R(isa.ECX), asm.Imm(4))
	b.J(isa.JMP, name+".yshift")
	b.Label(name + ".yhead")
	b.I(isa.MOVQ, asm.R(isa.MM0), asm.MemQ(isa.EDX, 0))
	b.I(isa.PSLLQ, asm.R(isa.MM0), asm.Imm(16))
	b.I(isa.MOV, asm.R(isa.ECX), asm.R(isa.EAX))
	b.I(isa.AND, asm.R(isa.ECX), asm.Imm(0xFFFF))
	b.I(isa.MOVD, asm.R(isa.MM1), asm.R(isa.ECX))
	b.I(isa.POR, asm.R(isa.MM0), asm.R(isa.MM1))
	b.I(isa.MOVQ, asm.MemQ(isa.EDX, 0), asm.R(isa.MM0))

	// *out = y; advance in/out; next sample.
	b.I(isa.MOV, asm.R(isa.ECX), emit.Arg(2))
	b.I(isa.MOV, asm.MemW(isa.ECX, 0), asm.R(isa.EAX))
	b.I(isa.ADD, emit.Arg(1), asm.Imm(2))
	b.I(isa.ADD, emit.Arg(2), asm.Imm(2))
	b.I(isa.MOV, asm.R(isa.EAX), emit.Arg(3))
	b.I(isa.DEC, asm.R(isa.EAX))
	b.I(isa.MOV, emit.Arg(3), asm.R(isa.EAX))
	b.J(isa.JNE, name+".sample")
	b.Ret()
}
