// Package mmxlib is the MMX assembly library — the analog of Intel's
// Signal Processing / Image Processing libraries the paper's .mmx
// benchmarks call. Every routine is emitted into a program's Builder as a
// callable procedure following the emit package calling convention, and
// each is validated against the pure-Go reference semantics in its tests.
//
// Vector lengths are in elements and must be multiples of the SIMD width
// (4 words or 8 bytes); callers pad, exactly the data-formatting burden the
// paper describes.
package mmxlib

import (
	"mmxdsp/internal/asm"
	"mmxdsp/internal/emit"
	"mmxdsp/internal/isa"
)

// EmitVecAdd16 emits nsVecAdd16(dst, a, b, n): saturating 16-bit vector
// add, 4 elements per iteration.
func EmitVecAdd16(b *asm.Builder) { emitVecBinop16(b, "nsVecAdd16", isa.PADDSW) }

// EmitVecSub16 emits nsVecSub16(dst, a, b, n): saturating 16-bit subtract.
func EmitVecSub16(b *asm.Builder) { emitVecBinop16(b, "nsVecSub16", isa.PSUBSW) }

func emitVecBinop16(b *asm.Builder, name string, op isa.Op) {
	b.Proc(name)
	emit.LoadArg(b, isa.EDI, 0) // dst
	emit.LoadArg(b, isa.ESI, 1) // a
	emit.LoadArg(b, isa.EBX, 2) // b
	emit.LoadArg(b, isa.ECX, 3) // n
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(0))
	b.Label(name + ".loop")
	b.I(isa.MOVQ, asm.R(isa.MM0), asm.MemIdx(isa.SizeQ, isa.ESI, isa.EAX, 2, 0))
	b.I(op, asm.R(isa.MM0), asm.MemIdx(isa.SizeQ, isa.EBX, isa.EAX, 2, 0))
	b.I(isa.MOVQ, asm.MemIdx(isa.SizeQ, isa.EDI, isa.EAX, 2, 0), asm.R(isa.MM0))
	b.I(isa.ADD, asm.R(isa.EAX), asm.Imm(4))
	b.I(isa.CMP, asm.R(isa.EAX), asm.R(isa.ECX))
	b.J(isa.JL, name+".loop")
	b.Ret()
}

// EmitVecMul16 emits nsVecMul16(dst, a, b, n): Q15 fractional multiply with
// truncation — (a*b)>>15 assembled from pmulhw/pmullw, the high/low-word
// interleaving dance the paper calls "a significant problem".
func EmitVecMul16(b *asm.Builder) {
	const name = "nsVecMul16"
	b.Proc(name)
	emit.LoadArg(b, isa.EDI, 0)
	emit.LoadArg(b, isa.ESI, 1)
	emit.LoadArg(b, isa.EBX, 2)
	emit.LoadArg(b, isa.ECX, 3)
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(0))
	b.Label(name + ".loop")
	b.I(isa.MOVQ, asm.R(isa.MM0), asm.MemIdx(isa.SizeQ, isa.ESI, isa.EAX, 2, 0))
	b.I(isa.MOVQ, asm.R(isa.MM1), asm.MemIdx(isa.SizeQ, isa.EBX, isa.EAX, 2, 0))
	b.I(isa.MOVQ, asm.R(isa.MM2), asm.R(isa.MM0))
	b.I(isa.PMULHW, asm.R(isa.MM0), asm.R(isa.MM1)) // high words of products
	b.I(isa.PMULLW, asm.R(isa.MM2), asm.R(isa.MM1)) // low words
	b.I(isa.PSLLW, asm.R(isa.MM0), asm.Imm(1))
	b.I(isa.PSRLW, asm.R(isa.MM2), asm.Imm(15))
	b.I(isa.POR, asm.R(isa.MM0), asm.R(isa.MM2)) // (a*b) >> 15, truncated
	b.I(isa.MOVQ, asm.MemIdx(isa.SizeQ, isa.EDI, isa.EAX, 2, 0), asm.R(isa.MM0))
	b.I(isa.ADD, asm.R(isa.EAX), asm.Imm(4))
	b.I(isa.CMP, asm.R(isa.EAX), asm.R(isa.ECX))
	b.J(isa.JL, name+".loop")
	b.Ret()
}

// EmitDotProd16 emits nsDotProd16(a, b, n) -> eax: 16-bit dot product with
// a 32-bit accumulator via pmaddwd, 8 elements per iteration (two
// independent accumulators hide the multiplier latency).
func EmitDotProd16(b *asm.Builder) {
	const name = "nsDotProd16"
	b.Proc(name)
	emit.LoadArg(b, isa.ESI, 0)
	emit.LoadArg(b, isa.EBX, 1)
	emit.LoadArg(b, isa.ECX, 2)
	b.I(isa.PXOR, asm.R(isa.MM6), asm.R(isa.MM6)) // accumulator 0
	b.I(isa.PXOR, asm.R(isa.MM7), asm.R(isa.MM7)) // accumulator 1
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(0))
	b.Label(name + ".loop")
	b.I(isa.MOVQ, asm.R(isa.MM0), asm.MemIdx(isa.SizeQ, isa.ESI, isa.EAX, 2, 0))
	b.I(isa.MOVQ, asm.R(isa.MM1), asm.MemIdx(isa.SizeQ, isa.ESI, isa.EAX, 2, 8))
	b.I(isa.PMADDWD, asm.R(isa.MM0), asm.MemIdx(isa.SizeQ, isa.EBX, isa.EAX, 2, 0))
	b.I(isa.PMADDWD, asm.R(isa.MM1), asm.MemIdx(isa.SizeQ, isa.EBX, isa.EAX, 2, 8))
	b.I(isa.PADDD, asm.R(isa.MM6), asm.R(isa.MM0))
	b.I(isa.PADDD, asm.R(isa.MM7), asm.R(isa.MM1))
	b.I(isa.ADD, asm.R(isa.EAX), asm.Imm(8))
	b.I(isa.CMP, asm.R(isa.EAX), asm.R(isa.ECX))
	b.J(isa.JL, name+".loop")
	b.I(isa.PADDD, asm.R(isa.MM6), asm.R(isa.MM7))
	emit.HSumD(b, isa.MM6, isa.MM5)
	b.I(isa.MOVD, asm.R(isa.EAX), asm.R(isa.MM6))
	b.Ret()
}

// EmitMatVec16 emits nsMatVec16(mat, rows, cols, vec, out32): row-major
// 16-bit matrix times vector, 32-bit results. The inner loop is unrolled
// 4x (16 elements per iteration) so nearly every instruction is MMX, as in
// Table 2's matvec.mmx (91.6% MMX).
func EmitMatVec16(b *asm.Builder) {
	const name = "nsMatVec16"
	b.Proc(name)
	emit.LoadArg(b, isa.ESI, 0)              // mat (advances row by row)
	emit.LoadArg(b, isa.EDI, 4)              // out
	b.I(isa.MOV, asm.R(isa.EBP), asm.Imm(0)) // row counter

	b.Label(name + ".row")
	emit.LoadArg(b, isa.EBX, 3) // vec
	emit.LoadArg(b, isa.ECX, 2) // cols
	b.I(isa.PXOR, asm.R(isa.MM6), asm.R(isa.MM6))
	b.I(isa.PXOR, asm.R(isa.MM7), asm.R(isa.MM7))
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(0))
	b.Label(name + ".col")
	for u := 0; u < 2; u++ {
		off := int32(16 * u)
		b.I(isa.MOVQ, asm.R(isa.MM0), asm.MemIdx(isa.SizeQ, isa.ESI, isa.EAX, 2, off))
		b.I(isa.MOVQ, asm.R(isa.MM1), asm.MemIdx(isa.SizeQ, isa.ESI, isa.EAX, 2, off+8))
		b.I(isa.PMADDWD, asm.R(isa.MM0), asm.MemIdx(isa.SizeQ, isa.EBX, isa.EAX, 2, off))
		b.I(isa.PMADDWD, asm.R(isa.MM1), asm.MemIdx(isa.SizeQ, isa.EBX, isa.EAX, 2, off+8))
		b.I(isa.PADDD, asm.R(isa.MM6), asm.R(isa.MM0))
		b.I(isa.PADDD, asm.R(isa.MM7), asm.R(isa.MM1))
	}
	b.I(isa.ADD, asm.R(isa.EAX), asm.Imm(16))
	b.I(isa.CMP, asm.R(isa.EAX), asm.R(isa.ECX))
	b.J(isa.JL, name+".col")

	b.I(isa.PADDD, asm.R(isa.MM6), asm.R(isa.MM7))
	emit.HSumD(b, isa.MM6, isa.MM5)
	b.I(isa.MOVD, asm.MemIdx(isa.SizeD, isa.EDI, isa.EBP, 4, 0), asm.R(isa.MM6))

	// Advance to the next row: mat += 2*cols.
	b.I(isa.MOV, asm.R(isa.EDX), asm.R(isa.ECX))
	b.I(isa.ADD, asm.R(isa.EDX), asm.R(isa.EDX))
	b.I(isa.ADD, asm.R(isa.ESI), asm.R(isa.EDX))
	b.I(isa.INC, asm.R(isa.EBP))
	b.I(isa.CMP, asm.R(isa.EBP), emit.Arg(1))
	b.J(isa.JL, name+".row")
	b.Ret()
}
