// Lowering: Compile translates every instruction to the micro-ops that
// execute it (execUops). Micro-ops are the only semantics the VM has; each
// opcode's result and flags live in one helper (alu, fpApply, fpUnary, the
// mmx package's lane functions), and the micro-op kinds differ only in how
// they reach their operands.
//
// The operand shapes are those isa.Inst.CheckOperands accepts, which the
// assembler enforces when a program is built. The common shapes lower to
// one fused micro-op each (a register-register add, a load into a
// register, a read-modify-write of memory). Everything else is staged
// through temporary registers: an operand is loaded into a temporary by one
// micro-op and consumed by the next, so a rare shape needs no kind of its
// own.
package vm

import (
	"math"

	"mmxdsp/internal/isa"
	"mmxdsp/internal/mmx"
)

// Temporary registers, indices past the architectural eight in the
// executor's register files: an instruction stages operands in them between
// its own micro-ops, and none leaves anything there for the next.
const (
	tmp  = 8 // integer, MMX and FP temporary
	tmp2 = 9 // second integer temporary
)

// ALU sub-ops: the u.alu of uAluRR/uAluRI/uAluMR/uAluMI, and the
// operation alu computes.
const (
	aluAdd uint8 = iota
	aluAdc
	aluSub
	aluSbb
	aluCmp
	aluAnd
	aluTest
	aluOr
	aluXor
	aluImul
	aluShl
	aluShr
	aluSar
	aluNot
	aluNeg
	aluInc
	aluDec
)

// aluOf maps the integer ALU opcodes to their sub-ops.
var aluOf = map[isa.Op]uint8{
	isa.ADD: aluAdd, isa.ADC: aluAdc, isa.SUB: aluSub, isa.SBB: aluSbb,
	isa.CMP: aluCmp, isa.AND: aluAnd, isa.TEST: aluTest, isa.OR: aluOr,
	isa.XOR: aluXor, isa.IMUL: aluImul, isa.SHL: aluShl, isa.SHR: aluShr,
	isa.SAR: aluSar, isa.NOT: aluNot, isa.NEG: aluNeg, isa.INC: aluInc,
	isa.DEC: aluDec,
}

// aluKinds names the register-form kinds of each sub-op: rr (register
// source), ri (immediate source) and rm (dword memory source, 0 for none);
// the sub-ops without kinds of their own run as uAluRR/uAluRI. The unary
// sub-ops use rr alone.
var aluKinds = [...]struct{ rr, ri, rm uint8 }{
	aluAdd:  {uAddRR, uAddRI, uAddRM},
	aluAdc:  {uAluRR, uAluRI, 0},
	aluSub:  {uSubRR, uSubRI, uSubRM},
	aluSbb:  {uAluRR, uAluRI, 0},
	aluCmp:  {uCmpRR, uCmpRI, uCmpRM},
	aluAnd:  {uAndRR, uAndRI, uAndRM},
	aluTest: {uTestRR, uTestRI, uTestRM},
	aluOr:   {uOrRR, uOrRI, uOrRM},
	aluXor:  {uXorRR, uXorRI, uXorRM},
	aluImul: {uImulRR, uImulRI, uImulRM},
	aluShl:  {uAluRR, uShlI, 0},
	aluShr:  {uAluRR, uShrI, 0},
	aluSar:  {uAluRR, uSarI, 0},
	aluNot:  {uNot, 0, 0},
	aluNeg:  {uNeg, 0, 0},
	aluInc:  {uInc, 0, 0},
	aluDec:  {uDec, 0, 0},
}

// FP unary sub-ops for uFUnary.
const (
	fpChs uint8 = iota
	fpAbs
	fpSqrt
	fpSin
	fpCos
)

var fpUnaryOf = map[isa.Op]uint8{
	isa.FCHS: fpChs, isa.FABS: fpAbs, isa.FSQRT: fpSqrt, isa.FSIN: fpSin, isa.FCOS: fpCos,
}

var fpArithOf = map[isa.Op]uint8{
	isa.FADD: fpAdd, isa.FSUB: fpSub, isa.FSUBR: fpSubR, isa.FMUL: fpMul, isa.FDIV: fpDiv,
}

// opnd is a lowered integer operand: a register (maybe a temporary) or an
// immediate.
type opnd struct {
	reg   uint8
	imm   uint32
	isImm bool
}

// lowerer accumulates the micro-ops of one instruction.
type lowerer struct {
	ops []uop
	pc  int32
}

func (l *lowerer) op(u uop) *uop {
	u.pc = l.pc
	l.ops = append(l.ops, u)
	return &l.ops[len(l.ops)-1]
}

// mem emits kind k on memory operand o's address fields.
func (l *lowerer) mem(k uint8, o isa.Operand, d, s uint8) *uop {
	u := uop{kind: k, d: d, s: s, b: noIdx, x: noIdx, scale: 1, imm: uint32(o.Disp)}
	if o.Reg != isa.NoReg {
		u.b = uint8(o.Reg.GPRIndex())
	}
	if o.Index != isa.NoReg {
		u.x = uint8(o.Index.GPRIndex())
		if o.Scale != 0 {
			u.scale = uint32(o.Scale)
		}
	}
	return l.op(u)
}

// gpr, fpr and mmr return the index of a GPR, FP or MMX register operand.
func gpr(o isa.Operand) uint8 { return uint8(o.Reg.GPRIndex()) }
func fpr(o isa.Operand) uint8 { return uint8(o.Reg.FPIndex()) }
func mmr(o isa.Operand) uint8 { return uint8(o.Reg.MMXIndex()) }

// load emits an integer load of the given width (no width is a dword)
// into t.
func (l *lowerer) load(o isa.Operand, size isa.Size, t uint8, signed bool) {
	k := uLoad32
	switch {
	case size == isa.SizeB && signed:
		k = uLoadSx8
	case size == isa.SizeB:
		k = uLoad8
	case size == isa.SizeW && signed:
		k = uLoadSx16
	case size == isa.SizeW:
		k = uLoad16
	}
	l.mem(k, o, t, 0)
}

// src makes integer operand o readable: a GPR, an immediate, or memory
// loaded into t.
func (l *lowerer) src(o isa.Operand, t uint8) opnd {
	switch o.Kind {
	case isa.KindReg:
		return opnd{reg: gpr(o)}
	case isa.KindImm:
		return opnd{imm: uint32(o.Imm), isImm: true}
	}
	l.load(o, o.Size, t, false)
	return opnd{reg: t}
}

// dst writes v to integer destination o, a GPR or memory, as the
// instruction's only data reference.
func (l *lowerer) dst(o isa.Operand, v opnd) {
	if o.IsReg() {
		d := gpr(o)
		switch {
		case v.isImm:
			l.op(uop{kind: uMovRI, d: d, imm: v.imm})
		case v.reg != d:
			l.op(uop{kind: uMovRR, d: d, s: v.reg})
		}
		return
	}
	k := uStore8 + memSize(o.Size)
	if v.isImm {
		l.mem(k+uStore8I-uStore8, o, 0, 0).imm2 = v.imm
		return
	}
	l.mem(k, o, 0, v.reg)
}

// memSize is the size code of an integer memory operand: 0 byte, 1 word,
// 2 dword (no width given). It is the u.d of a read-modify-write micro-op,
// and the store kinds follow its order.
func memSize(s isa.Size) uint8 {
	switch s {
	case isa.SizeB:
		return 0
	case isa.SizeW:
		return 1
	}
	return 2
}

// alu lowers the two-operand integer ALU opcodes.
func (l *lowerer) alu(in *isa.Inst, sel uint8) {
	A, B := in.A, in.B
	if A.IsMem() {
		// One read-modify-write micro-op; B is a GPR or an immediate.
		k, s := uAluMI, uint8(0)
		if B.IsReg() {
			k, s = uAluMR, gpr(B)
		}
		u := l.mem(k, A, memSize(A.Size), s)
		u.alu, u.imm2 = sel, uint32(B.Imm)
		return
	}
	d := gpr(A)
	kinds := aluKinds[sel]
	if B.IsMem() && memSize(B.Size) == 2 && kinds.rm != 0 {
		l.mem(kinds.rm, B, d, 0)
		return
	}
	b := l.src(B, tmp2)
	if !b.isImm {
		l.op(uop{kind: kinds.rr, d: d, s: b.reg, alu: sel})
		return
	}
	if k := kinds.ri; k == uShlI || k == uShrI || k == uSarI {
		// A count that masks to zero changes nothing: no micro-op.
		if n := b.imm & 31; n != 0 {
			l.op(uop{kind: k, d: d, imm: n})
		}
		return
	}
	l.op(uop{kind: kinds.ri, d: d, imm: b.imm, alu: sel})
}

// unary lowers not, neg, inc and dec.
func (l *lowerer) unary(in *isa.Inst, sel uint8) {
	if in.A.IsMem() {
		l.mem(uAluMI, in.A, memSize(in.A.Size), 0).alu = sel
		return
	}
	l.op(uop{kind: aluKinds[sel].rr, d: gpr(in.A)})
}

// lowerInst lowers one instruction to its micro-ops, appending them to ops.
// NOP and the profiling markers lower to nothing (the drivers retire them),
// as does a shift by a count that masks to zero.
func lowerInst(ops []uop, in *isa.Inst, pc int32) []uop {
	l := lowerer{ops: ops, pc: pc}
	A, B := in.A, in.B
	op := in.Op
	if sel, ok := aluOf[op]; ok {
		if sel >= aluNot {
			l.unary(in, sel)
		} else {
			l.alu(in, sel)
		}
		return l.ops
	}
	switch {
	case op == isa.NOP, op == isa.PROFON, op == isa.PROFOFF:

	case op == isa.MOV:
		// A memory source loads straight into a GPR destination.
		t := uint8(tmp2)
		if A.IsReg() {
			t = gpr(A)
		}
		l.dst(A, l.src(B, t))

	case op == isa.MOVZXB, op == isa.MOVZXW, op == isa.MOVSXB, op == isa.MOVSXW:
		// The width is the opcode's: a register source gives its low
		// bits, a memory source is read at that width.
		d := gpr(A)
		if B.IsReg() {
			k := [...]uint8{uZx8, uZx16, uSx8, uSx16}[op-isa.MOVZXB]
			l.op(uop{kind: k, d: d, s: gpr(B)})
			break
		}
		size := isa.SizeB
		if op == isa.MOVZXW || op == isa.MOVSXW {
			size = isa.SizeW
		}
		l.load(B, size, d, op == isa.MOVSXB || op == isa.MOVSXW)

	case op == isa.LEA:
		l.mem(uLea, B, gpr(A), 0)

	case op == isa.XCHG:
		l.op(uop{kind: uXchg, d: gpr(A), s: gpr(B)})

	case op == isa.PUSH:
		// A memory source is the first data reference, the push the
		// second (uop.nx).
		v := l.src(A, tmp)
		u := l.op(uop{kind: uPushR, s: v.reg})
		switch {
		case v.isImm:
			u.kind, u.imm = uPushI, v.imm
		case A.IsMem():
			u.nx = 1
		}

	case op == isa.POP:
		// The pop is the first data reference; a store to memory is the
		// second.
		if A.IsReg() {
			l.op(uop{kind: uPopR, d: gpr(A)})
			break
		}
		l.op(uop{kind: uPopR, d: tmp})
		l.mem(uStoreN, A, 0, tmp)

	case op == isa.IDIV:
		l.op(uop{kind: uIdiv, s: l.src(A, tmp).reg})

	case op == isa.CDQ:
		l.op(uop{kind: uCdq})

	case op == isa.JMP:
		l.op(uop{kind: uJmp, tgt: in.Target})
	case op.IsBranch():
		cc, _ := condCode(op)
		l.op(uop{kind: uBr, alu: cc, tgt: in.Target})
	case op == isa.CALL:
		l.op(uop{kind: uPCall, imm2: uint32(pc + 1), tgt: in.Target})
	case op == isa.RET:
		l.op(uop{kind: uPRet})
	case op == isa.HALT:
		l.op(uop{kind: uHalt})

	case op.IsFP():
		l.lowerFP(in)

	case op == isa.EMMS:
		l.op(uop{kind: uEmms})
	case op.IsMMX():
		l.lowerMMX(in)
	}
	return l.ops
}

// lowerFP lowers the floating-point opcodes. Every FP micro-op faults
// first when MMX state is active.
func (l *lowerer) lowerFP(in *isa.Inst) {
	A, B := in.A, in.B
	switch in.Op {
	case isa.FLD:
		switch {
		case B.IsReg():
			l.op(uop{kind: uFMovRR, d: fpr(A), s: fpr(B)})
		case B.Size == isa.SizeQ:
			l.mem(uFLoad64, B, fpr(A), 0)
		default:
			l.mem(uFLoad32, B, fpr(A), 0)
		}
	case isa.FLDC:
		l.op(uop{kind: uFConst, d: fpr(A), fv: math.Float64frombits(uint64(B.Imm))})
	case isa.FST:
		switch {
		case A.IsReg():
			l.op(uop{kind: uFMovRR, d: fpr(A), s: fpr(B)})
		case A.Size == isa.SizeQ:
			l.mem(uFStore64, A, 0, fpr(B))
		default:
			l.mem(uFStore32, A, 0, fpr(B))
		}
	case isa.FILD:
		k := uFild32
		if B.Size == isa.SizeW {
			k = uFild16
		}
		l.mem(k, B, fpr(A), 0)
	case isa.FIST:
		k := uFist32
		if A.Size == isa.SizeW {
			k = uFist16
		}
		l.mem(k, A, 0, fpr(B))
	case isa.FADD, isa.FSUB, isa.FSUBR, isa.FMUL, isa.FDIV, isa.FCOM:
		rr, m32, m64 := uFArithRR, uFArithM32, uFArithM64
		if in.Op == isa.FCOM {
			rr, m32, m64 = uFComRR, uFComM32, uFComM64
		}
		sub := fpArithOf[in.Op]
		switch {
		case B.IsReg():
			l.op(uop{kind: rr, d: fpr(A), s: fpr(B), alu: sub})
		case B.Size == isa.SizeQ:
			l.mem(m64, B, fpr(A), 0).alu = sub
		default:
			l.mem(m32, B, fpr(A), 0).alu = sub
		}
	default: // fchs, fabs, fsqrt, fsin, fcos
		l.op(uop{kind: uFUnary, d: fpr(A), alu: fpUnaryOf[in.Op]})
	}
}

// lowerMMX lowers the MMX opcodes other than emms. Each sets MMX state.
func (l *lowerer) lowerMMX(in *isa.Inst) {
	A, B := in.A, in.B
	switch {
	case in.Op == isa.MOVD && A.IsReg() && A.Reg.IsMMX():
		// movd mm, r32/m32 zero-extends.
		if B.IsMem() {
			l.mem(uMovdLM, B, mmr(A), 0)
		} else {
			l.op(uop{kind: uMovdGM, d: mmr(A), s: gpr(B)})
		}
	case in.Op == isa.MOVD:
		// movd r32/m32, mm takes the low dword.
		if A.IsMem() {
			l.mem(uMovdSM, A, 0, mmr(B))
		} else {
			l.op(uop{kind: uMovdMG, d: gpr(A), s: mmr(B)})
		}
	case in.Op == isa.MOVQ:
		switch {
		case A.IsMem():
			l.mem(uMovqSM, A, 0, mmr(B))
		case B.IsMem():
			l.mem(uMovqLM, B, mmr(A), 0)
		default:
			l.op(uop{kind: uMovqRR, d: mmr(A), s: mmr(B)})
		}
	case mmxShift[in.Op] != nil:
		f := mmxShift[in.Op]
		if B.IsImm() {
			// Hardware treats the count as a 64-bit value; anything >= 64
			// behaves like a max-width shift.
			l.op(uop{kind: uMMXShiftI, d: mmr(A), imm: uint32(min(uint64(B.Imm), 64)), sfn: f})
			return
		}
		s := uint8(tmp)
		if B.IsMem() {
			l.mem(uMovqLM, B, tmp, 0)
		} else {
			s = mmr(B)
		}
		l.op(uop{kind: uMMXShiftRR, d: mmr(A), s: s, sfn: f})
	default:
		f := mmxBinary[in.Op]
		switch {
		case B.IsReg():
			l.op(uop{kind: uMMXBinRR, d: mmr(A), s: mmr(B), mfn: f})
		case B.Size == isa.SizeD:
			l.mem(uMMXBinRM32, B, mmr(A), 0).mfn = f
		default:
			l.mem(uMMXBinRM64, B, mmr(A), 0).mfn = f
		}
	}
}

// mmxBinary and mmxShift map the two-operand and shift MMX opcodes to
// their lane semantics (nil for every other opcode), which the micro-ops
// carry in mfn/sfn.
var (
	mmxBinary = [isa.NumOps]func(a, b mmx.Reg) mmx.Reg{
		isa.PACKSSWB:  mmx.PackSSWB,
		isa.PACKSSDW:  mmx.PackSSDW,
		isa.PACKUSWB:  mmx.PackUSWB,
		isa.PUNPCKLBW: mmx.PUnpckLBW,
		isa.PUNPCKHBW: mmx.PUnpckHBW,
		isa.PUNPCKLWD: mmx.PUnpckLWD,
		isa.PUNPCKHWD: mmx.PUnpckHWD,
		isa.PUNPCKLDQ: mmx.PUnpckLDQ,
		isa.PUNPCKHDQ: mmx.PUnpckHDQ,
		isa.PADDB:     mmx.PAddB,
		isa.PADDW:     mmx.PAddW,
		isa.PADDD:     mmx.PAddD,
		isa.PADDSB:    mmx.PAddSB,
		isa.PADDSW:    mmx.PAddSW,
		isa.PADDUSB:   mmx.PAddUSB,
		isa.PADDUSW:   mmx.PAddUSW,
		isa.PSUBB:     mmx.PSubB,
		isa.PSUBW:     mmx.PSubW,
		isa.PSUBD:     mmx.PSubD,
		isa.PSUBSB:    mmx.PSubSB,
		isa.PSUBSW:    mmx.PSubSW,
		isa.PSUBUSB:   mmx.PSubUSB,
		isa.PSUBUSW:   mmx.PSubUSW,
		isa.PMADDWD:   mmx.PMAddWD,
		isa.PMULHW:    mmx.PMulHW,
		isa.PMULLW:    mmx.PMulLW,
		isa.PCMPEQB:   mmx.PCmpEqB,
		isa.PCMPEQW:   mmx.PCmpEqW,
		isa.PCMPEQD:   mmx.PCmpEqD,
		isa.PCMPGTB:   mmx.PCmpGtB,
		isa.PCMPGTW:   mmx.PCmpGtW,
		isa.PCMPGTD:   mmx.PCmpGtD,
		isa.PAND:      mmx.PAnd,
		isa.PANDN:     mmx.PAndN,
		isa.POR:       mmx.POr,
		isa.PXOR:      mmx.PXor,
	}
	mmxShift = [isa.NumOps]func(a mmx.Reg, n uint) mmx.Reg{
		isa.PSLLW: mmx.PSllW,
		isa.PSLLD: mmx.PSllD,
		isa.PSLLQ: mmx.PSllQ,
		isa.PSRLW: mmx.PSrlW,
		isa.PSRLD: mmx.PSrlD,
		isa.PSRLQ: mmx.PSrlQ,
		isa.PSRAW: mmx.PSraW,
		isa.PSRAD: mmx.PSraD,
	}
)
