// Lowering: Compile translates every instruction, in every operand shape,
// to the micro-ops that execute it (execUops). Micro-ops are the only
// semantics the VM has; each opcode's result and flags live in one helper
// (alu, fpApply, fpUnary, the mmx package's lane functions), and the
// micro-op kinds differ only in how they reach their operands.
//
// The common shapes lower to one fused micro-op each (a register-register
// add, a load into a register, a read-modify-write of memory). Everything
// else is staged through temporary registers: an operand is loaded into a
// temporary by one micro-op and consumed by the next, so a rare shape needs
// no kind of its own. A shape the opcode does not accept lowers to whatever
// the instruction does before the operand that stops it — a load, a stack
// adjustment, a noted address — followed by a uFault carrying the text.
package vm

import (
	"fmt"
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

// ALU sub-ops: the u.alu of uAluRR/uAluRI/uAluMR/uAluMI/uAluTM, and the
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
	// refs counts the data references emitted so far: every one after the
	// first is marked (uop.nx).
	refs int
	// fp marks an FP instruction, whose uNote/uFault check the MMX state
	// first, as every FP micro-op does.
	fp    bool
	texts *[]string
}

func (l *lowerer) op(u uop) *uop {
	u.pc = l.pc
	l.ops = append(l.ops, u)
	return &l.ops[len(l.ops)-1]
}

// at emits kind k on o's address fields (whatever o's kind: an immediate
// or missing operand addresses its displacement alone). ref marks a data
// reference.
func (l *lowerer) at(k uint8, o isa.Operand, d, s uint8, ref bool) *uop {
	u := uop{kind: k, d: d, s: s, b: noIdx, x: noIdx, scale: 1, imm: uint32(o.Disp)}
	for _, r := range []isa.Reg{o.Reg, o.Index} {
		if r != isa.NoReg && !r.IsGPR() {
			// Only a Builder program can get here; the parser rejects it.
			l.fault("bad memory operand %s", o)
			return &uop{}
		}
	}
	if o.Reg != isa.NoReg {
		u.b = uint8(o.Reg.GPRIndex())
	}
	if o.Index != isa.NoReg {
		u.x = uint8(o.Index.GPRIndex())
		if o.Scale != 0 {
			u.scale = uint32(o.Scale)
		}
	}
	if ref {
		if l.refs > 0 {
			u.nx = 1
		}
		l.refs++
	}
	return l.op(u)
}

// mem emits a memory-referencing micro-op.
func (l *lowerer) mem(k uint8, o isa.Operand, d, s uint8) *uop { return l.at(k, o, d, s, true) }

// stack emits a stack micro-op, which references memory at ESP.
func (l *lowerer) stack(k uint8, d, s uint8) *uop {
	u := uop{kind: k, d: d, s: s}
	if l.refs > 0 {
		u.nx = 1
	}
	l.refs++
	return l.op(u)
}

// fault ends the instruction with a static fault; it returns false so
// callers can return it as their ok.
func (l *lowerer) fault(format string, args ...any) bool {
	*l.texts = append(*l.texts, fmt.Sprintf(format, args...))
	l.op(uop{kind: uFault, imm: uint32(len(*l.texts) - 1), expect: l.fp})
	return false
}

// noteFault notes o's address as a data reference, then faults: the shape
// of a memory operand whose width the instruction does not take.
func (l *lowerer) noteFault(o isa.Operand, format string, args ...any) bool {
	l.mem(uNote, o, 0, 0).expect = l.fp
	return l.fault(format, args...)
}

// gpr returns the index of a GPR operand, or -1.
func gpr(o isa.Operand) int {
	if o.Kind == isa.KindReg && o.Reg.IsGPR() {
		return o.Reg.GPRIndex()
	}
	return -1
}

// target picks where to build a value bound for o: o's own GPR when it is
// one, else temporary t.
func target(o isa.Operand, t uint8) uint8 {
	if r := gpr(o); r >= 0 {
		return uint8(r)
	}
	return t
}

// load emits an integer load of the given width into t.
func (l *lowerer) load(o isa.Operand, size isa.Size, t uint8, signed bool) bool {
	var k uint8
	switch size {
	case isa.SizeB:
		k = uLoad8
		if signed {
			k = uLoadSx8
		}
	case isa.SizeW:
		k = uLoad16
		if signed {
			k = uLoadSx16
		}
	case isa.SizeD, isa.SizeNone:
		k = uLoad32
	default:
		return l.noteFault(o, "bad load size %v", size)
	}
	if l.refs > 0 {
		// A load after another reference is an ALU source, which
		// zero-extends.
		l.mem(uLoadN, o, t, 0).alu = memSize(size)
		return true
	}
	l.mem(k, o, t, 0)
	return true
}

// src makes integer operand o readable: a GPR, an immediate, or memory
// loaded into t.
func (l *lowerer) src(o isa.Operand, t uint8) (opnd, bool) {
	switch o.Kind {
	case isa.KindReg:
		if r := gpr(o); r >= 0 {
			return opnd{reg: uint8(r)}, true
		}
		return opnd{}, l.fault("integer read of non-GPR %s", o.Reg)
	case isa.KindImm:
		return opnd{imm: uint32(o.Imm), isImm: true}, true
	case isa.KindMem:
		return opnd{reg: t}, l.load(o, o.Size, t, false)
	}
	return opnd{}, l.fault("missing operand")
}

// reg puts v in a register, moving an immediate into t.
func (l *lowerer) reg(v opnd, t uint8) uint8 {
	if v.isImm {
		l.op(uop{kind: uMovRI, d: t, imm: v.imm})
		return t
	}
	return v.reg
}

// dst writes v to integer destination o.
func (l *lowerer) dst(o isa.Operand, v opnd) {
	switch o.Kind {
	case isa.KindReg:
		d := gpr(o)
		switch {
		case d < 0:
			l.fault("integer write to non-GPR %s", o.Reg)
		case v.isImm:
			l.op(uop{kind: uMovRI, d: uint8(d), imm: v.imm})
		case v.reg != uint8(d):
			l.op(uop{kind: uMovRR, d: uint8(d), s: v.reg})
		}
	case isa.KindMem:
		var k uint8
		switch o.Size {
		case isa.SizeB:
			k = uStore8
		case isa.SizeW:
			k = uStore16
		case isa.SizeD, isa.SizeNone:
			k = uStore32
		default:
			l.noteFault(o, "bad store size %v", o.Size)
			return
		}
		switch {
		case l.refs > 0:
			l.mem(uStoreN, o, 0, l.reg(v, tmp2)).alu = memSize(o.Size)
		case v.isImm:
			l.mem(k+uStore8I-uStore8, o, 0, 0).imm2 = v.imm
		default:
			l.mem(k, o, 0, v.reg)
		}
	default:
		l.fault("bad destination operand")
	}
}

// memSize is the u.d size code of a read-modify-write micro-op.
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
	if A.IsMem() && A.Size != isa.SizeQ && (gpr(B) >= 0 || B.IsImm()) {
		// One read-modify-write micro-op.
		k := uAluMR
		if B.IsImm() {
			k = uAluMI
		}
		u := l.mem(k, A, memSize(A.Size), uint8(max(gpr(B), 0)))
		u.alu, u.imm2 = sel, uint32(B.Imm)
		return
	}
	a, ok := l.src(A, tmp)
	if !ok {
		return
	}
	kinds := aluKinds[sel]
	if gpr(A) >= 0 && B.IsMem() && (B.Size == isa.SizeD || B.Size == isa.SizeNone) && kinds.rm != 0 {
		l.mem(kinds.rm, B, a.reg, 0)
		return
	}
	b, ok := l.src(B, tmp2)
	if !ok {
		return
	}
	if A.IsMem() {
		// Both operands were memory: A is in tmp, B in tmp2.
		l.mem(uAluTM, A, memSize(A.Size), b.reg).alu = sel
		return
	}
	if a.isImm {
		// An immediate destination: the operation runs on a temporary and
		// faults only if it has a result to write (cmp, test and a shift
		// by a count that masks to zero do not).
		l.op(uop{kind: uMovRI, d: tmp, imm: a.imm})
		u := l.op(uop{kind: uAluRR, d: tmp, s: b.reg, imm: b.imm, alu: sel, expect: true})
		if b.isImm {
			u.kind = uAluRI
		}
		return
	}
	d := a.reg
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
	if in.A.IsMem() && in.A.Size != isa.SizeQ {
		l.mem(uAluMI, in.A, memSize(in.A.Size), 0).alu = sel
		return
	}
	a, ok := l.src(in.A, tmp)
	if !ok {
		return
	}
	if a.isImm {
		l.fault("bad destination operand")
		return
	}
	l.op(uop{kind: aluKinds[sel].rr, d: a.reg})
}

// lowerInst lowers one instruction to its micro-ops, appending them to ops;
// faulting shapes append their fault texts to texts. NOP and the profiling
// markers lower to nothing (the drivers retire them), as does a shift by a
// count that masks to zero.
func lowerInst(ops []uop, in *isa.Inst, pc int32, texts *[]string) []uop {
	l := lowerer{ops: ops, pc: pc, texts: texts}
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
		if v, ok := l.src(B, target(A, tmp2)); ok {
			l.dst(A, v)
		}

	case op == isa.MOVZXB, op == isa.MOVZXW, op == isa.MOVSXB, op == isa.MOVSXW:
		// The width is the opcode's. A register source gives its low
		// bits; any other operand is read from memory at its address
		// fields.
		t := target(A, tmp)
		size := isa.SizeB
		if op == isa.MOVZXW || op == isa.MOVSXW {
			size = isa.SizeW
		}
		signed := op == isa.MOVSXB || op == isa.MOVSXW
		if B.Kind == isa.KindReg {
			v, ok := l.src(B, t)
			if !ok {
				break
			}
			k := [...]uint8{uZx8, uZx16, uSx8, uSx16}[op-isa.MOVZXB]
			l.op(uop{kind: k, d: t, s: v.reg})
		} else if !l.load(B, size, t, signed) {
			break
		}
		l.dst(A, opnd{reg: t})

	case op == isa.LEA:
		if !B.IsMem() {
			l.fault("lea needs a memory operand")
			break
		}
		t := target(A, tmp)
		l.at(uLea, B, t, 0, false)
		l.dst(A, opnd{reg: t})

	case op == isa.XCHG:
		if !A.IsReg() || !B.IsReg() {
			l.fault("xchg supports register operands only")
			break
		}
		a, ok := l.src(A, 0)
		if !ok {
			break
		}
		if b, ok := l.src(B, 0); ok {
			l.op(uop{kind: uXchg, d: a.reg, s: b.reg})
		}

	case op == isa.PUSH:
		v, ok := l.src(A, tmp)
		if !ok {
			break
		}
		if v.isImm {
			l.stack(uPushI, 0, 0).imm = v.imm
		} else {
			l.stack(uPushR, 0, v.reg)
		}

	case op == isa.POP:
		t := target(A, tmp)
		l.stack(uPopR, t, 0)
		l.dst(A, opnd{reg: t})

	case op == isa.IDIV:
		if v, ok := l.src(A, tmp); ok {
			l.op(uop{kind: uIdiv, s: l.reg(v, tmp)})
		}

	case op == isa.CDQ:
		l.op(uop{kind: uCdq})

	case op == isa.JMP:
		l.op(uop{kind: uJmp, tgt: in.Target})
	case op.IsBranch():
		cc, _ := condCode(op)
		l.op(uop{kind: uBr, alu: cc, tgt: in.Target})
	case op == isa.CALL:
		u := l.stack(uPCall, 0, 0)
		u.imm2, u.tgt = uint32(pc+1), in.Target
	case op == isa.RET:
		l.stack(uPRet, 0, 0)
	case op == isa.HALT:
		l.op(uop{kind: uHalt})

	case op.IsFP():
		l.fp = true
		l.lowerFP(in)

	case op == isa.EMMS:
		l.op(uop{kind: uEmms})
	case op.IsMMX():
		l.lowerMMX(in)

	default:
		l.fault("unimplemented integer op %s", op)
	}
	return l.ops
}

// fpReg checks an FP register operand.
func (l *lowerer) fpReg(o isa.Operand) (uint8, bool) {
	if !o.IsReg() || !o.Reg.IsFP() {
		return 0, l.fault("expected FP register, have %s", o)
	}
	return uint8(o.Reg.FPIndex()), true
}

// fpDst checks an FP register destination.
func (l *lowerer) fpDst(o isa.Operand) (uint8, bool) {
	if !o.IsReg() || !o.Reg.IsFP() {
		return 0, l.fault("expected FP register destination, have %s", o)
	}
	return uint8(o.Reg.FPIndex()), true
}

// fpSrc makes an FP source readable: a register, or a float32/float64
// memory operand loaded into t.
func (l *lowerer) fpSrc(o isa.Operand, t uint8) (uint8, bool) {
	switch o.Kind {
	case isa.KindReg:
		return l.fpReg(o)
	case isa.KindMem:
		switch o.Size {
		case isa.SizeD:
			l.mem(uFLoad32, o, t, 0)
			return t, true
		case isa.SizeQ:
			l.mem(uFLoad64, o, t, 0)
			return t, true
		}
		return 0, l.noteFault(o, "float operand needs dword or qword size")
	}
	return 0, l.fault("bad float operand %s", o)
}

// sized picks kind k1 for a memory operand of width s1 and k2 for width
// s2 (ok false for any other width).
func sized(size, s1, s2 isa.Size, k1, k2 uint8) (uint8, bool) {
	switch size {
	case s1:
		return k1, true
	case s2:
		return k2, true
	}
	return 0, false
}

// lowerFP lowers the floating-point opcodes. Every FP micro-op faults
// first when MMX state is active.
func (l *lowerer) lowerFP(in *isa.Inst) {
	A, B := in.A, in.B
	switch in.Op {
	case isa.FLD:
		t := uint8(tmp)
		if A.IsReg() && A.Reg.IsFP() {
			t = uint8(A.Reg.FPIndex())
		}
		s, ok := l.fpSrc(B, t)
		if !ok {
			return
		}
		if d, ok := l.fpDst(A); ok && B.IsReg() {
			l.op(uop{kind: uFMovRR, d: d, s: s})
		}
	case isa.FLDC:
		if !B.IsImm() {
			l.fault("fldc needs an immediate")
			return
		}
		if d, ok := l.fpDst(A); ok {
			l.op(uop{kind: uFConst, d: d, fv: math.Float64frombits(uint64(B.Imm))})
		}
	case isa.FST:
		s, ok := l.fpReg(B)
		if !ok {
			return
		}
		if A.IsReg() {
			if d, ok := l.fpDst(A); ok {
				l.op(uop{kind: uFMovRR, d: d, s: s})
			}
			return
		}
		if k, ok := sized(A.Size, isa.SizeD, isa.SizeQ, uFStore32, uFStore64); ok {
			l.mem(k, A, 0, s)
			return
		}
		l.noteFault(A, "fst needs dword or qword destination")
	case isa.FILD:
		if !B.IsMem() {
			l.fault("fild needs a memory source")
			return
		}
		t := uint8(tmp)
		if A.IsReg() && A.Reg.IsFP() {
			t = uint8(A.Reg.FPIndex())
		}
		k, ok := sized(B.Size, isa.SizeW, isa.SizeD, uFild16, uFild32)
		if !ok {
			l.noteFault(B, "fild needs word or dword source")
			return
		}
		l.mem(k, B, t, 0)
		l.fpDst(A)
	case isa.FIST:
		s, ok := l.fpReg(B)
		if !ok {
			return
		}
		if !A.IsMem() {
			l.fault("fist needs a memory destination")
			return
		}
		k, ok := sized(A.Size, isa.SizeW, isa.SizeD, uFist16, uFist32)
		if !ok {
			l.noteFault(A, "fist needs word or dword destination")
			return
		}
		l.mem(k, A, 0, s)
	case isa.FADD, isa.FSUB, isa.FSUBR, isa.FMUL, isa.FDIV, isa.FCOM:
		d, ok := l.fpReg(A)
		if !ok {
			return
		}
		rr, m32, m64 := uFArithRR, uFArithM32, uFArithM64
		if in.Op == isa.FCOM {
			rr, m32, m64 = uFComRR, uFComM32, uFComM64
		}
		sub := fpArithOf[in.Op]
		if k, ok := sized(B.Size, isa.SizeD, isa.SizeQ, m32, m64); ok && B.IsMem() {
			l.mem(k, B, d, 0).alu = sub
			return
		}
		if s, ok := l.fpSrc(B, tmp); ok {
			l.op(uop{kind: rr, d: d, s: s, alu: sub})
		}
	default: // fchs, fabs, fsqrt, fsin, fcos
		if d, ok := l.fpReg(A); ok {
			l.op(uop{kind: uFUnary, d: d, alu: fpUnaryOf[in.Op]})
		}
	}
}

// mmReg checks an mm register operand.
func (l *lowerer) mmReg(o isa.Operand) (uint8, bool) {
	if !o.IsReg() || !o.Reg.IsMMX() {
		return 0, l.fault("expected mm register, have %s", o)
	}
	return uint8(o.Reg.MMXIndex()), true
}

// mmSrc makes an MMX source readable: an mm register, or memory loaded
// into t (a dword operand zero-extends, any other width is a qword).
func (l *lowerer) mmSrc(o isa.Operand, t uint8) (uint8, bool) {
	switch o.Kind {
	case isa.KindReg:
		return l.mmReg(o)
	case isa.KindMem:
		k := uMovqLM64
		if o.Size == isa.SizeD {
			k = uMovqLM32
		}
		l.mem(k, o, t, 0)
		return t, true
	}
	return 0, l.fault("bad mmx operand %s", o)
}

// lowerMMX lowers the MMX opcodes other than emms. Each sets MMX state.
func (l *lowerer) lowerMMX(in *isa.Inst) {
	A, B := in.A, in.B
	dword := B.Size == isa.SizeD || B.Size == isa.SizeNone
	switch {
	case in.Op == isa.MOVD && A.IsReg() && A.Reg.IsMMX():
		// movd mm, r32/m32 zero-extends.
		d := uint8(A.Reg.MMXIndex())
		if B.IsMem() && dword {
			l.mem(uMovdLM, B, d, 0)
			return
		}
		if v, ok := l.src(B, tmp); ok {
			l.op(uop{kind: uMovdGM, d: d, s: l.reg(v, tmp)})
		}
	case in.Op == isa.MOVD:
		// movd r32/m32, mm takes the low dword.
		s, ok := l.mmSrc(B, tmp)
		if !ok {
			return
		}
		if A.IsMem() && (A.Size == isa.SizeD || A.Size == isa.SizeNone) {
			l.mem(uMovdSM, A, 0, s)
			return
		}
		t := target(A, tmp)
		l.op(uop{kind: uMovdMG, d: t, s: s})
		l.dst(A, opnd{reg: t})
	case in.Op == isa.MOVQ:
		switch {
		case A.IsReg() && A.Reg.IsMMX():
			d := uint8(A.Reg.MMXIndex())
			if s, ok := l.mmSrc(B, d); ok && B.IsReg() {
				l.op(uop{kind: uMovqRR, d: d, s: s})
			}
		case A.IsMem():
			if s, ok := l.mmSrc(B, tmp); ok {
				l.mem(uMovqSM, A, 0, s)
			}
		default:
			l.fault("movq destination must be mm register or memory")
		}
	case mmxShift[in.Op] != nil:
		d, ok := l.mmReg(A)
		if !ok {
			return
		}
		f := mmxShift[in.Op]
		if B.IsImm() {
			// Hardware treats the count as a 64-bit value; anything >= 64
			// behaves like a max-width shift.
			l.op(uop{kind: uMMXShiftI, d: d, imm: uint32(min(uint64(B.Imm), 64)), sfn: f})
			return
		}
		if s, ok := l.mmSrc(B, tmp); ok {
			l.op(uop{kind: uMMXShiftRR, d: d, s: s, sfn: f})
		}
	default:
		d, ok := l.mmReg(A)
		if !ok {
			return
		}
		f := mmxBinary[in.Op]
		if B.IsMem() {
			k := uMMXBinRM64
			if B.Size == isa.SizeD {
				k = uMMXBinRM32
			}
			l.mem(k, B, d, 0).mfn = f
			return
		}
		if s, ok := l.mmSrc(B, tmp); ok {
			l.op(uop{kind: uMMXBinRR, d: d, s: s, mfn: f})
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
