package isa

import "fmt"

// shapes is a set of operand shapes: what one operand slot of an opcode
// accepts.
type shapes uint16

// Operand shapes. A memory operand's shape is its access width; its base
// and index registers, when present, must be GPRs.
const (
	shNone shapes = 1 << iota // no operand
	shImm                     // an immediate
	shGPR                     // a general-purpose register
	shMM                      // an MMX register
	shFP                      // an FP register
	shM                       // memory with no width given
	shM8                      // byte memory
	shM16                     // word memory
	shM32                     // dword memory
	shM64                     // qword memory

	shMem  = shM | shM8 | shM16 | shM32 // integer memory: any width but qword
	shMemQ = shMem | shM64
	shRM   = shGPR | shMem
	shRMI  = shRM | shImm
)

// form is one accepted pair of shapes for an instruction's A and B.
type form struct{ a, b shapes }

// opForms is the operand-shape table: the forms each opcode accepts. The
// opcodes it leaves out take no operands; BAD accepts none. Across every
// form an instruction holds at most one memory operand, as on IA-32.
var opForms = func() (t [NumOps][]form) {
	none := []form{{shNone, shNone}}
	for op := Op(1); int(op) < NumOps; op++ {
		t[op] = none
	}
	set := func(f []form, ops ...Op) {
		for _, op := range ops {
			t[op] = f
		}
	}
	set([]form{{shRM, shRMI}}, MOV, ADD, ADC, SUB, SBB, AND, OR, XOR, CMP, TEST, IMUL, SHL, SHR, SAR)
	// movzx/movsx read the opcode's width whatever the source's own.
	set([]form{{shGPR, shGPR | shMemQ}}, MOVZXB, MOVZXW, MOVSXB, MOVSXW)
	set([]form{{shGPR, shMemQ}}, LEA)
	set([]form{{shGPR, shGPR}}, XCHG)
	set([]form{{shGPR | shM | shM32 | shImm, shNone}}, PUSH)
	set([]form{{shGPR | shM | shM32, shNone}}, POP)
	set([]form{{shRM, shNone}}, IDIV, NOT, NEG, INC, DEC)

	set([]form{{shFP, shFP | shM32 | shM64}}, FLD, FADD, FSUB, FSUBR, FMUL, FDIV, FCOM)
	set([]form{{shFP, shImm}}, FLDC)
	set([]form{{shFP | shM32 | shM64, shFP}}, FST)
	set([]form{{shFP, shM16 | shM32}}, FILD)
	set([]form{{shM16 | shM32, shFP}}, FIST)
	set([]form{{shFP, shNone}}, FCHS, FABS, FSQRT, FSIN, FCOS)

	// movd mm, r/m32 zero-extends; movd r/m32, mm takes the low dword.
	set([]form{{shMM, shGPR | shM | shM32}, {shGPR | shM | shM32, shMM}}, MOVD)
	set([]form{{shMM | shM | shM64, shMM | shM | shM64}}, MOVQ)
	for op := Op(1); int(op) < NumOps; op++ {
		switch op.Class() {
		case ClassMMXPack, ClassMMXArith, ClassMMXMul:
			t[op] = []form{{shMM, shMM | shMemQ}}
		case ClassMMXShift:
			t[op] = []form{{shMM, shMM | shImm | shM | shM64}}
		}
	}
	return t
}()

// shapeOf classifies an operand; 0 is no shape any form accepts.
func shapeOf(o Operand) shapes {
	switch {
	case o.Kind == KindNone:
		return shNone
	case o.Kind == KindImm:
		return shImm
	case o.Kind == KindReg && o.Reg.IsGPR():
		return shGPR
	case o.Kind == KindReg && o.Reg.IsMMX():
		return shMM
	case o.Kind == KindReg && o.Reg.IsFP():
		return shFP
	case o.Kind == KindMem && (o.Reg == NoReg || o.Reg.IsGPR()) && (o.Index == NoReg || o.Index.IsGPR()):
		switch o.Size {
		case SizeNone:
			return shM
		case SizeB:
			return shM8
		case SizeW:
			return shM16
		case SizeD:
			return shM32
		case SizeQ:
			return shM64
		}
	}
	return 0
}

// ShapeError reports an operand its instruction's opcode does not accept.
type ShapeError struct {
	Op Op
	// N is the operand at fault: 1 for A, 2 for B.
	N       int
	Operand Operand
	// SecondMem marks a B the opcode accepts, but not with a memory A.
	SecondMem bool
}

func (e *ShapeError) Error() string {
	switch {
	case e.Operand.Kind == KindNone:
		return fmt.Sprintf("%s: operand %d is missing", e.Op, e.N)
	case e.SecondMem:
		return fmt.Sprintf("%s: operand 2 %s is a second memory operand", e.Op, e.Operand)
	}
	return fmt.Sprintf("%s: operand %d %s is not accepted", e.Op, e.N, e.Operand)
}

// CheckOperands reports whether the opcode accepts the instruction's
// operand shapes (nil), or which operand it does not (a *ShapeError).
// Control transfers name their target by label, so they take no operands
// either.
func (in Inst) CheckOperands() error {
	var fs []form
	if int(in.Op) < NumOps {
		fs = opForms[in.Op]
	}
	a, b := shapeOf(in.A), shapeOf(in.B)
	aOK, bOK := false, false
	for _, f := range fs {
		if f.a&a != 0 {
			aOK = true
			bOK = bOK || f.b&b != 0
		}
	}
	twoMem := in.A.IsMem() && in.B.IsMem()
	switch {
	case !aOK:
		return &ShapeError{Op: in.Op, N: 1, Operand: in.A}
	case !bOK || twoMem:
		return &ShapeError{Op: in.Op, N: 2, Operand: in.B, SecondMem: bOK}
	}
	return nil
}
