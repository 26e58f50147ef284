package isa

import (
	"fmt"
	"strings"
)

// OperandKind discriminates the operand encoding.
type OperandKind uint8

// Operand kinds.
const (
	KindNone OperandKind = iota
	KindReg
	KindImm
	KindMem
)

// Operand is one instruction operand: a register, an immediate, or a memory
// reference of the form [base + index*scale + disp], optionally anchored to
// a data symbol resolved at link time.
type Operand struct {
	Kind  OperandKind
	Reg   Reg   // KindReg: the register; KindMem: the base register (may be NoReg)
	Index Reg   // KindMem: optional index register
	Scale uint8 // KindMem: 1, 2, 4 or 8 (0 means 1)
	Disp  int32 // KindMem: displacement (after symbol resolution)
	Sym   string
	Imm   int64 // KindImm: the immediate value
	Size  Size  // access width for memory operands and some immediates
}

// IsMem reports whether the operand references memory.
func (o Operand) IsMem() bool { return o.Kind == KindMem }

// IsReg reports whether the operand is a register.
func (o Operand) IsReg() bool { return o.Kind == KindReg }

// IsImm reports whether the operand is an immediate.
func (o Operand) IsImm() bool { return o.Kind == KindImm }

// String renders the operand in assembler syntax.
func (o Operand) String() string {
	switch o.Kind {
	case KindNone:
		return ""
	case KindReg:
		return o.Reg.String()
	case KindImm:
		return fmt.Sprintf("%d", o.Imm)
	case KindMem:
		var b strings.Builder
		if o.Size != SizeNone {
			b.WriteString(o.Size.String())
			b.WriteByte(' ')
		}
		b.WriteByte('[')
		parts := []string{}
		if o.Sym != "" {
			parts = append(parts, o.Sym)
		}
		if o.Reg != NoReg {
			parts = append(parts, o.Reg.String())
		}
		if o.Index != NoReg {
			s := o.Scale
			if s == 0 {
				s = 1
			}
			parts = append(parts, fmt.Sprintf("%s*%d", o.Index, s))
		}
		if o.Disp != 0 || len(parts) == 0 {
			parts = append(parts, fmt.Sprintf("%d", o.Disp))
		}
		b.WriteString(strings.Join(parts, "+"))
		b.WriteByte(']')
		return strings.ReplaceAll(b.String(), "+-", "-")
	}
	return "?"
}

// Inst is one instruction: an opcode and up to two operands
// (destination first, following Intel syntax).
type Inst struct {
	Op Op
	A  Operand // destination (or jump target label index for control flow)
	B  Operand // source
	// Target is the resolved instruction index for control transfer
	// (filled by the assembler's link step).
	Target int32
	// TargetSym is the label name before linking.
	TargetSym string
}

// String renders the instruction in assembler syntax.
func (in Inst) String() string {
	var b strings.Builder
	b.WriteString(in.Op.Name())
	if in.TargetSym != "" {
		b.WriteByte(' ')
		b.WriteString(in.TargetSym)
		return b.String()
	}
	if in.A.Kind != KindNone {
		b.WriteByte(' ')
		b.WriteString(in.A.String())
	}
	if in.B.Kind != KindNone {
		b.WriteString(", ")
		b.WriteString(in.B.String())
	}
	return b.String()
}

// ReferencesMemory reports whether the instruction loads or stores data
// memory, exactly when its micro-ops do (vm/lower.go). This is the paper's
// "% Memory References" predicate, and region pricing charges the cache
// model by it. Stack-implicit operations (push/pop/call/ret) reference
// memory.
func (in Inst) ReferencesMemory() bool {
	switch in.Op {
	case PUSH, POP, CALL, RET:
		return true
	case LEA:
		// lea computes an address without reading it; only a memory
		// destination stores the result.
		return in.A.IsMem() && in.B.IsMem()
	case MOVZXB, MOVZXW, MOVSXB, MOVSXW:
		// A source that is not a register is read from memory at its
		// address fields, whatever its kind.
		return in.A.IsMem() || in.B.Kind != KindReg
	}
	return in.A.IsMem() || in.B.IsMem()
}

// MemOperand returns the memory operand if any (at most one per instruction
// in this ISA, as on IA-32).
func (in Inst) MemOperand() (Operand, bool) {
	if in.A.IsMem() {
		return in.A, true
	}
	if in.B.IsMem() {
		return in.B, true
	}
	return Operand{}, false
}

// IsLoad reports whether the instruction reads from an explicit memory operand.
func (in Inst) IsLoad() bool {
	if in.B.IsMem() {
		return true
	}
	// Read-modify-write destination forms also load.
	if in.A.IsMem() {
		switch in.Op.Class() {
		case ClassALU, ClassShift:
			return in.Op != MOV
		}
	}
	return false
}

// IsStore reports whether the instruction writes an explicit memory operand.
func (in Inst) IsStore() bool {
	if !in.A.IsMem() {
		return false
	}
	switch in.Op {
	case CMP, TEST, FCOM:
		return false
	}
	// FLD/FILD/MOVQ/MOVD with a memory *source* put it in B, so a memory A
	// on those ops is a true store (fst/fist/movq m64,mm/...).
	return true
}

// UopCount returns the Pentium II micro-op decomposition count for the
// instruction, following the P6 decode rules: a memory source adds a load
// micro-op; a memory destination adds store-address and store-data
// micro-ops; read-modify-write forms pay both.
func (in Inst) UopCount() int {
	n := in.Op.BaseUops()
	if in.Op.IsPseudo() {
		return n
	}
	switch in.Op {
	case PUSH, POP, CALL, RET:
		return n // stack traffic already included in the base count
	}
	if in.B.IsMem() {
		n++ // load micro-op
	}
	if in.A.IsMem() {
		if in.IsLoad() && in.A.IsMem() && in.Op != MOV {
			n++ // load half of a read-modify-write
		}
		if in.IsStore() {
			n += 2 // store-address + store-data
		} else {
			n++ // pure read of destination operand (cmp mem, reg)
		}
	}
	return n
}

// RegsRead returns the registers the instruction reads (for dependency
// checks in the pairing model). The result slice is appended to dst.
func (in Inst) RegsRead(dst []Reg) []Reg {
	addMem := func(o Operand) {
		if o.Reg != NoReg {
			dst = append(dst, o.Reg)
		}
		if o.Index != NoReg {
			dst = append(dst, o.Index)
		}
	}
	// Source operand.
	switch in.B.Kind {
	case KindReg:
		dst = append(dst, in.B.Reg)
	case KindMem:
		addMem(in.B)
	}
	// Destination operand: address registers always read; the register
	// itself is read unless this is a pure move.
	switch in.A.Kind {
	case KindReg:
		if !in.isPureDstWrite() {
			dst = append(dst, in.A.Reg)
		}
	case KindMem:
		addMem(in.A)
	}
	switch in.Op {
	case PUSH, POP, CALL, RET:
		dst = append(dst, ESP)
	case IDIV, CDQ:
		dst = append(dst, EAX)
	}
	return dst
}

// RegsWritten returns the registers the instruction writes.
func (in Inst) RegsWritten(dst []Reg) []Reg {
	if in.A.Kind == KindReg && in.writesDst() {
		dst = append(dst, in.A.Reg)
	}
	switch in.Op {
	case PUSH, POP, CALL, RET:
		dst = append(dst, ESP)
	case IDIV:
		dst = append(dst, EAX, EDX)
	case CDQ:
		dst = append(dst, EDX)
	}
	return dst
}

// isPureDstWrite reports whether the destination register is write-only
// (not also read), as in mov/movzx/lea/fld-from-mem/movq-from-mem.
func (in Inst) isPureDstWrite() bool {
	switch in.Op {
	case MOV, MOVZXB, MOVZXW, MOVSXB, MOVSXW, LEA, POP, FLD, FLDC, FILD, MOVD, MOVQ:
		return true
	}
	return false
}

// writesDst reports whether the instruction writes its destination operand.
func (in Inst) writesDst() bool {
	switch in.Op {
	case CMP, TEST, FCOM, PUSH, JMP, CALL:
		return false
	}
	return true
}
