// Predecode: a one-time compilation pass that lowers each instruction of a
// linked Program into a specialized handler closure with operand access
// resolved up front. The dispatch loop then runs straight handler chains
// per basic block (block.go), instead of re-switching on op family and
// operand kinds for every one of the millions of retired instructions.
//
// Specialized handlers exist for the hot shapes (reg-reg, reg-imm, and the
// [disp], [base+disp], [index*scale+disp], [base+index*scale+disp] address
// forms at each access width). Anything else — including every shape whose
// generic execution would fault — falls back to a closure around the
// original execInt/execFP/execMMX path, so no opcode is left behind and
// fault messages stay byte-identical to the generic interpreter's.
package vm

import (
	"math"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/mmx"
)

// execFn performs one predecoded instruction. The loop has already created
// ev (PC, Inst, Measured) and bumped the executed counter; the handler does
// the architectural work and sets ev.Taken/ev.MemPenalty as needed.
type execFn func(*CPU, *Event) error

// decoded-instruction kinds: pseudo instructions bypass event creation.
const (
	dNormal uint8 = iota
	dNop
	dProfOn
	dProfOff
)

type decoded struct {
	exec execFn
	inst *isa.Inst
	kind uint8
	// spec marks a specialized handler (compileSpecialized succeeded);
	// refsMem marks instructions with memory references. Both feed the
	// fused-block eligibility test in block.go.
	spec    bool
	refsMem bool
}

// Code is a predecoded program: one handler per PC. A Code value is
// immutable after Compile and may be shared by any number of CPUs running
// the same program (it holds no execution state).
type Code struct {
	prog *asm.Program
	ops  []decoded
	// blocks and blockOf are the block-dispatch tables (see block.go):
	// one vmBlock per basic block, and the owning block index per PC.
	blocks  []vmBlock
	blockOf []int32
}

// Compile predecodes a linked program. The cost is one pass over the static
// instructions; every CPU built from the result skips per-step decode.
func Compile(p *asm.Program) *Code {
	c := &Code{prog: p, ops: make([]decoded, len(p.Insts))}
	meta := p.InstMeta()
	for i := range p.Insts {
		in := &p.Insts[i]
		d := &c.ops[i]
		d.inst = in
		d.refsMem = meta[i].RefsMem
		switch in.Op {
		case isa.NOP:
			d.kind = dNop
		case isa.PROFON:
			d.kind = dProfOn
		case isa.PROFOFF:
			d.kind = dProfOff
		default:
			d.kind = dNormal
			if h := compileSpecialized(in); h != nil {
				d.exec = h
				d.spec = true
			} else {
				d.exec = genericExec(in)
			}
		}
	}
	c.buildBlocks()
	return c
}

// genericExec wraps the unspecialized execution path for one instruction.
func genericExec(in *isa.Inst) execFn {
	switch {
	case in.Op.IsMMX():
		return func(c *CPU, ev *Event) error { return c.execMMX(in, ev) }
	case in.Op.IsFP():
		return func(c *CPU, ev *Event) error { return c.execFP(in, ev) }
	default:
		return func(c *CPU, ev *Event) error { return c.execInt(in, ev) }
	}
}

// ---------------------------------------------------------------------------
// Operand access compilers. Each returns nil when the operand shape is not
// specialized (or would fault), sending the instruction to the generic path.

// compileAddr resolves the effective-address shape of a memory operand.
func compileAddr(o isa.Operand) func(*CPU) uint32 {
	disp := uint32(o.Disp)
	s := uint32(o.Scale)
	if s == 0 {
		s = 1
	}
	switch {
	case o.Reg == isa.NoReg && o.Index == isa.NoReg:
		return func(*CPU) uint32 { return disp }
	case o.Index == isa.NoReg:
		b := o.Reg.GPRIndex()
		return func(c *CPU) uint32 { return c.gpr[b] + disp }
	case o.Reg == isa.NoReg:
		x := o.Index.GPRIndex()
		return func(c *CPU) uint32 { return c.gpr[x]*s + disp }
	default:
		b, x := o.Reg.GPRIndex(), o.Index.GPRIndex()
		return func(c *CPU) uint32 { return c.gpr[b] + c.gpr[x]*s + disp }
	}
}

// compileLoad builds a sized integer load (loadSized equivalent).
func compileLoad(o isa.Operand) func(*CPU, *Event) (uint32, error) {
	addr := compileAddr(o)
	if o.Reg != isa.NoReg && !o.Reg.IsGPR() {
		return nil
	}
	if o.Index != isa.NoReg && !o.Index.IsGPR() {
		return nil
	}
	switch o.Size {
	case isa.SizeB:
		return func(c *CPU, ev *Event) (uint32, error) {
			a := addr(c)
			ev.MemPenalty += c.Hier.Access(a)
			v, ok := c.Mem.LoadU8(a)
			if !ok {
				return 0, c.fault("load byte out of range at %#x", a)
			}
			return uint32(v), nil
		}
	case isa.SizeW:
		return func(c *CPU, ev *Event) (uint32, error) {
			a := addr(c)
			ev.MemPenalty += c.Hier.Access(a)
			v, ok := c.Mem.LoadU16(a)
			if !ok {
				return 0, c.fault("load word out of range at %#x", a)
			}
			return uint32(v), nil
		}
	case isa.SizeD, isa.SizeNone:
		return func(c *CPU, ev *Event) (uint32, error) {
			a := addr(c)
			ev.MemPenalty += c.Hier.Access(a)
			v, ok := c.Mem.LoadU32(a)
			if !ok {
				return 0, c.fault("load dword out of range at %#x", a)
			}
			return v, nil
		}
	}
	return nil
}

// compileStore builds a sized integer store (storeSized equivalent).
func compileStore(o isa.Operand) func(*CPU, uint32, *Event) error {
	addr := compileAddr(o)
	if o.Reg != isa.NoReg && !o.Reg.IsGPR() {
		return nil
	}
	if o.Index != isa.NoReg && !o.Index.IsGPR() {
		return nil
	}
	switch o.Size {
	case isa.SizeB:
		return func(c *CPU, v uint32, ev *Event) error {
			a := addr(c)
			ev.MemPenalty += c.Hier.Access(a)
			if !c.Mem.StoreU8(a, uint8(v)) {
				return c.fault("store out of range at %#x", a)
			}
			return nil
		}
	case isa.SizeW:
		return func(c *CPU, v uint32, ev *Event) error {
			a := addr(c)
			ev.MemPenalty += c.Hier.Access(a)
			if !c.Mem.StoreU16(a, uint16(v)) {
				return c.fault("store out of range at %#x", a)
			}
			return nil
		}
	case isa.SizeD, isa.SizeNone:
		return func(c *CPU, v uint32, ev *Event) error {
			a := addr(c)
			ev.MemPenalty += c.Hier.Access(a)
			if !c.Mem.StoreU32(a, v) {
				return c.fault("store out of range at %#x", a)
			}
			return nil
		}
	}
	return nil
}

// compileReadInt builds a readInt equivalent for the operand.
func compileReadInt(o isa.Operand) func(*CPU, *Event) (uint32, error) {
	switch o.Kind {
	case isa.KindReg:
		if !o.Reg.IsGPR() {
			return nil
		}
		i := o.Reg.GPRIndex()
		return func(c *CPU, _ *Event) (uint32, error) { return c.gpr[i], nil }
	case isa.KindImm:
		v := uint32(o.Imm)
		return func(*CPU, *Event) (uint32, error) { return v, nil }
	case isa.KindMem:
		return compileLoad(o)
	}
	return nil
}

// compileWriteInt builds a writeInt equivalent for the operand.
func compileWriteInt(o isa.Operand) func(*CPU, uint32, *Event) error {
	switch o.Kind {
	case isa.KindReg:
		if !o.Reg.IsGPR() {
			return nil
		}
		i := o.Reg.GPRIndex()
		return func(c *CPU, v uint32, _ *Event) error { c.gpr[i] = v; return nil }
	case isa.KindMem:
		return compileStore(o)
	}
	return nil
}

// gprDst returns the GPR index of a plain register destination, or -1.
func gprDst(o isa.Operand) int {
	if o.Kind == isa.KindReg && o.Reg.IsGPR() {
		return o.Reg.GPRIndex()
	}
	return -1
}

// ---------------------------------------------------------------------------
// Integer and control-flow compilation

// aluFn computes one two-operand ALU result and sets flags.
type aluFn func(c *CPU, a, b uint32) uint32

// compileALU specializes the read A / read B / compute / write A pattern
// shared by the two-operand ALU ops. write selects whether the result is
// stored back (false for cmp/test).
func compileALU(in *isa.Inst, f aluFn, write bool) execFn {
	ra, rb := compileReadInt(in.A), compileReadInt(in.B)
	if ra == nil || rb == nil {
		return nil
	}
	var w func(*CPU, uint32, *Event) error
	if write {
		if w = compileWriteInt(in.A); w == nil {
			return nil
		}
	}
	if d := gprDst(in.A); d >= 0 {
		// Register destination: dst read/write is direct array access.
		if in.B.Kind == isa.KindImm {
			bv := uint32(in.B.Imm)
			if write {
				return func(c *CPU, _ *Event) error {
					c.gpr[d] = f(c, c.gpr[d], bv)
					return nil
				}
			}
			return func(c *CPU, _ *Event) error { f(c, c.gpr[d], bv); return nil }
		}
		if s := gprDst(in.B); s >= 0 {
			if write {
				return func(c *CPU, _ *Event) error {
					c.gpr[d] = f(c, c.gpr[d], c.gpr[s])
					return nil
				}
			}
			return func(c *CPU, _ *Event) error { f(c, c.gpr[d], c.gpr[s]); return nil }
		}
		if write {
			return func(c *CPU, ev *Event) error {
				b, err := rb(c, ev)
				if err != nil {
					return err
				}
				c.gpr[d] = f(c, c.gpr[d], b)
				return nil
			}
		}
		return func(c *CPU, ev *Event) error {
			b, err := rb(c, ev)
			if err != nil {
				return err
			}
			f(c, c.gpr[d], b)
			return nil
		}
	}
	// Memory destination: same read/compute/write order as the generic
	// path, including the double access charge on read-modify-write.
	return func(c *CPU, ev *Event) error {
		a, err := ra(c, ev)
		if err != nil {
			return err
		}
		b, err := rb(c, ev)
		if err != nil {
			return err
		}
		r := f(c, a, b)
		if write {
			return w(c, r, ev)
		}
		return nil
	}
}

// condFn builds the flag predicate for a conditional branch opcode.
func condFn(op isa.Op) func(*CPU) bool {
	switch op {
	case isa.JE:
		return func(c *CPU) bool { return c.zf }
	case isa.JNE:
		return func(c *CPU) bool { return !c.zf }
	case isa.JL:
		return func(c *CPU) bool { return c.sf != c.of }
	case isa.JLE:
		return func(c *CPU) bool { return c.zf || c.sf != c.of }
	case isa.JG:
		return func(c *CPU) bool { return !c.zf && c.sf == c.of }
	case isa.JGE:
		return func(c *CPU) bool { return c.sf == c.of }
	case isa.JB:
		return func(c *CPU) bool { return c.cf }
	case isa.JBE:
		return func(c *CPU) bool { return c.cf || c.zf }
	case isa.JA:
		return func(c *CPU) bool { return !c.cf && !c.zf }
	case isa.JAE:
		return func(c *CPU) bool { return !c.cf }
	case isa.JS:
		return func(c *CPU) bool { return c.sf }
	case isa.JNS:
		return func(c *CPU) bool { return !c.sf }
	}
	return nil
}

func compileSpecialized(in *isa.Inst) execFn {
	switch in.Op {
	case isa.MOV:
		r, w := compileReadInt(in.B), compileWriteInt(in.A)
		if r == nil || w == nil {
			return nil
		}
		if d := gprDst(in.A); d >= 0 {
			if s := gprDst(in.B); s >= 0 {
				return func(c *CPU, _ *Event) error { c.gpr[d] = c.gpr[s]; return nil }
			}
			if in.B.Kind == isa.KindImm {
				v := uint32(in.B.Imm)
				return func(c *CPU, _ *Event) error { c.gpr[d] = v; return nil }
			}
			return func(c *CPU, ev *Event) error {
				v, err := r(c, ev)
				if err != nil {
					return err
				}
				c.gpr[d] = v
				return nil
			}
		}
		return func(c *CPU, ev *Event) error {
			v, err := r(c, ev)
			if err != nil {
				return err
			}
			return w(c, v, ev)
		}

	case isa.MOVZXB, isa.MOVZXW, isa.MOVSXB, isa.MOVSXW:
		return compileExtend(in)

	case isa.LEA:
		if !in.B.IsMem() {
			return nil
		}
		if in.B.Reg != isa.NoReg && !in.B.Reg.IsGPR() {
			return nil
		}
		if in.B.Index != isa.NoReg && !in.B.Index.IsGPR() {
			return nil
		}
		addr := compileAddr(in.B)
		if d := gprDst(in.A); d >= 0 {
			return func(c *CPU, _ *Event) error { c.gpr[d] = addr(c); return nil }
		}
		return nil

	case isa.XCHG:
		if gprDst(in.A) < 0 || gprDst(in.B) < 0 {
			return nil
		}
		i, j := in.A.Reg.GPRIndex(), in.B.Reg.GPRIndex()
		return func(c *CPU, _ *Event) error {
			c.gpr[i], c.gpr[j] = c.gpr[j], c.gpr[i]
			return nil
		}

	case isa.PUSH:
		r := compileReadInt(in.A)
		if r == nil {
			return nil
		}
		return func(c *CPU, ev *Event) error {
			v, err := r(c, ev)
			if err != nil {
				return err
			}
			return c.push32(v, ev)
		}
	case isa.POP:
		w := compileWriteInt(in.A)
		if w == nil {
			return nil
		}
		return func(c *CPU, ev *Event) error {
			v, err := c.pop32(ev)
			if err != nil {
				return err
			}
			return w(c, v, ev)
		}

	case isa.ADD:
		return compileALU(in, func(c *CPU, a, b uint32) uint32 {
			r := a + b
			c.setAdd(a, b, r)
			return r
		}, true)
	case isa.SUB:
		return compileALU(in, func(c *CPU, a, b uint32) uint32 {
			r := a - b
			c.setSub(a, b, r)
			return r
		}, true)
	case isa.CMP:
		return compileALU(in, func(c *CPU, a, b uint32) uint32 {
			c.setSub(a, b, a-b)
			return 0
		}, false)
	case isa.AND:
		return compileALU(in, func(c *CPU, a, b uint32) uint32 {
			r := a & b
			c.setLogic(r)
			return r
		}, true)
	case isa.TEST:
		return compileALU(in, func(c *CPU, a, b uint32) uint32 {
			c.setLogic(a & b)
			return 0
		}, false)
	case isa.OR:
		return compileALU(in, func(c *CPU, a, b uint32) uint32 {
			r := a | b
			c.setLogic(r)
			return r
		}, true)
	case isa.XOR:
		return compileALU(in, func(c *CPU, a, b uint32) uint32 {
			r := a ^ b
			c.setLogic(r)
			return r
		}, true)
	case isa.IMUL:
		return compileALU(in, func(c *CPU, a, b uint32) uint32 {
			full := int64(int32(a)) * int64(int32(b))
			r := uint32(full)
			c.cf = full != int64(int32(r))
			c.of = c.cf
			return r
		}, true)

	case isa.NOT:
		d := gprDst(in.A)
		if d < 0 {
			return nil
		}
		return func(c *CPU, _ *Event) error { c.gpr[d] = ^c.gpr[d]; return nil }
	case isa.NEG:
		d := gprDst(in.A)
		if d < 0 {
			return nil
		}
		return func(c *CPU, _ *Event) error {
			a := c.gpr[d]
			r := -a
			c.setSub(0, a, r)
			c.gpr[d] = r
			return nil
		}
	case isa.INC:
		d := gprDst(in.A)
		if d < 0 {
			return nil
		}
		return func(c *CPU, _ *Event) error {
			r := c.gpr[d] + 1
			c.of = r == 0x80000000
			c.setZS(r)
			c.gpr[d] = r
			return nil
		}
	case isa.DEC:
		d := gprDst(in.A)
		if d < 0 {
			return nil
		}
		return func(c *CPU, _ *Event) error {
			a := c.gpr[d]
			r := a - 1
			c.of = a == 0x80000000
			c.setZS(r)
			c.gpr[d] = r
			return nil
		}

	case isa.SHL, isa.SHR, isa.SAR:
		return compileShift(in)

	case isa.CDQ:
		return func(c *CPU, _ *Event) error {
			if int32(c.gpr[isa.EAX.GPRIndex()]) < 0 {
				c.gpr[isa.EDX.GPRIndex()] = 0xFFFFFFFF
			} else {
				c.gpr[isa.EDX.GPRIndex()] = 0
			}
			return nil
		}

	case isa.JMP:
		t := int(in.Target)
		return func(c *CPU, ev *Event) error {
			c.pc = t
			ev.Taken = true
			return nil
		}
	case isa.JE, isa.JNE, isa.JL, isa.JLE, isa.JG, isa.JGE,
		isa.JB, isa.JBE, isa.JA, isa.JAE, isa.JS, isa.JNS:
		t := int(in.Target)
		cond := condFn(in.Op)
		return func(c *CPU, ev *Event) error {
			if cond(c) {
				c.pc = t
				ev.Taken = true
			}
			return nil
		}
	case isa.CALL:
		t := int(in.Target)
		return func(c *CPU, ev *Event) error {
			if err := c.push32(uint32(c.pc+1), ev); err != nil {
				return err
			}
			c.pc = t
			ev.Taken = true
			return nil
		}
	case isa.RET:
		return func(c *CPU, ev *Event) error {
			ra, err := c.pop32(ev)
			if err != nil {
				return err
			}
			c.pc = int(ra)
			ev.Taken = true
			return nil
		}
	case isa.HALT:
		return func(c *CPU, ev *Event) error {
			c.halted = true
			ev.Taken = true
			ev.Target = c.pc
			return nil
		}
	}

	if in.Op.IsMMX() {
		return compileMMX(in)
	}
	if in.Op.IsFP() {
		return compileFP(in)
	}
	return nil
}

// compileExtend specializes movzx/movsx.
func compileExtend(in *isa.Inst) execFn {
	d := gprDst(in.A)
	if d < 0 {
		return nil
	}
	var size isa.Size
	switch in.Op {
	case isa.MOVZXB, isa.MOVSXB:
		size = isa.SizeB
	default:
		size = isa.SizeW
	}
	var src func(*CPU, *Event) (uint32, error)
	if s := gprDst(in.B); s >= 0 {
		src = func(c *CPU, _ *Event) (uint32, error) { return c.gpr[s], nil }
	} else if in.B.IsMem() {
		o := in.B
		o.Size = size
		if src = compileLoad(o); src == nil {
			return nil
		}
	} else {
		return nil
	}
	switch in.Op {
	case isa.MOVZXB:
		return func(c *CPU, ev *Event) error {
			v, err := src(c, ev)
			if err != nil {
				return err
			}
			c.gpr[d] = v & 0xFF
			return nil
		}
	case isa.MOVZXW:
		return func(c *CPU, ev *Event) error {
			v, err := src(c, ev)
			if err != nil {
				return err
			}
			c.gpr[d] = v & 0xFFFF
			return nil
		}
	case isa.MOVSXB:
		return func(c *CPU, ev *Event) error {
			v, err := src(c, ev)
			if err != nil {
				return err
			}
			c.gpr[d] = uint32(int32(int8(v)))
			return nil
		}
	default: // MOVSXW
		return func(c *CPU, ev *Event) error {
			v, err := src(c, ev)
			if err != nil {
				return err
			}
			c.gpr[d] = uint32(int32(int16(v)))
			return nil
		}
	}
}

// compileShift specializes shl/shr/sar with a register destination and an
// immediate count. A zero count (after masking) leaves flags untouched and
// performs no write, matching the generic path.
func compileShift(in *isa.Inst) execFn {
	d := gprDst(in.A)
	if d < 0 || in.B.Kind != isa.KindImm {
		return nil
	}
	cnt := uint32(in.B.Imm) & 31
	if cnt == 0 {
		return func(*CPU, *Event) error { return nil }
	}
	switch in.Op {
	case isa.SHL:
		return func(c *CPU, _ *Event) error {
			a := c.gpr[d]
			r := a << cnt
			c.cf = a&(1<<(32-cnt)) != 0
			c.setZS(r)
			c.of = false
			c.gpr[d] = r
			return nil
		}
	case isa.SHR:
		return func(c *CPU, _ *Event) error {
			a := c.gpr[d]
			r := a >> cnt
			c.cf = a&(1<<(cnt-1)) != 0
			c.setZS(r)
			c.of = false
			c.gpr[d] = r
			return nil
		}
	default: // SAR
		return func(c *CPU, _ *Event) error {
			a := c.gpr[d]
			r := uint32(int32(a) >> cnt)
			c.cf = a&(1<<(cnt-1)) != 0
			c.setZS(r)
			c.of = false
			c.gpr[d] = r
			return nil
		}
	}
}

// ---------------------------------------------------------------------------
// MMX compilation

// compileReadMM builds a readMMSrc equivalent (mm register or 64-bit memory).
func compileReadMM(o isa.Operand) func(*CPU, *Event) (mmx.Reg, error) {
	switch o.Kind {
	case isa.KindReg:
		if !o.Reg.IsMMX() {
			return nil
		}
		i := o.Reg.MMXIndex()
		return func(c *CPU, _ *Event) (mmx.Reg, error) { return c.mm[i], nil }
	case isa.KindMem:
		if o.Reg != isa.NoReg && !o.Reg.IsGPR() {
			return nil
		}
		if o.Index != isa.NoReg && !o.Index.IsGPR() {
			return nil
		}
		addr := compileAddr(o)
		if o.Size == isa.SizeD {
			return func(c *CPU, ev *Event) (mmx.Reg, error) {
				a := addr(c)
				ev.MemPenalty += c.Hier.Access(a)
				v, ok := c.Mem.LoadU32(a)
				if !ok {
					return 0, c.fault("mmx dword load out of range at %#x", a)
				}
				return mmx.Reg(uint64(v)), nil
			}
		}
		return func(c *CPU, ev *Event) (mmx.Reg, error) {
			a := addr(c)
			ev.MemPenalty += c.Hier.Access(a)
			v, ok := c.Mem.LoadU64(a)
			if !ok {
				return 0, c.fault("mmx qword load out of range at %#x", a)
			}
			return mmx.Reg(v), nil
		}
	}
	return nil
}

func compileMMX(in *isa.Inst) execFn {
	if in.Op == isa.EMMS {
		return func(c *CPU, _ *Event) error { c.mmxActive = false; return nil }
	}

	switch in.Op {
	case isa.MOVD:
		if in.A.IsReg() && in.A.Reg.IsMMX() {
			d := in.A.Reg.MMXIndex()
			r := compileReadInt(in.B)
			if r == nil {
				return nil
			}
			return func(c *CPU, ev *Event) error {
				c.mmxActive = true
				v, err := r(c, ev)
				if err != nil {
					return err
				}
				c.mm[d] = mmx.Reg(uint64(v))
				return nil
			}
		}
		src := compileReadMM(in.B)
		w := compileWriteInt(in.A)
		if src == nil || w == nil {
			return nil
		}
		return func(c *CPU, ev *Event) error {
			c.mmxActive = true
			v, err := src(c, ev)
			if err != nil {
				return err
			}
			return w(c, uint32(v), ev)
		}

	case isa.MOVQ:
		if in.A.IsReg() && in.A.Reg.IsMMX() {
			d := in.A.Reg.MMXIndex()
			if in.B.IsReg() && in.B.Reg.IsMMX() {
				s := in.B.Reg.MMXIndex()
				return func(c *CPU, _ *Event) error {
					c.mmxActive = true
					c.mm[d] = c.mm[s]
					return nil
				}
			}
			src := compileReadMM(in.B)
			if src == nil {
				return nil
			}
			return func(c *CPU, ev *Event) error {
				c.mmxActive = true
				v, err := src(c, ev)
				if err != nil {
					return err
				}
				c.mm[d] = v
				return nil
			}
		}
		if !in.A.IsMem() {
			return nil
		}
		if in.A.Reg != isa.NoReg && !in.A.Reg.IsGPR() {
			return nil
		}
		if in.A.Index != isa.NoReg && !in.A.Index.IsGPR() {
			return nil
		}
		src := compileReadMM(in.B)
		if src == nil {
			return nil
		}
		addr := compileAddr(in.A)
		return func(c *CPU, ev *Event) error {
			c.mmxActive = true
			v, err := src(c, ev)
			if err != nil {
				return err
			}
			a := addr(c)
			ev.MemPenalty += c.Hier.Access(a)
			if !c.Mem.StoreU64(a, uint64(v)) {
				return c.fault("movq store out of range at %#x", a)
			}
			return nil
		}

	case isa.PSLLW, isa.PSLLD, isa.PSLLQ, isa.PSRLW, isa.PSRLD, isa.PSRLQ,
		isa.PSRAW, isa.PSRAD:
		if !in.A.IsReg() || !in.A.Reg.IsMMX() {
			return nil
		}
		d := in.A.Reg.MMXIndex()
		var shift func(mmx.Reg, uint) mmx.Reg
		switch in.Op {
		case isa.PSLLW:
			shift = mmx.PSllW
		case isa.PSLLD:
			shift = mmx.PSllD
		case isa.PSLLQ:
			shift = mmx.PSllQ
		case isa.PSRLW:
			shift = mmx.PSrlW
		case isa.PSRLD:
			shift = mmx.PSrlD
		case isa.PSRLQ:
			shift = mmx.PSrlQ
		case isa.PSRAW:
			shift = mmx.PSraW
		case isa.PSRAD:
			shift = mmx.PSraD
		}
		if in.B.IsImm() {
			n := uint64(in.B.Imm)
			if n > 64 {
				n = 64
			}
			un := uint(n)
			return func(c *CPU, _ *Event) error {
				c.mmxActive = true
				c.mm[d] = shift(c.mm[d], un)
				return nil
			}
		}
		src := compileReadMM(in.B)
		if src == nil {
			return nil
		}
		return func(c *CPU, ev *Event) error {
			c.mmxActive = true
			v, err := src(c, ev)
			if err != nil {
				return err
			}
			n := uint64(v)
			if n > 64 {
				n = 64
			}
			c.mm[d] = shift(c.mm[d], uint(n))
			return nil
		}
	}

	// Two-operand mm, mm/m64 forms with known value semantics.
	f, ok := mmxBinary[in.Op]
	if !ok || !in.A.IsReg() || !in.A.Reg.IsMMX() {
		return nil
	}
	d := in.A.Reg.MMXIndex()
	if in.B.IsReg() && in.B.Reg.IsMMX() {
		s := in.B.Reg.MMXIndex()
		return func(c *CPU, _ *Event) error {
			c.mmxActive = true
			c.mm[d] = f(c.mm[d], c.mm[s])
			return nil
		}
	}
	src := compileReadMM(in.B)
	if src == nil {
		return nil
	}
	return func(c *CPU, ev *Event) error {
		c.mmxActive = true
		v, err := src(c, ev)
		if err != nil {
			return err
		}
		c.mm[d] = f(c.mm[d], v)
		return nil
	}
}

// ---------------------------------------------------------------------------
// Floating-point compilation. Every FP handler replicates the generic
// path's MMX-mode guard (and its exact fault text) before touching state.

const fpWhileMMX = "floating-point instruction while MMX state active (missing emms)"

// fpDst returns the FP register index of a plain FP register destination,
// or -1.
func fpDst(o isa.Operand) int {
	if o.Kind == isa.KindReg && o.Reg.IsFP() {
		return o.Reg.FPIndex()
	}
	return -1
}

// compileReadFloat builds a readFloat equivalent (FP register or
// float32/float64 memory operand).
func compileReadFloat(o isa.Operand) func(*CPU, *Event) (float64, error) {
	switch o.Kind {
	case isa.KindReg:
		if !o.Reg.IsFP() {
			return nil
		}
		i := o.Reg.FPIndex()
		return func(c *CPU, _ *Event) (float64, error) { return c.fp[i], nil }
	case isa.KindMem:
		if o.Reg != isa.NoReg && !o.Reg.IsGPR() {
			return nil
		}
		if o.Index != isa.NoReg && !o.Index.IsGPR() {
			return nil
		}
		addr := compileAddr(o)
		switch o.Size {
		case isa.SizeD:
			return func(c *CPU, ev *Event) (float64, error) {
				a := addr(c)
				ev.MemPenalty += c.Hier.Access(a)
				raw, ok := c.Mem.LoadU32(a)
				if !ok {
					return 0, c.fault("float load out of range at %#x", a)
				}
				return float64(math.Float32frombits(raw)), nil
			}
		case isa.SizeQ:
			return func(c *CPU, ev *Event) (float64, error) {
				a := addr(c)
				ev.MemPenalty += c.Hier.Access(a)
				raw, ok := c.Mem.LoadU64(a)
				if !ok {
					return 0, c.fault("double load out of range at %#x", a)
				}
				return math.Float64frombits(raw), nil
			}
		}
		return nil
	}
	return nil
}

func compileFP(in *isa.Inst) execFn {
	switch in.Op {
	case isa.FLD:
		d := fpDst(in.A)
		src := compileReadFloat(in.B)
		if d < 0 || src == nil {
			return nil
		}
		return func(c *CPU, ev *Event) error {
			if c.mmxActive {
				return c.fault(fpWhileMMX)
			}
			v, err := src(c, ev)
			if err != nil {
				return err
			}
			c.fp[d] = v
			return nil
		}

	case isa.FLDC:
		d := fpDst(in.A)
		if d < 0 || !in.B.IsImm() {
			return nil
		}
		v := math.Float64frombits(uint64(in.B.Imm))
		return func(c *CPU, _ *Event) error {
			if c.mmxActive {
				return c.fault(fpWhileMMX)
			}
			c.fp[d] = v
			return nil
		}

	case isa.FADD, isa.FSUB, isa.FSUBR, isa.FMUL, isa.FDIV:
		d := fpDst(in.A)
		src := compileReadFloat(in.B)
		if d < 0 || src == nil {
			return nil
		}
		var f func(a, b float64) float64
		switch in.Op {
		case isa.FADD:
			f = func(a, b float64) float64 { return a + b }
		case isa.FSUB:
			f = func(a, b float64) float64 { return a - b }
		case isa.FSUBR:
			f = func(a, b float64) float64 { return b - a }
		case isa.FMUL:
			f = func(a, b float64) float64 { return a * b }
		case isa.FDIV:
			f = func(a, b float64) float64 { return a / b }
		}
		return func(c *CPU, ev *Event) error {
			if c.mmxActive {
				return c.fault(fpWhileMMX)
			}
			b, err := src(c, ev)
			if err != nil {
				return err
			}
			c.fp[d] = f(c.fp[d], b)
			return nil
		}

	case isa.FCHS, isa.FABS, isa.FSQRT, isa.FSIN, isa.FCOS:
		// Unary ops read and write the same FP register; the generic path
		// routes them through execFP's math calls, which stay out of the
		// closure so the compiled form is identical in behavior.
		return nil

	case isa.FCOM:
		sa := compileReadFloat(in.A)
		sb := compileReadFloat(in.B)
		if sa == nil || sb == nil || !in.A.IsReg() {
			return nil
		}
		return func(c *CPU, ev *Event) error {
			if c.mmxActive {
				return c.fault(fpWhileMMX)
			}
			a, err := sa(c, ev)
			if err != nil {
				return err
			}
			b, err := sb(c, ev)
			if err != nil {
				return err
			}
			c.zf = a == b
			c.cf = a < b
			c.sf = false
			c.of = false
			return nil
		}
	}
	return nil
}
