package vm

import "mmxdsp/internal/isa"

// execInt executes integer ALU, data-movement and control instructions.
func (c *CPU) execInt(in *isa.Inst, ev *Event) error {
	switch in.Op {
	case isa.MOV:
		// Distinguish store-from-register width from full register moves.
		v, err := c.readInt(in.B)
		if err != nil {
			return err
		}
		return c.writeInt(in.A, v)

	case isa.MOVZXB:
		v, err := c.loadSizedAs(in.B, isa.SizeB)
		if err != nil {
			return err
		}
		return c.writeInt(in.A, v&0xFF)
	case isa.MOVZXW:
		v, err := c.loadSizedAs(in.B, isa.SizeW)
		if err != nil {
			return err
		}
		return c.writeInt(in.A, v&0xFFFF)
	case isa.MOVSXB:
		v, err := c.loadSizedAs(in.B, isa.SizeB)
		if err != nil {
			return err
		}
		return c.writeInt(in.A, uint32(int32(int8(v))))
	case isa.MOVSXW:
		v, err := c.loadSizedAs(in.B, isa.SizeW)
		if err != nil {
			return err
		}
		return c.writeInt(in.A, uint32(int32(int16(v))))

	case isa.LEA:
		if !in.B.IsMem() {
			return c.fault("lea needs a memory operand")
		}
		return c.writeInt(in.A, c.effAddr(in.B))

	case isa.XCHG:
		if !in.A.IsReg() || !in.B.IsReg() {
			return c.fault("xchg supports register operands only")
		}
		i, j := in.A.Reg.GPRIndex(), in.B.Reg.GPRIndex()
		c.gpr[i], c.gpr[j] = c.gpr[j], c.gpr[i]
		return nil

	case isa.PUSH:
		v, err := c.readInt(in.A)
		if err != nil {
			return err
		}
		return c.push32(v)
	case isa.POP:
		v, err := c.pop32()
		if err != nil {
			return err
		}
		return c.writeInt(in.A, v)

	case isa.ADD, isa.ADC:
		a, err := c.readInt(in.A)
		if err != nil {
			return err
		}
		b, err := c.readInt(in.B)
		if err != nil {
			return err
		}
		if in.Op == isa.ADC && c.cf {
			b++
		}
		r := a + b
		c.setAdd(a, b, r)
		return c.writeInt(in.A, r)

	case isa.SUB, isa.SBB:
		a, err := c.readInt(in.A)
		if err != nil {
			return err
		}
		b, err := c.readInt(in.B)
		if err != nil {
			return err
		}
		if in.Op == isa.SBB && c.cf {
			b++
		}
		r := a - b
		c.setSub(a, b, r)
		return c.writeInt(in.A, r)

	case isa.CMP:
		a, err := c.readInt(in.A)
		if err != nil {
			return err
		}
		b, err := c.readInt(in.B)
		if err != nil {
			return err
		}
		c.setSub(a, b, a-b)
		return nil

	case isa.AND, isa.OR, isa.XOR, isa.TEST:
		a, err := c.readInt(in.A)
		if err != nil {
			return err
		}
		b, err := c.readInt(in.B)
		if err != nil {
			return err
		}
		var r uint32
		switch in.Op {
		case isa.AND, isa.TEST:
			r = a & b
		case isa.OR:
			r = a | b
		case isa.XOR:
			r = a ^ b
		}
		c.setLogic(r)
		if in.Op == isa.TEST {
			return nil
		}
		return c.writeInt(in.A, r)

	case isa.NOT:
		a, err := c.readInt(in.A)
		if err != nil {
			return err
		}
		return c.writeInt(in.A, ^a)

	case isa.NEG:
		a, err := c.readInt(in.A)
		if err != nil {
			return err
		}
		r := -a
		c.setSub(0, a, r)
		return c.writeInt(in.A, r)

	case isa.INC, isa.DEC:
		a, err := c.readInt(in.A)
		if err != nil {
			return err
		}
		var r uint32
		if in.Op == isa.INC {
			r = a + 1
			c.of = r == 0x80000000
		} else {
			r = a - 1
			c.of = a == 0x80000000
		}
		c.setZS(r) // inc/dec preserve CF, as on IA-32
		return c.writeInt(in.A, r)

	case isa.SHL, isa.SHR, isa.SAR:
		a, err := c.readInt(in.A)
		if err != nil {
			return err
		}
		cnt, err := c.readInt(in.B)
		if err != nil {
			return err
		}
		cnt &= 31
		if cnt == 0 {
			return nil // flags unchanged, no write needed
		}
		var r uint32
		switch in.Op {
		case isa.SHL:
			r = a << cnt
			c.cf = a&(1<<(32-cnt)) != 0
		case isa.SHR:
			r = a >> cnt
			c.cf = a&(1<<(cnt-1)) != 0
		case isa.SAR:
			r = uint32(int32(a) >> cnt)
			c.cf = a&(1<<(cnt-1)) != 0
		}
		c.setZS(r)
		c.of = false
		return c.writeInt(in.A, r)

	case isa.IMUL:
		a, err := c.readInt(in.A)
		if err != nil {
			return err
		}
		b, err := c.readInt(in.B)
		if err != nil {
			return err
		}
		full := int64(int32(a)) * int64(int32(b))
		r := uint32(full)
		c.cf = full != int64(int32(r))
		c.of = c.cf
		return c.writeInt(in.A, r)

	case isa.IDIV:
		d, err := c.readInt(in.A)
		if err != nil {
			return err
		}
		if d == 0 {
			return c.fault("integer divide by zero")
		}
		num := int64(c.gpr[isa.EDX.GPRIndex()])<<32 | int64(c.gpr[isa.EAX.GPRIndex()])
		den := int64(int32(d))
		quo := num / den
		rem := num % den
		if quo > 0x7FFFFFFF || quo < -0x80000000 {
			return c.fault("idiv overflow (%d / %d)", num, den)
		}
		c.gpr[isa.EAX.GPRIndex()] = uint32(quo)
		c.gpr[isa.EDX.GPRIndex()] = uint32(rem)
		return nil

	case isa.CDQ:
		if int32(c.gpr[isa.EAX.GPRIndex()]) < 0 {
			c.gpr[isa.EDX.GPRIndex()] = 0xFFFFFFFF
		} else {
			c.gpr[isa.EDX.GPRIndex()] = 0
		}
		return nil

	case isa.JMP:
		c.pc = int(in.Target)
		ev.Taken = true
		return nil

	case isa.JE, isa.JNE, isa.JL, isa.JLE, isa.JG, isa.JGE,
		isa.JB, isa.JBE, isa.JA, isa.JAE, isa.JS, isa.JNS:
		if c.cond(in.Op) {
			c.pc = int(in.Target)
			ev.Taken = true
		}
		return nil

	case isa.CALL:
		if err := c.push32(uint32(c.pc + 1)); err != nil {
			return err
		}
		c.pc = int(in.Target)
		ev.Taken = true
		return nil

	case isa.RET:
		ra, err := c.pop32()
		if err != nil {
			return err
		}
		c.pc = int(ra)
		ev.Taken = true
		return nil

	case isa.HALT:
		c.halted = true
		ev.Taken = true
		ev.Target = c.pc
		return nil
	}
	return c.fault("unimplemented integer op %s", in.Op)
}

// loadSizedAs reads a value forcing the given width (for movzx/movsx whose
// width is part of the opcode). Register sources use the low bits.
func (c *CPU) loadSizedAs(o isa.Operand, size isa.Size) (uint32, error) {
	if o.Kind == isa.KindReg {
		return c.gpr[o.Reg.GPRIndex()], nil
	}
	o.Size = size
	return c.loadSized(o)
}
