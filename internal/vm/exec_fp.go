package vm

import (
	"math"

	"mmxdsp/internal/isa"
)

// fpWhileMMX is the fault text of an FP instruction in MMX mode; the FP
// micro-ops raise it too.
const fpWhileMMX = "floating-point instruction while MMX state active (missing emms)"

// fstRange is the fault format of an out-of-range fst store, shared with
// the uFStore micro-ops.
const fstRange = "fst out of range at %#x"

// execFP executes floating-point instructions against the flat FP register
// file. The FP registers physically alias the MMX registers: executing an
// FP instruction while the machine is in MMX mode (after any MMX
// instruction, before emms) is an error, which models the real Pentium's
// corrupted-FP-stack hazard and forces programs to pay the emms penalty at
// every MMX-to-FP transition, exactly the cost the paper highlights.
func (c *CPU) execFP(in *isa.Inst) error {
	if c.mmxActive {
		return c.fault(fpWhileMMX)
	}
	switch in.Op {
	case isa.FLD:
		v, err := c.readFloat(in.B)
		if err != nil {
			return err
		}
		return c.writeFPReg(in.A, v)

	case isa.FLDC:
		if !in.B.IsImm() {
			return c.fault("fldc needs an immediate")
		}
		return c.writeFPReg(in.A, math.Float64frombits(uint64(in.B.Imm)))

	case isa.FST:
		v, err := c.readFPReg(in.B)
		if err != nil {
			return err
		}
		if in.A.IsReg() {
			return c.writeFPReg(in.A, v)
		}
		addr := c.effAddr(in.A)
		c.noteAccess(addr)
		var ok bool
		switch in.A.Size {
		case isa.SizeD:
			ok = c.Mem.StoreU32(addr, math.Float32bits(float32(v)))
		case isa.SizeQ:
			ok = c.Mem.StoreU64(addr, math.Float64bits(v))
		default:
			return c.fault("fst needs dword or qword destination")
		}
		if !ok {
			return c.fault(fstRange, addr)
		}
		return nil

	case isa.FILD:
		if !in.B.IsMem() {
			return c.fault("fild needs a memory source")
		}
		addr := c.effAddr(in.B)
		c.noteAccess(addr)
		var v float64
		switch in.B.Size {
		case isa.SizeW:
			raw, ok := c.Mem.LoadU16(addr)
			if !ok {
				return c.fault("fild out of range at %#x", addr)
			}
			v = float64(int16(raw))
		case isa.SizeD:
			raw, ok := c.Mem.LoadU32(addr)
			if !ok {
				return c.fault("fild out of range at %#x", addr)
			}
			v = float64(int32(raw))
		default:
			return c.fault("fild needs word or dword source")
		}
		return c.writeFPReg(in.A, v)

	case isa.FIST:
		v, err := c.readFPReg(in.B)
		if err != nil {
			return err
		}
		if !in.A.IsMem() {
			return c.fault("fist needs a memory destination")
		}
		addr := c.effAddr(in.A)
		c.noteAccess(addr)
		r := math.RoundToEven(v)
		var ok bool
		switch in.A.Size {
		case isa.SizeW:
			ok = c.Mem.StoreU16(addr, uint16(satI16(r)))
		case isa.SizeD:
			ok = c.Mem.StoreU32(addr, uint32(satI32(r)))
		default:
			return c.fault("fist needs word or dword destination")
		}
		if !ok {
			return c.fault("fist out of range at %#x", addr)
		}
		return nil

	case isa.FADD, isa.FSUB, isa.FSUBR, isa.FMUL, isa.FDIV:
		a, err := c.readFPReg(in.A)
		if err != nil {
			return err
		}
		b, err := c.readFloat(in.B)
		if err != nil {
			return err
		}
		var r float64
		switch in.Op {
		case isa.FADD:
			r = a + b
		case isa.FSUB:
			r = a - b
		case isa.FSUBR:
			r = b - a
		case isa.FMUL:
			r = a * b
		case isa.FDIV:
			r = a / b
		}
		return c.writeFPReg(in.A, r)

	case isa.FCHS:
		a, err := c.readFPReg(in.A)
		if err != nil {
			return err
		}
		return c.writeFPReg(in.A, -a)
	case isa.FABS:
		a, err := c.readFPReg(in.A)
		if err != nil {
			return err
		}
		return c.writeFPReg(in.A, math.Abs(a))
	case isa.FSQRT:
		a, err := c.readFPReg(in.A)
		if err != nil {
			return err
		}
		return c.writeFPReg(in.A, math.Sqrt(a))
	case isa.FSIN:
		a, err := c.readFPReg(in.A)
		if err != nil {
			return err
		}
		return c.writeFPReg(in.A, math.Sin(a))
	case isa.FCOS:
		a, err := c.readFPReg(in.A)
		if err != nil {
			return err
		}
		return c.writeFPReg(in.A, math.Cos(a))

	case isa.FCOM:
		// Sets the integer flags like fcomi: ZF on equality, CF on a < b,
		// so the unsigned branch family (jb/ja/jbe/jae/je) tests floats.
		a, err := c.readFPReg(in.A)
		if err != nil {
			return err
		}
		b, err := c.readFloat(in.B)
		if err != nil {
			return err
		}
		c.zf = a == b
		c.cf = a < b
		c.sf = false
		c.of = false
		return nil
	}
	return c.fault("unimplemented FP op %s", in.Op)
}

func (c *CPU) readFPReg(o isa.Operand) (float64, error) {
	if !o.IsReg() || !o.Reg.IsFP() {
		return 0, c.fault("expected FP register, have %s", o)
	}
	return c.fp[o.Reg.FPIndex()], nil
}

func (c *CPU) writeFPReg(o isa.Operand, v float64) error {
	if !o.IsReg() || !o.Reg.IsFP() {
		return c.fault("expected FP register destination, have %s", o)
	}
	c.fp[o.Reg.FPIndex()] = v
	return nil
}

// readFloat reads an FP register or a float32/float64 memory operand.
func (c *CPU) readFloat(o isa.Operand) (float64, error) {
	switch o.Kind {
	case isa.KindReg:
		return c.readFPReg(o)
	case isa.KindMem:
		addr := c.effAddr(o)
		c.noteAccess(addr)
		switch o.Size {
		case isa.SizeD:
			raw, ok := c.Mem.LoadU32(addr)
			if !ok {
				return 0, c.fault("float load out of range at %#x", addr)
			}
			return float64(math.Float32frombits(raw)), nil
		case isa.SizeQ:
			raw, ok := c.Mem.LoadU64(addr)
			if !ok {
				return 0, c.fault("double load out of range at %#x", addr)
			}
			return math.Float64frombits(raw), nil
		}
		return 0, c.fault("float operand needs dword or qword size")
	}
	return 0, c.fault("bad float operand %s", o)
}

// satI16 converts a rounded float to int16 with saturation (the x87 would
// store the integer-indefinite value on overflow; saturation is the DSP
// convention every program here relies on and is documented in DESIGN.md).
func satI16(v float64) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return int16(v)
}

func satI32(v float64) int32 {
	if v > 2147483647 {
		return 2147483647
	}
	if v < -2147483648 {
		return -2147483648
	}
	return int32(v)
}
