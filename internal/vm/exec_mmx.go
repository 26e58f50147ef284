package vm

import (
	"mmxdsp/internal/isa"
	"mmxdsp/internal/mmx"
)

// execMMX executes MMX instructions. Any MMX instruction (except emms)
// puts the machine in MMX mode; emms returns it to FP mode.
func (c *CPU) execMMX(in *isa.Inst) error {
	if in.Op == isa.EMMS {
		c.mmxActive = false
		return nil
	}
	c.mmxActive = true

	switch in.Op {
	case isa.MOVD:
		// movd mm, r32/m32 zero-extends; movd r32/m32, mm takes the low dword.
		if in.A.IsReg() && in.A.Reg.IsMMX() {
			v, err := c.readInt(in.B)
			if err != nil {
				return err
			}
			c.mm[in.A.Reg.MMXIndex()] = mmx.Reg(uint64(v))
			return nil
		}
		v, err := c.readMMSrc(in.B)
		if err != nil {
			return err
		}
		return c.writeInt(in.A, uint32(v))

	case isa.MOVQ:
		if in.A.IsReg() && in.A.Reg.IsMMX() {
			v, err := c.readMMSrc(in.B)
			if err != nil {
				return err
			}
			c.mm[in.A.Reg.MMXIndex()] = v
			return nil
		}
		if !in.A.IsMem() {
			return c.fault("movq destination must be mm register or memory")
		}
		v, err := c.readMMSrc(in.B)
		if err != nil {
			return err
		}
		addr := c.effAddr(in.A)
		c.noteAccess(addr)
		if !c.Mem.StoreU64(addr, uint64(v)) {
			return c.fault("movq store out of range at %#x", addr)
		}
		return nil
	}

	if shift := mmxShift[in.Op]; shift != nil {
		dst, err := c.readMMReg(in.A)
		if err != nil {
			return err
		}
		var n uint64
		if in.B.IsImm() {
			n = uint64(in.B.Imm)
		} else {
			v, err := c.readMMSrc(in.B)
			if err != nil {
				return err
			}
			n = uint64(v)
		}
		// Hardware treats the count as a 64-bit value; anything >= 64
		// behaves like a max-width shift and the lane ops handle it.
		c.mm[in.A.Reg.MMXIndex()] = shift(dst, uint(min(n, 64)))
		return nil
	}

	// All remaining MMX operations are two-operand mm, mm/m64 forms.
	dst, err := c.readMMReg(in.A)
	if err != nil {
		return err
	}
	src, err := c.readMMSrc(in.B)
	if err != nil {
		return err
	}
	f := mmxBinary[in.Op]
	if f == nil {
		return c.fault("unimplemented MMX op %s", in.Op)
	}
	c.mm[in.A.Reg.MMXIndex()] = f(dst, src)
	return nil
}

// mmxBinary and mmxShift map the two-operand and shift MMX opcodes to
// their value semantics (nil for every other opcode). Both executors use
// them: execMMX directly, and lowerInst to fill the micro-ops' mfn/sfn.
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

func (c *CPU) readMMReg(o isa.Operand) (mmx.Reg, error) {
	if !o.IsReg() || !o.Reg.IsMMX() {
		return 0, c.fault("expected mm register, have %s", o)
	}
	return c.mm[o.Reg.MMXIndex()], nil
}

// readMMSrc reads an mm register or a 64-bit memory operand.
func (c *CPU) readMMSrc(o isa.Operand) (mmx.Reg, error) {
	switch o.Kind {
	case isa.KindReg:
		return c.readMMReg(o)
	case isa.KindMem:
		addr := c.effAddr(o)
		c.noteAccess(addr)
		if o.Size == isa.SizeD {
			v, ok := c.Mem.LoadU32(addr)
			if !ok {
				return 0, c.fault("mmx dword load out of range at %#x", addr)
			}
			return mmx.Reg(uint64(v)), nil
		}
		v, ok := c.Mem.LoadU64(addr)
		if !ok {
			return 0, c.fault("mmx qword load out of range at %#x", addr)
		}
		return mmx.Reg(v), nil
	}
	return 0, c.fault("bad mmx operand %s", o)
}
