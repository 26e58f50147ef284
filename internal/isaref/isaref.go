// Package isaref is a deliberately naive reference interpreter of the
// simulated ISA — integer, control, x87 and MMX instructions in every
// operand shape, faults included — the oracle the tests hold every
// execution path of internal/vm against. An operand shape the ISA does not
// accept faults where the instruction decodes it; those checks are written
// here, apart from the assembler's shape table, which the tests hold to
// them.
//
// It shares no code with what it checks: it imports none of internal/vm,
// mem, mmx, fixed, pentium or profile. Memory is a plain byte slice with
// its own range rule, flags come from widened 64-bit arithmetic rather than
// bit formulas, and each opcode is one arm of a switch that decodes its own
// operands, in the shape of a textbook emulator. MMX lanes come from the
// per-lane model of internal/mmxref. Speed is not a goal; only the tests
// import it.
package isaref

import (
	"fmt"
	"math"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/mmxref"
)

// Machine is the architectural state of one run.
type Machine struct {
	GPR [8]uint32
	MM  [8]uint64
	FP  [8]float64
	Mem []byte
	// PC is the next instruction, or the faulting one after a fault.
	PC int
	// Executed counts retired instructions, pseudo ones included; a
	// faulting instruction counts as retired.
	Executed int64
	Halted   bool
	// Retired counts retirements per opcode, faulting ones included.
	Retired [isa.NumOps]int64

	zf, sf, cf, of bool
	mmxMode        bool
	prog           *asm.Program
}

// Fault is how a run stopped short of HALT: the PC it stopped at and the
// message the VM reports after its "vm(name) pc=N [inst]: " prefix.
type Fault struct {
	PC  int
	Msg string
}

// New loads the program's image: data at asm.DataBase, the stack pointer at
// the top of memory, the PC at the entry point.
func New(p *asm.Program) *Machine {
	m := &Machine{Mem: make([]byte, p.MemSize), PC: p.Entry, prog: p}
	copy(m.Mem[asm.DataBase:], p.Data)
	m.GPR[gpr(isa.ESP)] = p.StackTop()
	return m
}

// stop unwinds the interpreter with a fault.
type stop struct{ msg string }

func (m *Machine) fail(format string, args ...any) {
	panic(stop{fmt.Sprintf(format, args...)})
}

// Run executes until HALT (nil), a fault, or maxInstrs retired
// instructions (a budget fault at the next PC).
func (m *Machine) Run(maxInstrs int64) (f *Fault) {
	for !m.Halted {
		if m.Executed >= maxInstrs {
			return &Fault{m.PC, fmt.Sprintf("budget of %d instructions: instruction budget exhausted", maxInstrs)}
		}
		if m.PC < 0 || m.PC >= len(m.prog.Insts) {
			return &Fault{m.PC, fmt.Sprintf("control transferred outside program (pc=%d)", m.PC)}
		}
		if f := m.step(); f != nil {
			return f
		}
	}
	return nil
}

// step retires the instruction at PC.
func (m *Machine) step() (f *Fault) {
	pc := m.PC
	m.Executed++
	m.Retired[m.prog.Insts[pc].Op]++
	defer func() {
		if r := recover(); r != nil {
			s, ok := r.(stop)
			if !ok {
				panic(r)
			}
			m.PC = pc
			f = &Fault{pc, s.msg}
		}
	}()
	m.exec(&m.prog.Insts[pc])
	return nil
}

// ---------------------------------------------------------------------------
// Registers, memory and operands

func gpr(r isa.Reg) int { return int(r) - int(isa.EAX) }

// isGPR, isMM and isFP test a register operand's file.
func isGPR(o isa.Operand) bool { return o.Kind == isa.KindReg && o.Reg >= isa.EAX && o.Reg <= isa.ESP }
func isMM(o isa.Operand) bool  { return o.Kind == isa.KindReg && o.Reg >= isa.MM0 && o.Reg <= isa.MM7 }
func isFP(o isa.Operand) bool  { return o.Kind == isa.KindReg && o.Reg >= isa.FP0 && o.Reg <= isa.FP7 }

// addr is an operand's effective address, base + index*scale + disp,
// wrapping at 32 bits. Base and index are GPRs.
func (m *Machine) addr(o isa.Operand) uint32 {
	for _, r := range []isa.Reg{o.Reg, o.Index} {
		if r != isa.NoReg && !isGPR(isa.Operand{Kind: isa.KindReg, Reg: r}) {
			m.fail("bad memory operand %s", o)
		}
	}
	a := int64(o.Disp)
	if o.Reg != isa.NoReg {
		a += int64(m.GPR[gpr(o.Reg)])
	}
	if o.Index != isa.NoReg {
		s := int64(o.Scale)
		if s == 0 {
			s = 1
		}
		a += int64(m.GPR[gpr(o.Index)]) * s
	}
	return uint32(a)
}

// bytesAt returns the n bytes at a, or nil when any lies outside memory.
func (m *Machine) bytesAt(a uint32, n int) []byte {
	if int64(a)+int64(n) > int64(len(m.Mem)) {
		return nil
	}
	return m.Mem[a : int(a)+n]
}

// load reads an n-byte little-endian value; fault formats the fault's
// text from the address.
func (m *Machine) load(a uint32, n int, fault string) uint64 {
	b := m.bytesAt(a, n)
	if b == nil {
		m.fail(fault, a)
	}
	var v uint64
	for i := n - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// store writes the low n bytes of v little-endian; fault formats the
// fault's text from the address.
func (m *Machine) store(a uint32, n int, v uint64, fault string) {
	b := m.bytesAt(a, n)
	if b == nil {
		m.fail(fault, a)
	}
	for i := 0; i < n; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// none faults unless the instruction leaves operand o out.
func (m *Machine) none(o isa.Operand) {
	if o.Kind != isa.KindNone {
		m.fail("unexpected operand %s", o)
	}
}

// width is a memory operand's integer access width (no size means dword).
func width(o isa.Operand) int {
	if o.Size == isa.SizeNone {
		return 4
	}
	return int(o.Size)
}

var intLoadName = map[int]string{1: "load byte", 2: "load word", 4: "load dword"}

// loadInt reads an integer memory operand of width n.
func (m *Machine) loadInt(o isa.Operand, n int) uint32 {
	a := m.addr(o)
	what, ok := intLoadName[n]
	if !ok {
		m.fail("bad load size %v", isa.Size(n))
	}
	return uint32(m.load(a, n, what+" out of range at %#x"))
}

// src reads an integer source: a GPR, an immediate or memory.
func (m *Machine) src(o isa.Operand) uint32 {
	switch o.Kind {
	case isa.KindReg:
		if !isGPR(o) {
			m.fail("integer read of non-GPR %s", o.Reg)
		}
		return m.GPR[gpr(o.Reg)]
	case isa.KindImm:
		return uint32(o.Imm)
	case isa.KindMem:
		return m.loadInt(o, width(o))
	}
	m.fail("missing operand")
	return 0
}

// dst writes an integer destination: a GPR or memory.
func (m *Machine) dst(o isa.Operand, v uint32) {
	switch o.Kind {
	case isa.KindReg:
		if !isGPR(o) {
			m.fail("integer write to non-GPR %s", o.Reg)
		}
		m.GPR[gpr(o.Reg)] = v
		return
	case isa.KindMem:
		a := m.addr(o)
		n := width(o)
		if n > 4 {
			m.fail("bad store size %v", o.Size)
		}
		m.store(a, n, uint64(v), "store out of range at %#x")
		return
	}
	m.fail("bad destination operand")
}

func (m *Machine) push(v uint32) {
	sp := m.GPR[gpr(isa.ESP)] - 4
	m.GPR[gpr(isa.ESP)] = sp
	m.store(sp, 4, uint64(v), "stack overflow at %#x")
}

func (m *Machine) pop() uint32 {
	sp := m.GPR[gpr(isa.ESP)]
	v := uint32(m.load(sp, 4, "stack underflow at %#x"))
	m.GPR[gpr(isa.ESP)] = sp + 4
	return v
}

// fpReg reads an FP register operand.
func (m *Machine) fpReg(o isa.Operand) float64 {
	if !isFP(o) {
		m.fail("expected FP register, have %s", o)
	}
	return m.FP[o.Reg-isa.FP0]
}

// setFP writes an FP register operand.
func (m *Machine) setFP(o isa.Operand, v float64) {
	if !isFP(o) {
		m.fail("expected FP register destination, have %s", o)
	}
	m.FP[o.Reg-isa.FP0] = v
}

// fpSrc reads an FP register or a float32/float64 memory operand.
func (m *Machine) fpSrc(o isa.Operand) float64 {
	switch o.Kind {
	case isa.KindReg:
		return m.fpReg(o)
	case isa.KindMem:
		a := m.addr(o)
		switch o.Size {
		case isa.SizeD:
			return float64(math.Float32frombits(uint32(m.load(a, 4, "float load out of range at %#x"))))
		case isa.SizeQ:
			return math.Float64frombits(m.load(a, 8, "double load out of range at %#x"))
		}
		m.fail("float operand needs dword or qword size")
	}
	m.fail("bad float operand %s", o)
	return 0
}

// mmReg reads an mm register operand.
func (m *Machine) mmReg(o isa.Operand) uint64 {
	if !isMM(o) {
		m.fail("expected mm register, have %s", o)
	}
	return m.MM[o.Reg-isa.MM0]
}

// mmSrc reads an mm register or memory: a dword operand zero-extends, any
// other width is a qword.
func (m *Machine) mmSrc(o isa.Operand) uint64 {
	switch o.Kind {
	case isa.KindReg:
		return m.mmReg(o)
	case isa.KindMem:
		a := m.addr(o)
		if o.Size == isa.SizeD {
			return m.load(a, 4, "mmx dword load out of range at %#x")
		}
		return m.load(a, 8, "mmx qword load out of range at %#x")
	}
	m.fail("bad mmx operand %s", o)
	return 0
}

// qword faults on a memory operand of a width other than a qword (no width
// given is one).
func (m *Machine) qword(o isa.Operand) {
	if o.Kind == isa.KindMem && o.Size != isa.SizeNone && o.Size != isa.SizeQ {
		m.fail("%s is no qword", o)
	}
}

// ---------------------------------------------------------------------------
// Flags, from widened arithmetic

func (m *Machine) setZeroSign(r uint32) {
	m.zf = r == 0
	m.sf = r&0x80000000 != 0
}

// addFlags sets the flags of a + b.
func (m *Machine) addFlags(a, b uint32) uint32 {
	wide := uint64(a) + uint64(b)
	signed := int64(int32(a)) + int64(int32(b))
	r := uint32(wide)
	m.setZeroSign(r)
	m.cf = wide > math.MaxUint32
	m.of = signed > math.MaxInt32 || signed < math.MinInt32
	return r
}

// subFlags sets the flags of a - b.
func (m *Machine) subFlags(a, b uint32) uint32 {
	wide := int64(a) - int64(b)
	signed := int64(int32(a)) - int64(int32(b))
	r := uint32(wide)
	m.setZeroSign(r)
	m.cf = wide < 0
	m.of = signed > math.MaxInt32 || signed < math.MinInt32
	return r
}

func (m *Machine) logicFlags(r uint32) uint32 {
	m.setZeroSign(r)
	m.cf, m.of = false, false
	return r
}

func (m *Machine) carry() uint32 {
	if m.cf {
		return 1
	}
	return 0
}

// taken evaluates a conditional branch against the flags.
func (m *Machine) taken(op isa.Op) bool {
	lt := m.sf != m.of
	switch op {
	case isa.JE:
		return m.zf
	case isa.JNE:
		return !m.zf
	case isa.JL:
		return lt
	case isa.JLE:
		return m.zf || lt
	case isa.JG:
		return !m.zf && !lt
	case isa.JGE:
		return !lt
	case isa.JB:
		return m.cf
	case isa.JBE:
		return m.cf || m.zf
	case isa.JA:
		return !m.cf && !m.zf
	case isa.JAE:
		return !m.cf
	case isa.JS:
		return m.sf
	case isa.JNS:
		return !m.sf
	}
	panic("isaref: not a branch: " + op.String())
}

// ---------------------------------------------------------------------------
// The interpreter: one arm per opcode

func (m *Machine) exec(in *isa.Inst) {
	A, B := in.A, in.B
	next := m.PC + 1
	if A.Kind == isa.KindMem && B.Kind == isa.KindMem {
		m.fail("two memory operands")
	}
	switch op := in.Op; {
	case op == isa.NOP, op == isa.PROFON, op == isa.PROFOFF, op == isa.CDQ,
		op == isa.JMP, op.IsBranch(), op == isa.CALL, op == isa.RET, op == isa.HALT, op == isa.EMMS:
		// No operands: control transfers name their target by label.
		m.none(A)
		m.none(B)
	case op == isa.PUSH, op == isa.POP:
		// The stack moves dwords.
		m.none(B)
		if A.Kind == isa.KindMem && width(A) != 4 {
			m.fail("%s moves a dword, not %s", op, A)
		}
	case op == isa.IDIV, op == isa.NOT, op == isa.NEG, op == isa.INC, op == isa.DEC:
		m.none(B)
		if !isGPR(A) && A.Kind != isa.KindMem {
			m.fail("bad %s operand %s", op, A)
		}
	case op == isa.FCHS, op == isa.FABS, op == isa.FSQRT, op == isa.FSIN, op == isa.FCOS:
		m.none(B)
	case op == isa.MOVZXB, op == isa.MOVZXW, op == isa.MOVSXB, op == isa.MOVSXW, op == isa.LEA:
		if !isGPR(A) {
			m.fail("%s writes a GPR, not %s", op, A)
		}
	case op == isa.MOV, op == isa.ADD, op == isa.ADC, op == isa.SUB, op == isa.SBB,
		op == isa.AND, op == isa.OR, op == isa.XOR, op == isa.CMP, op == isa.TEST,
		op == isa.SHL, op == isa.SHR, op == isa.SAR, op == isa.IMUL:
		if !isGPR(A) && A.Kind != isa.KindMem {
			m.fail("bad destination operand")
		}
	}
	switch op := in.Op; {
	case op == isa.NOP, op == isa.PROFON, op == isa.PROFOFF:

	case op == isa.MOV:
		m.dst(A, m.src(B))
	case op == isa.MOVZXB, op == isa.MOVZXW, op == isa.MOVSXB, op == isa.MOVSXW:
		// The width is the opcode's: a register source gives its low
		// bits, memory is read at that width.
		n := 1
		if op == isa.MOVZXW || op == isa.MOVSXW {
			n = 2
		}
		var v uint32
		switch B.Kind {
		case isa.KindReg:
			v = m.src(B)
		case isa.KindMem:
			v = m.loadInt(B, n)
		default:
			m.fail("bad %s source %s", op, B)
		}
		switch op {
		case isa.MOVZXB:
			v &= 0xFF
		case isa.MOVZXW:
			v &= 0xFFFF
		case isa.MOVSXB:
			v = uint32(int32(int8(v)))
		default:
			v = uint32(int32(int16(v)))
		}
		m.dst(A, v)
	case op == isa.LEA:
		if B.Kind != isa.KindMem {
			m.fail("lea needs a memory operand")
		}
		m.dst(A, m.addr(B))
	case op == isa.XCHG:
		if A.Kind != isa.KindReg || B.Kind != isa.KindReg {
			m.fail("xchg supports register operands only")
		}
		a, b := m.src(A), m.src(B)
		m.GPR[gpr(A.Reg)], m.GPR[gpr(B.Reg)] = b, a
	case op == isa.PUSH:
		m.push(m.src(A))
	case op == isa.POP:
		m.dst(A, m.pop())

	case op == isa.ADD:
		a, b := m.src(A), m.src(B)
		m.dst(A, m.addFlags(a, b))
	case op == isa.ADC:
		a, b := m.src(A), m.src(B)
		m.dst(A, m.addFlags(a, b+m.carry()))
	case op == isa.SUB:
		a, b := m.src(A), m.src(B)
		m.dst(A, m.subFlags(a, b))
	case op == isa.SBB:
		a, b := m.src(A), m.src(B)
		m.dst(A, m.subFlags(a, b+m.carry()))
	case op == isa.CMP:
		a, b := m.src(A), m.src(B)
		m.subFlags(a, b)
	case op == isa.AND:
		a, b := m.src(A), m.src(B)
		m.dst(A, m.logicFlags(a&b))
	case op == isa.OR:
		a, b := m.src(A), m.src(B)
		m.dst(A, m.logicFlags(a|b))
	case op == isa.XOR:
		a, b := m.src(A), m.src(B)
		m.dst(A, m.logicFlags(a^b))
	case op == isa.TEST:
		a, b := m.src(A), m.src(B)
		m.logicFlags(a & b)
	case op == isa.NOT:
		m.dst(A, ^m.src(A))
	case op == isa.NEG:
		m.dst(A, m.subFlags(0, m.src(A)))
	case op == isa.INC, op == isa.DEC:
		// CF survives, as on IA-32.
		a := m.src(A)
		d := int64(1)
		if op == isa.DEC {
			d = -1
		}
		signed := int64(int32(a)) + d
		r := uint32(int64(a) + d)
		m.setZeroSign(r)
		m.of = signed > math.MaxInt32 || signed < math.MinInt32
		m.dst(A, r)
	case op == isa.SHL, op == isa.SHR, op == isa.SAR:
		a, n := m.src(A), m.src(B)%32
		if n == 0 {
			break // no flags, no write
		}
		var r uint32
		var out uint32 // the last bit shifted out
		switch op {
		case isa.SHL:
			r = uint32(uint64(a) << n)
			out = uint32(uint64(a)>>(32-n)) & 1
		case isa.SHR:
			r = uint32(uint64(a) >> n)
			out = a >> (n - 1) & 1
		default:
			r = uint32(int64(int32(a)) >> n)
			out = a >> (n - 1) & 1
		}
		m.setZeroSign(r)
		m.cf, m.of = out == 1, false
		m.dst(A, r)
	case op == isa.IMUL:
		// Only CF and OF change: both mark a product that does not fit.
		a, b := m.src(A), m.src(B)
		full := int64(int32(a)) * int64(int32(b))
		m.cf = full > math.MaxInt32 || full < math.MinInt32
		m.of = m.cf
		m.dst(A, uint32(full))
	case op == isa.IDIV:
		d := int64(int32(m.src(A)))
		if d == 0 {
			m.fail("integer divide by zero")
		}
		num := int64(uint64(m.GPR[gpr(isa.EDX)])<<32 | uint64(m.GPR[gpr(isa.EAX)]))
		q, r := num/d, num%d
		if q > math.MaxInt32 || q < math.MinInt32 {
			m.fail("idiv overflow (%d / %d)", num, d)
		}
		m.GPR[gpr(isa.EAX)], m.GPR[gpr(isa.EDX)] = uint32(q), uint32(r)
	case op == isa.CDQ:
		m.GPR[gpr(isa.EDX)] = uint32(int32(m.GPR[gpr(isa.EAX)]) >> 31)

	case op == isa.JMP:
		next = int(in.Target)
	case op.IsBranch():
		if m.taken(op) {
			next = int(in.Target)
		}
	case op == isa.CALL:
		m.push(uint32(m.PC + 1))
		next = int(in.Target)
	case op == isa.RET:
		next = int(m.pop())
	case op == isa.HALT:
		m.Halted = true
		next = m.PC

	case op.IsFP():
		if m.mmxMode {
			m.fail("floating-point instruction while MMX state active (missing emms)")
		}
		m.execFP(in)

	case op == isa.EMMS:
		m.mmxMode = false
	case op.IsMMX():
		m.mmxMode = true
		m.execMMX(in)

	default:
		m.fail("unknown opcode %s", op)
	}
	m.PC = next
}

func (m *Machine) execFP(in *isa.Inst) {
	A, B := in.A, in.B
	switch in.Op {
	case isa.FLD:
		m.setFP(A, m.fpSrc(B))
	case isa.FLDC:
		if B.Kind != isa.KindImm {
			m.fail("fldc needs an immediate")
		}
		m.setFP(A, math.Float64frombits(uint64(B.Imm)))
	case isa.FST:
		v := m.fpReg(B)
		if A.Kind == isa.KindReg {
			m.setFP(A, v)
			return
		}
		if A.Kind != isa.KindMem {
			m.fail("fst needs an FP register or memory destination")
		}
		a := m.addr(A)
		switch A.Size {
		case isa.SizeD:
			m.store(a, 4, uint64(math.Float32bits(float32(v))), "fst out of range at %#x")
		case isa.SizeQ:
			m.store(a, 8, math.Float64bits(v), "fst out of range at %#x")
		default:
			m.fail("fst needs dword or qword destination")
		}
	case isa.FILD:
		if B.Kind != isa.KindMem {
			m.fail("fild needs a memory source")
		}
		a := m.addr(B)
		var v float64
		switch B.Size {
		case isa.SizeW:
			v = float64(int16(m.load(a, 2, "fild out of range at %#x")))
		case isa.SizeD:
			v = float64(int32(m.load(a, 4, "fild out of range at %#x")))
		default:
			m.fail("fild needs word or dword source")
		}
		m.setFP(A, v)
	case isa.FIST:
		// Round half to even, then saturate to the destination width.
		v := math.RoundToEven(m.fpReg(B))
		if A.Kind != isa.KindMem {
			m.fail("fist needs a memory destination")
		}
		a := m.addr(A)
		switch A.Size {
		case isa.SizeW:
			m.store(a, 2, uint64(uint16(int16(math.Max(-32768, math.Min(32767, v))))), "fist out of range at %#x")
		case isa.SizeD:
			m.store(a, 4, uint64(uint32(int32(math.Max(-2147483648, math.Min(2147483647, v))))), "fist out of range at %#x")
		default:
			m.fail("fist needs word or dword destination")
		}
	case isa.FADD, isa.FSUB, isa.FSUBR, isa.FMUL, isa.FDIV:
		a := m.fpReg(A)
		b := m.fpSrc(B)
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
		default:
			r = a / b
		}
		if math.IsNaN(r) {
			r = resultNaN(a, b)
		}
		m.setFP(A, r)
	case isa.FCHS:
		m.setFP(A, -m.fpReg(A))
	case isa.FABS:
		m.setFP(A, math.Abs(m.fpReg(A)))
	case isa.FSQRT:
		m.setFP(A, math.Sqrt(m.fpReg(A)))
	case isa.FSIN:
		m.setFP(A, math.Sin(m.fpReg(A)))
	case isa.FCOS:
		m.setFP(A, math.Cos(m.fpReg(A)))
	case isa.FCOM:
		// fcomi-style: ZF on equal, CF on below, unordered sets neither.
		a := m.fpReg(A)
		b := m.fpSrc(B)
		m.zf, m.cf, m.sf, m.of = a == b, a < b, false, false
	default:
		panic("isaref: unknown FP opcode " + in.Op.String())
	}
}

func (m *Machine) execMMX(in *isa.Inst) {
	A, B := in.A, in.B
	switch in.Op {
	case isa.MOVD:
		// movd mm, r/m32 zero-extends; movd r/m32, mm takes the low dword.
		if isMM(A) {
			if B.Kind == isa.KindImm || B.Kind == isa.KindMem && width(B) != 4 {
				m.fail("bad movd source %s", B)
			}
			m.MM[A.Reg-isa.MM0] = uint64(m.src(B))
			return
		}
		if A.Kind == isa.KindMem && width(A) != 4 {
			m.fail("bad movd destination %s", A)
		}
		m.dst(A, uint32(m.mmReg(B)))
	case isa.MOVQ:
		m.qword(A)
		m.qword(B)
		if isMM(A) {
			m.MM[A.Reg-isa.MM0] = m.mmSrc(B)
			return
		}
		if A.Kind != isa.KindMem {
			m.fail("movq destination must be mm register or memory")
		}
		v := m.mmSrc(B)
		m.store(m.addr(A), 8, v, "movq store out of range at %#x")
	default:
		a := m.mmReg(A)
		shift := false
		for _, s := range mmxref.ShiftOps {
			shift = shift || s == in.Op
		}
		var r uint64
		var ok bool
		if shift {
			// An immediate count is its 64-bit two's complement.
			n := uint64(B.Imm)
			if B.Kind != isa.KindImm {
				m.qword(B)
				n = m.mmSrc(B)
			}
			r, ok = mmxref.Shift(in.Op, a, n)
		} else {
			r, ok = mmxref.Binary(in.Op, a, m.mmSrc(B))
		}
		if !ok {
			panic("isaref: unknown MMX opcode " + in.Op.String())
		}
		m.MM[A.Reg-isa.MM0] = r
	}
}

// resultNaN is the NaN left by an FP arithmetic instruction whose result is
// NaN, chosen as the x87 does: when both operands are NaNs, the one whose
// 52-bit fraction field reads as the larger integer, or the destination
// when they read equal; when one is, that one; in both cases with the quiet
// bit (bit 51) set. With no NaN operand the result is the real indefinite:
// sign set, exponent all ones, quiet bit set, rest zero.
func resultNaN(dst, src float64) float64 {
	d, s := math.Float64bits(dst), math.Float64bits(src)
	dNaN, sNaN := math.IsNaN(dst), math.IsNaN(src)
	var bits uint64
	switch {
	case dNaN && sNaN:
		bits = d
		if s<<12 > d<<12 {
			bits = s
		}
	case dNaN:
		bits = d
	case sNaN:
		bits = s
	default:
		return math.Float64frombits(1<<63 | 0x7FF<<52 | 1<<51)
	}
	return math.Float64frombits(bits | 1<<51)
}
