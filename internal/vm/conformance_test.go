package vm_test

import (
	"math"
	"testing"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/vm"
)

// conformanceLoops is how often the conformance body repeats: well past
// the default trace threshold, so the dispatch-loop runs execute every
// opcode through block micro-ops first and trace micro-ops later.
const conformanceLoops = 300

// TestEveryOpcodeExecutes builds one program that retires every
// non-pseudo opcode in the ISA at least once, in a loop, and checks that
// it runs without faulting. Opcodes the program misses fail the test, so
// the ISA can't grow silently untested. The same program then runs on the
// dispatch loop with a TraceObserver, trace formation off and on: the
// final registers, memory and report must equal the generic
// interpreter's.
func TestEveryOpcodeExecutes(t *testing.T) {
	b := asm.NewBuilder("conformance")
	b.Words("w16", []int16{100, -100, 32000, -32000})
	b.Words("w16b", []int16{3, 5, -7, 9})
	b.Dwords("d32", []int32{1 << 20, -9})
	b.Doubles("f64", []float64{2.5})
	b.Floats("f32", []float32{1.5})
	b.Reserve("scratch", 64)

	b.Proc("main")
	b.I(isa.MOV, asm.R(isa.EDI), asm.Imm(conformanceLoops))
	b.Label("top")
	// Integer movement and ALU.
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(7))
	b.I(isa.MOV, asm.R(isa.EBX), asm.Imm(3))
	b.I(isa.ADD, asm.R(isa.EAX), asm.R(isa.EBX))
	b.I(isa.ADC, asm.R(isa.EAX), asm.Imm(0))
	b.I(isa.SUB, asm.R(isa.EAX), asm.Imm(1))
	b.I(isa.SBB, asm.R(isa.EAX), asm.Imm(0))
	b.I(isa.AND, asm.R(isa.EAX), asm.Imm(0xFF))
	b.I(isa.OR, asm.R(isa.EAX), asm.Imm(0x10))
	b.I(isa.XOR, asm.R(isa.EBX), asm.R(isa.EBX))
	b.I(isa.NOT, asm.R(isa.EBX))
	b.I(isa.NEG, asm.R(isa.EBX))
	b.I(isa.INC, asm.R(isa.EBX))
	b.I(isa.DEC, asm.R(isa.EBX))
	b.I(isa.CMP, asm.R(isa.EAX), asm.R(isa.EBX))
	b.I(isa.TEST, asm.R(isa.EAX), asm.R(isa.EAX))
	b.I(isa.SHL, asm.R(isa.EAX), asm.Imm(2))
	b.I(isa.SHR, asm.R(isa.EAX), asm.Imm(1))
	b.I(isa.SAR, asm.R(isa.EAX), asm.Imm(1))
	b.I(isa.XCHG, asm.R(isa.EAX), asm.R(isa.EBX))
	b.I(isa.XCHG, asm.R(isa.EAX), asm.R(isa.EBX))
	b.I(isa.LEA, asm.R(isa.ESI), asm.SymIdx(isa.SizeD, "scratch", isa.EBX, 1, 0))
	b.I(isa.MOVZXB, asm.R(isa.ECX), asm.Sym(isa.SizeB, "w16", 0))
	b.I(isa.MOVSXB, asm.R(isa.ECX), asm.Sym(isa.SizeB, "w16", 1))
	b.I(isa.MOVZXW, asm.R(isa.ECX), asm.Sym(isa.SizeW, "w16", 0))
	b.I(isa.MOVSXW, asm.R(isa.ECX), asm.Sym(isa.SizeW, "w16", 2))
	b.I(isa.PUSH, asm.R(isa.EAX))
	b.I(isa.POP, asm.R(isa.EDX))
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(-100))
	b.I(isa.CDQ)
	b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(7))
	b.I(isa.IDIV, asm.R(isa.ECX))
	b.I(isa.IMUL, asm.R(isa.EAX), asm.Imm(3))

	// Every conditional branch, taken or not.
	for _, cc := range []isa.Op{isa.JE, isa.JNE, isa.JL, isa.JLE, isa.JG,
		isa.JGE, isa.JB, isa.JBE, isa.JA, isa.JAE, isa.JS, isa.JNS} {
		lbl := "cc_" + cc.Name()
		b.I(isa.CMP, asm.R(isa.EAX), asm.R(isa.EAX)) // equal
		b.J(cc, lbl)
		b.Label(lbl)
	}
	b.J(isa.JMP, "fp")

	// FP section.
	b.Label("fp")
	b.I(isa.FLD, asm.R(isa.FP0), asm.Sym(isa.SizeQ, "f64", 0))
	b.I(isa.FLD, asm.R(isa.FP1), asm.Sym(isa.SizeD, "f32", 0))
	b.I(isa.FLDC, asm.R(isa.FP2), asm.Imm(int64(math.Float64bits(0.5))))
	b.I(isa.FILD, asm.R(isa.FP3), asm.Sym(isa.SizeW, "w16", 0))
	b.I(isa.FADD, asm.R(isa.FP0), asm.R(isa.FP1))
	b.I(isa.FSUB, asm.R(isa.FP0), asm.R(isa.FP2))
	b.I(isa.FSUBR, asm.R(isa.FP2), asm.R(isa.FP0))
	b.I(isa.FMUL, asm.R(isa.FP0), asm.R(isa.FP1))
	b.I(isa.FDIV, asm.R(isa.FP0), asm.R(isa.FP1))
	b.I(isa.FCHS, asm.R(isa.FP0))
	b.I(isa.FABS, asm.R(isa.FP0))
	b.I(isa.FSQRT, asm.R(isa.FP0))
	b.I(isa.FSIN, asm.R(isa.FP3))
	b.I(isa.FCOS, asm.R(isa.FP3))
	b.I(isa.FCOM, asm.R(isa.FP0), asm.R(isa.FP1))
	b.I(isa.FST, asm.Sym(isa.SizeQ, "scratch", 0), asm.R(isa.FP0))
	b.I(isa.FST, asm.Sym(isa.SizeD, "scratch", 8), asm.R(isa.FP0))
	b.I(isa.FIST, asm.Sym(isa.SizeW, "scratch", 12), asm.R(isa.FP0))
	b.I(isa.FIST, asm.Sym(isa.SizeD, "scratch", 16), asm.R(isa.FP0))

	// MMX section: every packed operation.
	b.I(isa.MOVQ, asm.R(isa.MM0), asm.Sym(isa.SizeQ, "w16", 0))
	b.I(isa.MOVQ, asm.R(isa.MM1), asm.Sym(isa.SizeQ, "w16b", 0))
	b.I(isa.MOVD, asm.R(isa.MM2), asm.R(isa.EAX))
	b.I(isa.MOVD, asm.R(isa.EDX), asm.R(isa.MM2))
	for _, op := range []isa.Op{
		isa.PACKSSWB, isa.PACKSSDW, isa.PACKUSWB,
		isa.PUNPCKLBW, isa.PUNPCKHBW, isa.PUNPCKLWD, isa.PUNPCKHWD,
		isa.PUNPCKLDQ, isa.PUNPCKHDQ,
		isa.PADDB, isa.PADDW, isa.PADDD, isa.PADDSB, isa.PADDSW,
		isa.PADDUSB, isa.PADDUSW,
		isa.PSUBB, isa.PSUBW, isa.PSUBD, isa.PSUBSB, isa.PSUBSW,
		isa.PSUBUSB, isa.PSUBUSW,
		isa.PMADDWD, isa.PMULHW, isa.PMULLW,
		isa.PCMPEQB, isa.PCMPEQW, isa.PCMPEQD,
		isa.PCMPGTB, isa.PCMPGTW, isa.PCMPGTD,
		isa.PAND, isa.PANDN, isa.POR, isa.PXOR,
	} {
		b.I(isa.MOVQ, asm.R(isa.MM3), asm.R(isa.MM0))
		b.I(op, asm.R(isa.MM3), asm.R(isa.MM1))
	}
	for _, op := range []isa.Op{isa.PSLLW, isa.PSLLD, isa.PSLLQ,
		isa.PSRLW, isa.PSRLD, isa.PSRLQ, isa.PSRAW, isa.PSRAD} {
		b.I(isa.MOVQ, asm.R(isa.MM3), asm.R(isa.MM0))
		b.I(op, asm.R(isa.MM3), asm.Imm(3))
	}
	b.I(isa.MOVQ, asm.Sym(isa.SizeQ, "scratch", 24), asm.R(isa.MM3))
	b.I(isa.EMMS)

	// Call/ret and pseudo ops.
	b.Call("leaf")
	b.I(isa.NOP)
	b.I(isa.PROFON)
	b.I(isa.PROFOFF)
	b.I(isa.SUB, asm.R(isa.EDI), asm.Imm(1))
	b.J(isa.JNE, "top")
	b.I(isa.HALT)
	b.Proc("leaf")
	b.Ret()

	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}

	// Static coverage: which opcodes appear in the program text.
	inProgram := map[isa.Op]bool{}
	for _, in := range p.Insts {
		inProgram[in.Op] = true
	}
	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		if op == isa.BAD {
			continue
		}
		if !inProgram[op] {
			t.Errorf("conformance program does not contain opcode %s", op)
		}
	}

	// Dynamic: every instruction must retire without faulting.
	executed := map[isa.Op]bool{}
	c := vm.New(p)
	c.Obs = obsFunc(func(ev vm.Event) { executed[ev.Inst.Op] = true })
	if err := c.Run(1 << 24); err != nil {
		t.Fatal(err)
	}
	for op := range inProgram {
		if op.IsPseudo() && op != isa.HALT {
			continue // pseudo ops emit no events
		}
		if !executed[op] {
			t.Errorf("opcode %s present but never retired", op)
		}
	}

	gen := runPath(t, p, "generic")
	blk := runPath(t, p, "block")
	trc := runPath(t, p, "trace")
	if trc.traces.Formed == 0 {
		t.Errorf("no trace formed: %+v", trc.traces)
	}
	compareOutcomes(t, "generic", gen, "block", blk)
	compareOutcomes(t, "generic", gen, "trace", trc)
}

type obsFunc func(vm.Event)

func (f obsFunc) Retire(ev vm.Event) { f(ev) }
