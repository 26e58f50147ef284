package vm

import (
	"errors"
	"strings"
	"testing"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/isa"
)

// expectFault builds a one-proc program, runs it on every path, and
// asserts the error message contains want.
func expectFault(t *testing.T, want string, build func(b *asm.Builder)) {
	t.Helper()
	b := asm.NewBuilder("fault")
	build(b)
	b.I(isa.HALT)
	p, err := b.Link()
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	for _, mode := range []string{"generic", "block", "trace"} {
		c := New(p)
		c.Generic = mode == "generic"
		c.Traces = mode == "trace"
		err = c.Run(1000)
		if err == nil {
			t.Fatalf("%s: expected fault containing %q, got success", mode, want)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: fault = %v, want substring %q", mode, err, want)
		}
	}
}

// expectRejected builds a one-proc program whose instruction 1 has an
// operand shape its opcode does not accept, and asserts that Link rejects
// it with a shape error naming that instruction and containing want.
func expectRejected(t *testing.T, want string, build func(b *asm.Builder)) {
	t.Helper()
	b := asm.NewBuilder("fault")
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(1))
	build(b)
	b.I(isa.HALT)
	_, err := b.Link()
	var se *isa.ShapeError
	if !errors.As(err, &se) || !strings.Contains(err.Error(), "asm(fault): instruction 1 (") ||
		!strings.Contains(err.Error(), want) {
		t.Fatalf("Link: %v, want a shape error at instruction 1 containing %q", err, want)
	}
}

// The shapes below once faulted when they ran; the assembler now rejects
// them when the program is built.

func TestFaultIntegerReadOfFPRegister(t *testing.T) {
	expectRejected(t, "mov: operand 2 fp0 is not accepted", func(b *asm.Builder) {
		b.I(isa.MOV, asm.R(isa.EAX), asm.R(isa.FP0))
	})
}

func TestFaultFPRegisterExpected(t *testing.T) {
	expectRejected(t, "fadd: operand 1 eax is not accepted", func(b *asm.Builder) {
		b.I(isa.FADD, asm.R(isa.EAX), asm.R(isa.FP0))
	})
}

func TestFaultMMRegisterExpected(t *testing.T) {
	expectRejected(t, "paddw: operand 1 eax is not accepted", func(b *asm.Builder) {
		b.I(isa.PADDW, asm.R(isa.EAX), asm.R(isa.MM0))
	})
}

func TestFaultFildBadSize(t *testing.T) {
	expectRejected(t, "fild: operand 2 qword [v] is not accepted", func(b *asm.Builder) {
		b.Dwords("v", []int32{1, 2})
		b.I(isa.FILD, asm.R(isa.FP0), asm.Sym(isa.SizeQ, "v", 0))
	})
}

func TestFaultFstBadSize(t *testing.T) {
	expectRejected(t, "fst: operand 1 word [v] is not accepted", func(b *asm.Builder) {
		b.Reserve("v", 8)
		b.I(isa.FST, asm.Sym(isa.SizeW, "v", 0), asm.R(isa.FP0))
	})
}

func TestFaultLeaNeedsMemory(t *testing.T) {
	expectRejected(t, "lea: operand 2 ebx is not accepted", func(b *asm.Builder) {
		b.I(isa.LEA, asm.R(isa.EAX), asm.R(isa.EBX))
	})
}

func TestFaultXchgRegistersOnly(t *testing.T) {
	expectRejected(t, "xchg: operand 2 dword [v] is not accepted", func(b *asm.Builder) {
		b.Reserve("v", 8)
		b.I(isa.XCHG, asm.R(isa.EAX), asm.Sym(isa.SizeD, "v", 0))
	})
}

// TestFaultNonGPRRegisterOperands: an mm or fp register where xchg or a
// movzx/movsx register source wants a GPR is rejected at that instruction.
func TestFaultNonGPRRegisterOperands(t *testing.T) {
	for _, in := range []struct {
		op   isa.Op
		a, b isa.Reg
	}{
		{isa.XCHG, isa.MM0, isa.MM1},
		{isa.XCHG, isa.EAX, isa.FP7},
		{isa.MOVZXB, isa.EAX, isa.MM0},
		{isa.MOVSXW, isa.EAX, isa.FP1},
	} {
		bad := "operand 1 " + in.a.String()
		if in.a.IsGPR() {
			bad = "operand 2 " + in.b.String()
		}
		expectRejected(t, in.op.String()+": "+bad+" is not accepted", func(b *asm.Builder) {
			b.I(in.op, asm.R(in.a), asm.R(in.b))
		})
	}
}

// TestFaultImmediateDestination: an immediate is no destination, for any
// ALU op: not for cmp or test, which write nothing, and not for a shift by
// a count that masks to zero.
func TestFaultImmediateDestination(t *testing.T) {
	for _, op := range []isa.Op{isa.SHL, isa.CMP, isa.TEST, isa.ADD} {
		expectRejected(t, op.String()+": operand 1 5 is not accepted", func(b *asm.Builder) {
			b.I(op, asm.Imm(5), asm.R(isa.ECX))
		})
	}
	expectRejected(t, "shl: operand 1 5 is not accepted", func(b *asm.Builder) {
		b.I(isa.SHL, asm.Imm(5), asm.Imm(0))
	})
}

func TestFaultIdivOverflow(t *testing.T) {
	// 2^40 / 2 overflows a 32-bit quotient.
	expectFault(t, "idiv overflow", func(b *asm.Builder) {
		b.I(isa.MOV, asm.R(isa.EDX), asm.Imm(0x100))
		b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(0))
		b.I(isa.MOV, asm.R(isa.EBX), asm.Imm(2))
		b.I(isa.IDIV, asm.R(isa.EBX))
	})
}

func TestFaultControlOutsideProgram(t *testing.T) {
	// ret with a corrupted return address on the stack.
	expectFault(t, "outside program", func(b *asm.Builder) {
		b.I(isa.PUSH, asm.Imm(999999))
		b.I(isa.RET)
	})
}

func TestFaultStackOverflow(t *testing.T) {
	b := asm.NewBuilder("fault")
	b.Proc("main")
	b.Label("spin")
	b.I(isa.PUSH, asm.R(isa.EAX))
	b.J(isa.JMP, "spin")
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	c := New(p)
	// Pushing forever must fault (address wraps below the image) rather
	// than loop silently; the exact message depends on where it lands.
	if err := c.Run(1 << 26); err == nil {
		t.Fatal("runaway push loop must fault")
	}
}

func TestFaultMovqBadDestination(t *testing.T) {
	expectRejected(t, "movq: operand 1 eax is not accepted", func(b *asm.Builder) {
		b.I(isa.MOVQ, asm.R(isa.EAX), asm.R(isa.MM0))
	})
}

func TestFaultFldcNeedsImmediate(t *testing.T) {
	expectRejected(t, "fldc: operand 2 fp1 is not accepted", func(b *asm.Builder) {
		b.I(isa.FLDC, asm.R(isa.FP0), asm.R(isa.FP1))
	})
}

func TestFaultMessagesCarryContext(t *testing.T) {
	b := asm.NewBuilder("ctxprog")
	b.I(isa.MOV, asm.R(isa.ESI), asm.Imm(-4))
	b.I(isa.MOV, asm.R(isa.EAX), asm.MemD(isa.ESI, 0))
	b.I(isa.HALT)
	c := New(b.MustLink())
	err := c.Run(100)
	if err == nil {
		t.Fatal("expected fault")
	}
	msg := err.Error()
	for _, want := range []string{"ctxprog", "pc=1", "mov eax"} {
		if !strings.Contains(msg, want) {
			t.Errorf("fault message %q missing %q", msg, want)
		}
	}
}
