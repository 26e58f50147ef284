package vm

import (
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

func TestFaultIntegerReadOfFPRegister(t *testing.T) {
	expectFault(t, "non-GPR", func(b *asm.Builder) {
		b.I(isa.MOV, asm.R(isa.EAX), asm.R(isa.FP0))
	})
}

func TestFaultFPRegisterExpected(t *testing.T) {
	expectFault(t, "expected FP register", func(b *asm.Builder) {
		b.I(isa.FADD, asm.R(isa.EAX), asm.R(isa.FP0))
	})
}

func TestFaultMMRegisterExpected(t *testing.T) {
	expectFault(t, "expected mm register", func(b *asm.Builder) {
		b.I(isa.PADDW, asm.R(isa.EAX), asm.R(isa.MM0))
	})
}

func TestFaultFildBadSize(t *testing.T) {
	expectFault(t, "word or dword", func(b *asm.Builder) {
		b.Dwords("v", []int32{1, 2})
		b.I(isa.FILD, asm.R(isa.FP0), asm.Sym(isa.SizeQ, "v", 0))
	})
}

func TestFaultFstBadSize(t *testing.T) {
	expectFault(t, "dword or qword", func(b *asm.Builder) {
		b.Reserve("v", 8)
		b.I(isa.FST, asm.Sym(isa.SizeW, "v", 0), asm.R(isa.FP0))
	})
}

func TestFaultLeaNeedsMemory(t *testing.T) {
	expectFault(t, "lea needs a memory operand", func(b *asm.Builder) {
		b.I(isa.LEA, asm.R(isa.EAX), asm.R(isa.EBX))
	})
}

func TestFaultXchgRegistersOnly(t *testing.T) {
	expectFault(t, "register operands only", func(b *asm.Builder) {
		b.Reserve("v", 8)
		b.I(isa.XCHG, asm.R(isa.EAX), asm.Sym(isa.SizeD, "v", 0))
	})
}

// TestFaultNonGPRRegisterOperands: an mm or fp register where xchg or a
// movzx/movsx register source wants a GPR is a guest fault at that
// instruction, on every path.
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
		bad := in.a
		if bad.IsGPR() {
			bad = in.b
		}
		expectFault(t, "integer read of non-GPR "+bad.String(), func(b *asm.Builder) {
			b.I(in.op, asm.R(in.a), asm.R(in.b))
		})
	}
}

// TestFaultImmediateDestination: an ALU op on an immediate destination
// faults when it has a result to write — not for cmp or test, and not for
// a shift whose count masks to zero.
func TestFaultImmediateDestination(t *testing.T) {
	expectFault(t, "pc=4 [shl 5, ecx]: bad destination operand", func(b *asm.Builder) {
		b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(32))
		b.I(isa.SHL, asm.Imm(5), asm.R(isa.ECX)) // count 32 masks to zero
		b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(3))
		b.I(isa.CMP, asm.Imm(5), asm.R(isa.ECX))
		b.I(isa.SHL, asm.Imm(5), asm.R(isa.ECX))
	})
	expectFault(t, "pc=0 [add 5, eax]: bad destination operand", func(b *asm.Builder) {
		b.I(isa.ADD, asm.Imm(5), asm.R(isa.EAX))
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
	expectFault(t, "movq destination", func(b *asm.Builder) {
		b.I(isa.MOVQ, asm.R(isa.EAX), asm.R(isa.MM0))
	})
}

func TestFaultFldcNeedsImmediate(t *testing.T) {
	expectFault(t, "fldc needs an immediate", func(b *asm.Builder) {
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
