package emit

import (
	"testing"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/vm"
)

func run(t *testing.T, build func(b *asm.Builder)) *vm.CPU {
	t.Helper()
	b := asm.NewBuilder("emit-test")
	build(b)
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	c := vm.New(p)
	if err := c.Run(1 << 16); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCallConventionArgOrderAndCleanup(t *testing.T) {
	c := run(t, func(b *asm.Builder) {
		b.Proc("main")
		Call(b, "sub3", asm.Imm(100), asm.Imm(30), asm.Imm(7))
		b.I(isa.HALT)
		// sub3(a, b, c) = a - b - c.
		b.Proc("sub3")
		LoadArg(b, isa.EAX, 0)
		b.I(isa.SUB, asm.R(isa.EAX), Arg(1))
		b.I(isa.SUB, asm.R(isa.EAX), Arg(2))
		b.Ret()
	})
	if got := int32(c.GPR(isa.EAX)); got != 63 {
		t.Errorf("sub3(100,30,7) = %d, want 63", got)
	}
	if c.GPR(isa.ESP) != c.Prog.StackTop() {
		t.Errorf("stack not cleaned up: esp = %#x, want %#x", c.GPR(isa.ESP), c.Prog.StackTop())
	}
}

func TestBroadcastW(t *testing.T) {
	c := run(t, func(b *asm.Builder) {
		b.Reserve("out", 8)
		b.Proc("main")
		b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(0x1234))
		BroadcastW(b, isa.MM3, isa.EAX)
		b.I(isa.MOVQ, asm.Sym(isa.SizeQ, "out", 0), asm.R(isa.MM3))
		b.I(isa.EMMS)
		b.I(isa.HALT)
	})
	w, _ := c.Mem.ReadInt16s(c.Prog.Addr("out"), 4)
	for i, v := range w {
		if v != 0x1234 {
			t.Errorf("lane %d = %#x, want 0x1234", i, v)
		}
	}
}

func TestHSumD(t *testing.T) {
	c := run(t, func(b *asm.Builder) {
		b.Dwords("v", []int32{100, -30})
		b.Proc("main")
		b.I(isa.MOVQ, asm.R(isa.MM0), asm.Sym(isa.SizeQ, "v", 0))
		HSumD(b, isa.MM0, isa.MM1)
		b.I(isa.MOVD, asm.R(isa.EAX), asm.R(isa.MM0))
		b.I(isa.EMMS)
		b.I(isa.HALT)
	})
	if got := int32(c.GPR(isa.EAX)); got != 70 {
		t.Errorf("hsum = %d, want 70", got)
	}
}
