package asm

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"mmxdsp/internal/isa"
)

func TestLinkResolvesLabelsAndSymbols(t *testing.T) {
	b := NewBuilder("t")
	b.Words("coef", []int16{1, 2, 3})
	b.Reserve("out", 64)
	b.Proc("main")
	b.I(isa.MOV, R(isa.ECX), Imm(3))
	b.Label("loop")
	b.I(isa.MOV, R(isa.EAX), Sym(isa.SizeW, "coef", 0))
	b.I(isa.DEC, R(isa.ECX))
	b.J(isa.JNE, "loop")
	b.I(isa.HALT)

	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	if p.Labels["loop"] != 1 {
		t.Errorf("loop label = %d, want 1", p.Labels["loop"])
	}
	if p.Insts[3].Target != 1 {
		t.Errorf("branch target = %d, want 1", p.Insts[3].Target)
	}
	coef := p.Addr("coef")
	if coef != DataBase {
		t.Errorf("coef addr = %#x, want %#x", coef, DataBase)
	}
	if p.Insts[1].B.Disp != int32(coef) {
		t.Errorf("symbol displacement = %d, want %d", p.Insts[1].B.Disp, coef)
	}
	out := p.Addr("out")
	if out < coef+6 {
		t.Errorf("bss symbol %#x overlaps data ending at %#x", out, coef+6)
	}
	if out%8 != 0 {
		t.Errorf("bss symbol %#x not 8-byte aligned", out)
	}
	if p.StackTop() >= p.MemSize || p.StackTop() < out+64 {
		t.Errorf("stack top %#x out of range", p.StackTop())
	}
}

func TestLinkErrors(t *testing.T) {
	b := NewBuilder("t")
	b.J(isa.JMP, "nowhere")
	if _, err := b.Link(); err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Errorf("want unknown-label error, got %v", err)
	}

	b = NewBuilder("t")
	b.I(isa.MOV, R(isa.EAX), Sym(isa.SizeD, "missing", 0))
	if _, err := b.Link(); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("want unknown-symbol error, got %v", err)
	}

	b = NewBuilder("t")
	b.Label("x")
	b.Label("x")
	b.I(isa.HALT)
	if _, err := b.Link(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("want duplicate-label error, got %v", err)
	}

	b = NewBuilder("t")
	b.Words("d", []int16{1})
	b.Reserve("d", 8)
	b.I(isa.HALT)
	if _, err := b.Link(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("want duplicate-symbol error, got %v", err)
	}
}

func TestDataEncodingLittleEndian(t *testing.T) {
	b := NewBuilder("t")
	b.Words("w", []int16{0x0102, -2})
	b.Dwords("d", []int32{0x01020304})
	b.I(isa.HALT)
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	w := p.Addr("w") - DataBase
	if p.Data[w] != 0x02 || p.Data[w+1] != 0x01 {
		t.Errorf("word not little-endian: % x", p.Data[w:w+2])
	}
	if p.Data[w+2] != 0xFE || p.Data[w+3] != 0xFF {
		t.Errorf("negative word wrong: % x", p.Data[w+2:w+4])
	}
	d := p.Addr("d") - DataBase
	if p.Data[d] != 0x04 || p.Data[d+3] != 0x01 {
		t.Errorf("dword not little-endian: % x", p.Data[d:d+4])
	}
	if p.Addr("d")%8 != 0 {
		t.Error("data symbol not 8-byte aligned")
	}
}

// TestDataSectionLayout pins the exact bytes of every data directive,
// the zero padding that aligns each symbol, and that a linked Program's
// data is unaffected by later appends to its Builder.
func TestDataSectionLayout(t *testing.T) {
	b := NewBuilder("t")
	b.Bytes("b", []byte{1, 2, 3})
	b.Words("w", []int16{-2, 0x0304})
	b.Dwords("d", []int32{-3})
	b.Floats("f", []float32{1.5, -0.25})
	b.Doubles("g", []float64{math.Inf(-1)})
	b.Words("e", nil)
	b.I(isa.HALT)
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		1, 2, 3, 0, 0, 0, 0, 0, // b, padded to 8
		0xFE, 0xFF, 0x04, 0x03, 0, 0, 0, 0, // w
		0xFD, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, // d
		0x00, 0x00, 0xC0, 0x3F, 0x00, 0x00, 0x80, 0xBE, // f
		0, 0, 0, 0, 0, 0, 0xF0, 0xFF, // g
	}
	if !bytes.Equal(p.Data, want) {
		t.Fatalf("data section\n got % x\nwant % x", p.Data, want)
	}
	for sym, off := range map[string]uint32{"b": 0, "w": 8, "d": 16, "f": 24, "g": 32, "e": 40} {
		if got := p.Addr(sym) - DataBase; got != off {
			t.Errorf("%s at offset %d, want %d", sym, got, off)
		}
	}

	b.Bytes("late", []byte{9, 9, 9})
	q, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Data, want) {
		t.Errorf("first program's data changed after a later append: % x", p.Data)
	}
	if got := q.Data[len(want):]; !bytes.Equal(got, []byte{9, 9, 9, 0, 0, 0, 0, 0}) {
		t.Errorf("second program's late data = % x", got)
	}
	p.Data = append(p.Data, 7)
	if q.Data[len(want)] != 9 {
		t.Error("an append to one program's data reached another's")
	}
}

func TestProcExtents(t *testing.T) {
	b := NewBuilder("t")
	b.Proc("main")
	b.I(isa.MOV, R(isa.EAX), Imm(1))
	b.Call("f")
	b.I(isa.HALT)
	b.Proc("f")
	b.I(isa.ADD, R(isa.EAX), Imm(1))
	b.Ret()
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ProcAt(0); got != "main" {
		t.Errorf("ProcAt(0) = %q, want main", got)
	}
	if got := p.ProcAt(2); got != "main" {
		t.Errorf("ProcAt(2) = %q, want main", got)
	}
	if got := p.ProcAt(3); got != "f" {
		t.Errorf("ProcAt(3) = %q, want f", got)
	}
	if got := p.ProcAt(4); got != "f" {
		t.Errorf("ProcAt(4) = %q, want f", got)
	}
}

func TestListing(t *testing.T) {
	b := NewBuilder("demo")
	b.Proc("main")
	b.I(isa.MOV, R(isa.EAX), Imm(7))
	b.Label("spin")
	b.I(isa.DEC, R(isa.EAX))
	b.J(isa.JNE, "spin")
	b.I(isa.HALT)
	p := b.MustLink()
	l := p.Listing()
	for _, want := range []string{"main:", "spin:", "mov eax, 7", "jne spin", "halt"} {
		if !strings.Contains(l, want) {
			t.Errorf("listing missing %q:\n%s", want, l)
		}
	}
}

func TestAddrPanicsOnUnknown(t *testing.T) {
	b := NewBuilder("t")
	b.I(isa.HALT)
	p := b.MustLink()
	defer func() {
		if recover() == nil {
			t.Error("Addr on unknown symbol must panic")
		}
	}()
	p.Addr("nope")
}
