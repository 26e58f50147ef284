package isaref_test

import (
	"strings"
	"testing"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/isaref"
)

// shapeOperands are one operand of every shape: none, an immediate, a
// register of each file, memory of each width, and memory whose base or
// index is not a GPR. Memory addresses the data area through ebx and ecx.
var shapeOperands = func() []isa.Operand {
	reg := func(r isa.Reg) isa.Operand { return isa.Operand{Kind: isa.KindReg, Reg: r} }
	ops := []isa.Operand{
		{},
		{Kind: isa.KindImm, Imm: 3},
		reg(isa.EBX), reg(isa.MM1), reg(isa.FP1),
	}
	for _, size := range []isa.Size{isa.SizeNone, isa.SizeB, isa.SizeW, isa.SizeD, isa.SizeQ} {
		ops = append(ops, isa.Operand{Kind: isa.KindMem, Reg: isa.EBX, Index: isa.ECX, Scale: 2, Disp: asm.DataBase + 64, Size: size})
	}
	return append(ops,
		isa.Operand{Kind: isa.KindMem, Reg: isa.MM1, Disp: asm.DataBase + 64, Size: isa.SizeD},
		isa.Operand{Kind: isa.KindMem, Reg: isa.EBX, Index: isa.FP1, Scale: 1, Disp: asm.DataBase + 64, Size: isa.SizeD})
}()

// TestShapeTableMatchesReference holds the assembler's shape table
// (isa.Inst.CheckOperands) to the reference interpreter's own checks: every
// opcode with every pair of operand shapes runs as a one-instruction
// program, built as a literal so that no Builder rejects it, from a state
// in which no instruction can fault for any other reason (registers that
// divide without overflow, addresses inside memory, FP mode). The table
// accepts a shape exactly when isaref runs it to its budget or to halt.
func TestShapeTableMatchesReference(t *testing.T) {
	data := make([]byte, 256)
	for i := range data {
		data[i] = 1
	}
	accepted := 0
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		for _, a := range shapeOperands {
			for _, b := range shapeOperands {
				in := isa.Inst{Op: op, A: a, B: b}
				p := &asm.Program{Name: "shape", Insts: []isa.Inst{in}, Data: data, MemSize: asm.DataBase + 0x1000}
				m := isaref.New(p)
				for r := range 7 {
					m.GPR[r] = 2 // esp keeps the stack top
				}
				m.GPR[0], m.GPR[3] = 100, 0 // edx:eax = 100
				f := m.Run(1)
				ran := f == nil || strings.HasPrefix(f.Msg, "budget of")
				err := in.CheckOperands()
				switch {
				case err == nil && !ran:
					t.Errorf("%s: table accepts, isaref faults: %s", in, f.Msg)
				case err != nil && ran:
					t.Errorf("%s: table rejects (%v), isaref runs it", in, err)
				case err == nil:
					accepted++
				}
			}
		}
	}
	if accepted == 0 {
		t.Fatal("the table accepts no shape")
	}
	t.Logf("%d of %d combinations accepted", accepted, isa.NumOps*len(shapeOperands)*len(shapeOperands))
}
