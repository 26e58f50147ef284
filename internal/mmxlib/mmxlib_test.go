package mmxlib

import (
	"testing"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/emit"
	"mmxdsp/internal/fixed"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/synth"
	"mmxdsp/internal/vm"
)

// runProgram links and executes a builder, failing the test on any fault.
func runProgram(t *testing.T, b *asm.Builder) *vm.CPU {
	t.Helper()
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	c := vm.New(p)
	if err := c.Run(1 << 24); err != nil {
		t.Fatal(err)
	}
	return c
}

func randWords(n int, seed uint64, bound int32) []int16 {
	r := synth.NewRand(seed)
	out := make([]int16, n)
	for i := range out {
		out[i] = int16(r.Intn(int(2*bound)) - int(bound))
	}
	return out
}

func TestVecAddSub16(t *testing.T) {
	const n = 64
	x := randWords(n, 1, 30000)
	y := randWords(n, 2, 30000)
	b := asm.NewBuilder("t")
	EmitVecAdd16(b)
	EmitVecSub16(b)
	b.Words("x", x)
	b.Words("y", y)
	b.Reserve("sum", 2*n)
	b.Reserve("diff", 2*n)
	b.Entry()
	b.Proc("main")
	emit.Call(b, "nsVecAdd16", asm.ImmSym("sum", 0), asm.ImmSym("x", 0), asm.ImmSym("y", 0), asm.Imm(n))
	emit.Call(b, "nsVecSub16", asm.ImmSym("diff", 0), asm.ImmSym("x", 0), asm.ImmSym("y", 0), asm.Imm(n))
	b.I(isa.EMMS)
	b.I(isa.HALT)
	c := runProgram(t, b)
	sum, _ := c.Mem.ReadInt16s(c.Prog.Addr("sum"), n)
	diff, _ := c.Mem.ReadInt16s(c.Prog.Addr("diff"), n)
	for i := 0; i < n; i++ {
		if want := fixed.SatW(int32(x[i]) + int32(y[i])); sum[i] != want {
			t.Errorf("sum[%d] = %d, want %d", i, sum[i], want)
		}
		if want := fixed.SatW(int32(x[i]) - int32(y[i])); diff[i] != want {
			t.Errorf("diff[%d] = %d, want %d", i, diff[i], want)
		}
	}
}

func TestVecMul16MatchesTruncSemantics(t *testing.T) {
	const n = 64
	x := randWords(n, 3, 32768)
	y := randWords(n, 4, 32768)
	b := asm.NewBuilder("t")
	EmitVecMul16(b)
	b.Words("x", x)
	b.Words("y", y)
	b.Reserve("out", 2*n)
	b.Entry()
	b.Proc("main")
	emit.Call(b, "nsVecMul16", asm.ImmSym("out", 0), asm.ImmSym("x", 0), asm.ImmSym("y", 0), asm.Imm(n))
	b.I(isa.EMMS)
	b.I(isa.HALT)
	c := runProgram(t, b)
	out, _ := c.Mem.ReadInt16s(c.Prog.Addr("out"), n)
	for i := 0; i < n; i++ {
		if want := fixed.MulQ15Trunc(x[i], y[i]); out[i] != want {
			t.Errorf("out[%d] = %d, want %d (x=%d y=%d)", i, out[i], want, x[i], y[i])
		}
	}
}

func TestDotProd16(t *testing.T) {
	const n = 512
	x := randWords(n, 6, 1024)
	y := randWords(n, 7, 1024)
	b := asm.NewBuilder("t")
	EmitDotProd16(b)
	b.Words("x", x)
	b.Words("y", y)
	b.Reserve("out", 4)
	b.Entry()
	b.Proc("main")
	emit.Call(b, "nsDotProd16", asm.ImmSym("x", 0), asm.ImmSym("y", 0), asm.Imm(n))
	b.I(isa.MOV, asm.Sym(isa.SizeD, "out", 0), asm.R(isa.EAX))
	b.I(isa.EMMS)
	b.I(isa.HALT)
	c := runProgram(t, b)
	var want int64
	for i := 0; i < n; i++ {
		want += int64(x[i]) * int64(y[i])
	}
	got, _ := c.Mem.ReadInt32s(c.Prog.Addr("out"), 1)
	if int64(got[0]) != want {
		t.Errorf("dot = %d, want %d", got[0], want)
	}
}

func TestMatVec16(t *testing.T) {
	const rows, cols = 16, 32
	mat := randWords(rows*cols, 8, 1024)
	vec := randWords(cols, 9, 1024)
	b := asm.NewBuilder("t")
	EmitMatVec16(b)
	b.Words("mat", mat)
	b.Words("vec", vec)
	b.Reserve("out", 4*rows)
	b.Entry()
	b.Proc("main")
	emit.Call(b, "nsMatVec16", asm.ImmSym("mat", 0), asm.Imm(rows), asm.Imm(cols),
		asm.ImmSym("vec", 0), asm.ImmSym("out", 0))
	b.I(isa.EMMS)
	b.I(isa.HALT)
	c := runProgram(t, b)
	out, _ := c.Mem.ReadInt32s(c.Prog.Addr("out"), rows)
	for r := 0; r < rows; r++ {
		var want int64
		for j := 0; j < cols; j++ {
			want += int64(mat[r*cols+j]) * int64(vec[j])
		}
		if int64(out[r]) != want {
			t.Errorf("row %d = %d, want %d", r, out[r], want)
		}
	}
}
