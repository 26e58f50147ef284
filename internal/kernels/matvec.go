package kernels

import (
	"sync"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/core"
	"mmxdsp/internal/emit"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/mmxlib"
	"mmxdsp/internal/synth"
	"mmxdsp/internal/vm"
)

// Paper workload: "Matrix-vector multiplication of a 512x512 matrix with a
// vector of length 512. Dot product on two vectors of length 512." All
// versions use 16-bit fixed-point data (there is no FP version, matching
// the paper: "There is no hand-optimized floating-point version for the
// vector arithmetic because it uses only integer data").
const (
	mvRows = 512
	mvCols = 512
	mvVecN = 512
)

// matVecWorkload is the shared deterministic data. Entries are bounded so
// every row accumulator fits a 32-bit register.
type matVecWorkload struct {
	mat, vec, dx, dy []int16
}

// matVecData is the matvec workload, synthesized once per process. Builds
// and checks only read it.
var matVecData = sync.OnceValue(func() matVecWorkload {
	r := synth.NewRand(0xA11CE)
	w := matVecWorkload{
		mat: make([]int16, mvRows*mvCols),
		vec: make([]int16, mvCols),
		dx:  make([]int16, mvVecN),
		dy:  make([]int16, mvVecN),
	}
	for i := range w.mat {
		w.mat[i] = int16(r.Intn(2048) - 1024)
	}
	for i := range w.vec {
		w.vec[i] = int16(r.Intn(2048) - 1024)
	}
	for i := range w.dx {
		w.dx[i] = int16(r.Intn(2048) - 1024)
		w.dy[i] = int16(r.Intn(2048) - 1024)
	}
	return w
})

// matVecExpected is the reference row vector and dot product, computed
// once per process.
var matVecExpected = sync.OnceValues(func() (rows []int32, dot int32) {
	w := matVecData()
	rows = make([]int32, mvRows)
	for r := 0; r < mvRows; r++ {
		var acc int64
		for c := 0; c < mvCols; c++ {
			acc += int64(w.mat[r*mvCols+c]) * int64(w.vec[c])
		}
		rows[r] = int32(acc)
	}
	var d int64
	for i := range w.dx {
		d += int64(w.dx[i]) * int64(w.dy[i])
	}
	return rows, int32(d)
})

func (w matVecWorkload) place(b *asm.Builder) {
	b.Words("mat", w.mat)
	b.Words("vec", w.vec)
	b.Words("dx", w.dx)
	b.Words("dy", w.dy)
	b.Reserve("rowout", 4*mvRows)
	b.Reserve("dotout", 8)
}

func checkMatVec(c *vm.CPU, context string) error {
	rows, dot := matVecExpected()
	if err := core.Expect(c, "rowout", rows, 0, context); err != nil {
		return err
	}
	return core.Expect(c, "dotout", []int32{dot}, 0, context)
}

// MatVec returns the matvec.c and matvec.mmx benchmarks.
func MatVec() []core.Benchmark {
	descr := "512x512 matrix-vector multiply and length-512 dot product, 16-bit data"
	return []core.Benchmark{
		{
			Base: "matvec", Version: core.VersionC, Kind: core.KindKernel, Descr: descr,
			Build: buildMatVecC,
			Check: func(c *vm.CPU) error { return checkMatVec(c, "matvec.c") },
		},
		{
			Base: "matvec", Version: core.VersionMMX, Kind: core.KindKernel, Descr: descr,
			Build: buildMatVecMMX,
			Check: func(c *vm.CPU) error { return checkMatVec(c, "matvec.mmx") },
		},
	}
}

// buildMatVecC is the compiled-C-style scalar version: one imul per
// element, the paper's §4.1 reason for the superlinear MMX speedup
// (imul takes 10 cycles; pmaddwd does two multiplies in 3).
func buildMatVecC() (*asm.Program, error) {
	b := asm.NewBuilder("matvec.c")
	matVecData().place(b)

	b.Proc("main")
	b.I(isa.PROFON)
	emit.Call(b, "matvec")
	emit.Call(b, "dotprod")
	b.I(isa.PROFOFF)
	b.I(isa.HALT)

	b.Proc("matvec")
	b.I(isa.MOV, asm.R(isa.EBP), asm.Imm(0)) // row
	b.I(isa.MOV, asm.R(isa.ESI), asm.ImmSym("mat", 0))
	b.Label("row")
	b.I(isa.MOV, asm.R(isa.EDI), asm.Imm(0)) // acc
	b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(0)) // col
	b.Label("col")
	b.I(isa.MOVSXW, asm.R(isa.EAX), asm.MemIdx(isa.SizeW, isa.ESI, isa.ECX, 2, 0))
	b.I(isa.MOVSXW, asm.R(isa.EDX), asm.SymIdx(isa.SizeW, "vec", isa.ECX, 2, 0))
	b.I(isa.IMUL, asm.R(isa.EAX), asm.R(isa.EDX))
	b.I(isa.ADD, asm.R(isa.EDI), asm.R(isa.EAX))
	b.I(isa.INC, asm.R(isa.ECX))
	b.I(isa.CMP, asm.R(isa.ECX), asm.Imm(mvCols))
	b.J(isa.JL, "col")
	b.I(isa.MOV, asm.SymIdx(isa.SizeD, "rowout", isa.EBP, 4, 0), asm.R(isa.EDI))
	b.I(isa.ADD, asm.R(isa.ESI), asm.Imm(2*mvCols))
	b.I(isa.INC, asm.R(isa.EBP))
	b.I(isa.CMP, asm.R(isa.EBP), asm.Imm(mvRows))
	b.J(isa.JL, "row")
	b.Ret()

	b.Proc("dotprod")
	b.I(isa.MOV, asm.R(isa.EDI), asm.Imm(0))
	b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(0))
	b.Label("dot")
	b.I(isa.MOVSXW, asm.R(isa.EAX), asm.SymIdx(isa.SizeW, "dx", isa.ECX, 2, 0))
	b.I(isa.MOVSXW, asm.R(isa.EDX), asm.SymIdx(isa.SizeW, "dy", isa.ECX, 2, 0))
	b.I(isa.IMUL, asm.R(isa.EAX), asm.R(isa.EDX))
	b.I(isa.ADD, asm.R(isa.EDI), asm.R(isa.EAX))
	b.I(isa.INC, asm.R(isa.ECX))
	b.I(isa.CMP, asm.R(isa.ECX), asm.Imm(mvVecN))
	b.J(isa.JL, "dot")
	b.I(isa.MOV, asm.Sym(isa.SizeD, "dotout", 0), asm.R(isa.EDI))
	b.Ret()

	return b.Link()
}

// buildMatVecMMX calls the MMX library: nsMatVec16 plus nsDotProd16.
func buildMatVecMMX() (*asm.Program, error) {
	b := asm.NewBuilder("matvec.mmx")
	matVecData().place(b)
	mmxlib.EmitMatVec16(b)
	mmxlib.EmitDotProd16(b)

	b.Entry()
	b.Proc("main")
	b.I(isa.PROFON)
	emit.Call(b, "nsMatVec16", asm.ImmSym("mat", 0), asm.Imm(mvRows),
		asm.Imm(mvCols), asm.ImmSym("vec", 0), asm.ImmSym("rowout", 0))
	emit.Call(b, "nsDotProd16", asm.ImmSym("dx", 0), asm.ImmSym("dy", 0), asm.Imm(mvVecN))
	b.I(isa.MOV, asm.Sym(isa.SizeD, "dotout", 0), asm.R(isa.EAX))
	b.I(isa.EMMS)
	b.I(isa.PROFOFF)
	b.I(isa.HALT)

	return b.Link()
}
