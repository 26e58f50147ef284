package kernels

import (
	"sync"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/core"
	"mmxdsp/internal/emit"
	"mmxdsp/internal/imgproc"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/mmxlib"
	"mmxdsp/internal/synth"
	"mmxdsp/internal/vm"
)

// Motion-estimation microbenchmark: full-search block matching by sum of
// absolute differences, the video-encoding kernel MMX's saturating byte
// arithmetic targets. Eight 16×16 blocks of the current frame are each
// matched against a ±4-pixel search window in the previous frame (81
// candidates per block); the scalar version computes |a-b| with a compare
// and branch per pixel, the MMX version with the psubusb/por composition
// in nsSAD16 (there is no FP version: the data is 8-bit integer).
const (
	sadPrevW   = 72 // previous frame width (stride) and height:
	sadPrevH   = 40 // a 64×32 current-frame area plus the ±4 search border
	sadRange   = 4  // search displacement in [-4, 4] both axes
	sadBlocksX = 4
	sadBlocksY = 2
	sadBlocks  = sadBlocksX * sadBlocksY
)

// sadOrig returns the index in prev of block b's zero-displacement
// candidate (its top-left corner).
func sadOrig(b int) int {
	x0 := sadRange + 16*(b%sadBlocksX)
	y0 := sadRange + 16*(b/sadBlocksX)
	return y0*sadPrevW + x0
}

// sadWorkload is the deterministic frame pair: a random previous frame and
// a current frame synthesized from it by per-block translation plus small
// noise, so every search window has one meaningful minimum. Current-frame
// blocks are stored contiguously, 256 bytes each, row stride 16.
type sadWorkload struct {
	prev, cur []uint8
}

// sadData is the SAD workload, synthesized once per process. Builds and
// checks only read it.
var sadData = sync.OnceValue(func() sadWorkload {
	r := synth.NewRand(0x5AD16)
	w := sadWorkload{
		prev: make([]uint8, sadPrevW*sadPrevH),
		cur:  make([]uint8, sadBlocks*256),
	}
	for i := range w.prev {
		w.prev[i] = uint8(r.Intn(256))
	}
	for b := 0; b < sadBlocks; b++ {
		mdx := r.Intn(2*sadRange+1) - sadRange
		mdy := r.Intn(2*sadRange+1) - sadRange
		orig := sadOrig(b)
		for y := 0; y < 16; y++ {
			for x := 0; x < 16; x++ {
				v := int(w.prev[orig+(y+mdy)*sadPrevW+x+mdx]) + r.Intn(5) - 2
				if v < 0 {
					v = 0
				}
				if v > 255 {
					v = 255
				}
				w.cur[b*256+y*16+x] = uint8(v)
			}
		}
	}
	return w
})

// sadExpected is the (dx, dy, sad) triplet per block from the reference
// full search, computed once per process.
var sadExpected = sync.OnceValue(func() []int32 {
	w := sadData()
	out := make([]int32, 0, 3*sadBlocks)
	for b := 0; b < sadBlocks; b++ {
		dx, dy, sad := imgproc.MotionSearch(
			w.prev, sadPrevW, sadOrig(b), w.cur[b*256:], 16, sadRange)
		out = append(out, int32(dx), int32(dy), int32(sad))
	}
	return out
})

func (w sadWorkload) place(b *asm.Builder) {
	b.Bytes("prev", w.prev)
	b.Bytes("cur", w.cur)
	origs := make([]int32, sadBlocks)
	for i := range origs {
		origs[i] = int32(sadOrig(i))
	}
	b.Dwords("borig", origs)
	b.Reserve("mv", 4*3*sadBlocks)
	// Spilled driver loop state (block, dy, dx, incumbent best).
	for _, s := range []string{"i_blk", "i_dy", "i_dx", "bestsad", "bestdx", "bestdy"} {
		b.Reserve(s, 4)
	}
}

// SAD returns the sad.c and sad.mmx benchmarks.
func SAD() []core.Benchmark {
	descr := "16x16 full-search motion estimation, 8 blocks, +/-4 pixel search"
	return []core.Benchmark{
		{
			Base: "sad", Version: core.VersionC, Kind: core.KindKernel, Descr: descr,
			Build: buildSADC,
			Check: func(c *vm.CPU) error { return core.Expect(c, "mv", sadExpected(), 0, "sad.c") },
		},
		{
			Base: "sad", Version: core.VersionMMX, Kind: core.KindKernel, Descr: descr,
			Build: buildSADMMX,
			Check: func(c *vm.CPU) error { return core.Expect(c, "mv", sadExpected(), 0, "sad.mmx") },
		},
	}
}

// emitSADDriver emits the search loops shared by both versions: for every
// block and candidate displacement it points ESI at the candidate and EDI
// at the current block, invokes sad (which returns the SAD in EAX), and
// keeps the first strictly-smallest candidate — the rarely-taken
// "new minimum" branch that makes this kernel branch-biased.
func emitSADDriver(b *asm.Builder, sad func()) {
	st := func(sym string, r isa.Reg) { b.I(isa.MOV, asm.Sym(isa.SizeD, sym, 0), asm.R(r)) }
	ld := func(r isa.Reg, sym string) { b.I(isa.MOV, asm.R(r), asm.Sym(isa.SizeD, sym, 0)) }

	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(0))
	st("i_blk", isa.EAX)
	b.Label("blk")
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(0x7FFFFFFF))
	st("bestsad", isa.EAX)
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(-sadRange))
	st("i_dy", isa.EAX)
	b.Label("dy")
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(-sadRange))
	st("i_dx", isa.EAX)
	b.Label("dx")
	// ESI = prev + borig[blk] + dy*stride + dx.
	ld(isa.EAX, "i_dy")
	b.I(isa.IMUL, asm.R(isa.EAX), asm.Imm(sadPrevW))
	b.I(isa.ADD, asm.R(isa.EAX), asm.Sym(isa.SizeD, "i_dx", 0))
	ld(isa.ECX, "i_blk")
	b.I(isa.ADD, asm.R(isa.EAX), asm.SymIdx(isa.SizeD, "borig", isa.ECX, 4, 0))
	b.I(isa.MOV, asm.R(isa.ESI), asm.ImmSym("prev", 0))
	b.I(isa.ADD, asm.R(isa.ESI), asm.R(isa.EAX))
	// EDI = cur + 256*blk.
	ld(isa.EDI, "i_blk")
	b.I(isa.SHL, asm.R(isa.EDI), asm.Imm(8))
	b.I(isa.MOV, asm.R(isa.EAX), asm.ImmSym("cur", 0))
	b.I(isa.ADD, asm.R(isa.EDI), asm.R(isa.EAX))
	sad()
	b.I(isa.CMP, asm.R(isa.EAX), asm.Sym(isa.SizeD, "bestsad", 0))
	b.J(isa.JGE, "keep")
	st("bestsad", isa.EAX)
	ld(isa.ECX, "i_dx")
	st("bestdx", isa.ECX)
	ld(isa.ECX, "i_dy")
	st("bestdy", isa.ECX)
	b.Label("keep")
	ld(isa.EAX, "i_dx")
	b.I(isa.INC, asm.R(isa.EAX))
	st("i_dx", isa.EAX)
	b.I(isa.CMP, asm.R(isa.EAX), asm.Imm(sadRange))
	b.J(isa.JLE, "dx")
	ld(isa.EAX, "i_dy")
	b.I(isa.INC, asm.R(isa.EAX))
	st("i_dy", isa.EAX)
	b.I(isa.CMP, asm.R(isa.EAX), asm.Imm(sadRange))
	b.J(isa.JLE, "dy")
	// mv[3*blk] = (bestdx, bestdy, bestsad).
	ld(isa.ECX, "i_blk")
	b.I(isa.IMUL, asm.R(isa.ECX), asm.Imm(12))
	ld(isa.EAX, "bestdx")
	b.I(isa.MOV, asm.SymIdx(isa.SizeD, "mv", isa.ECX, 1, 0), asm.R(isa.EAX))
	ld(isa.EAX, "bestdy")
	b.I(isa.MOV, asm.SymIdx(isa.SizeD, "mv", isa.ECX, 1, 4), asm.R(isa.EAX))
	ld(isa.EAX, "bestsad")
	b.I(isa.MOV, asm.SymIdx(isa.SizeD, "mv", isa.ECX, 1, 8), asm.R(isa.EAX))
	ld(isa.EAX, "i_blk")
	b.I(isa.INC, asm.R(isa.EAX))
	st("i_blk", isa.EAX)
	b.I(isa.CMP, asm.R(isa.EAX), asm.Imm(sadBlocks))
	b.J(isa.JL, "blk")
}

// buildSADC is the compiled-C-style version: one byte per iteration with a
// compare-and-branch absolute value, loop state spilled to memory.
func buildSADC() (*asm.Program, error) {
	b := asm.NewBuilder("sad.c")
	sadData().place(b)

	b.Proc("main")
	b.I(isa.PROFON)
	emitSADDriver(b, func() { emit.Call(b, "sad16") })
	b.I(isa.PROFOFF)
	b.I(isa.HALT)

	// sad16: scalar SAD of the 16×16 blocks at ESI (stride 72) and EDI
	// (stride 16), result in EAX.
	b.Proc("sad16")
	b.I(isa.MOV, asm.R(isa.EBX), asm.Imm(0)) // accumulator
	b.I(isa.MOV, asm.R(isa.EBP), asm.Imm(0)) // row
	b.Label("row")
	b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(0)) // column
	b.Label("col")
	b.I(isa.MOVZXB, asm.R(isa.EAX), asm.MemIdx(isa.SizeB, isa.ESI, isa.ECX, 1, 0))
	b.I(isa.MOVZXB, asm.R(isa.EDX), asm.MemIdx(isa.SizeB, isa.EDI, isa.ECX, 1, 0))
	b.I(isa.SUB, asm.R(isa.EAX), asm.R(isa.EDX))
	b.J(isa.JNS, "pos")
	b.I(isa.NEG, asm.R(isa.EAX))
	b.Label("pos")
	b.I(isa.ADD, asm.R(isa.EBX), asm.R(isa.EAX))
	b.I(isa.INC, asm.R(isa.ECX))
	b.I(isa.CMP, asm.R(isa.ECX), asm.Imm(16))
	b.J(isa.JL, "col")
	b.I(isa.ADD, asm.R(isa.ESI), asm.Imm(sadPrevW))
	b.I(isa.ADD, asm.R(isa.EDI), asm.Imm(16))
	b.I(isa.INC, asm.R(isa.EBP))
	b.I(isa.CMP, asm.R(isa.EBP), asm.Imm(16))
	b.J(isa.JL, "row")
	b.I(isa.MOV, asm.R(isa.EAX), asm.R(isa.EBX))
	b.Ret()

	return b.Link()
}

// buildSADMMX runs the same search loops over the nsSAD16 library call:
// 8 pixels per quadword, |a-b| by saturating-subtract both ways.
func buildSADMMX() (*asm.Program, error) {
	b := asm.NewBuilder("sad.mmx")
	sadData().place(b)
	mmxlib.EmitSAD16(b)

	b.Entry()
	b.Proc("main")
	b.I(isa.PROFON)
	emitSADDriver(b, func() {
		emit.Call(b, "nsSAD16",
			asm.R(isa.ESI), asm.Imm(sadPrevW), asm.R(isa.EDI), asm.Imm(16))
	})
	b.I(isa.EMMS)
	b.I(isa.PROFOFF)
	b.I(isa.HALT)

	return b.Link()
}
