// Compilation: a one-time pass that lowers every basic block of a linked
// Program (as discovered by asm.Program.Blocks) to micro-ops, the one fast
// execution form of the dispatch loop (trace.go). A block body runs
// through the micro-op executor as one unit — the observer gets one
// ObserveBlock call instead of one Retire per instruction — and its
// terminator retires through the generic executor, per event (its timing
// depends on dynamic state: branch direction, BTB, stack memory). Trace
// formation builds its superblocks by copying these per-block micro-ops.
//
// The dispatcher drops to single-instruction stepping whenever exactness
// requires it — entry at a non-leader PC (a ret popped an arbitrary return
// address) or an instruction budget too small to cover a whole block — so
// faults stay byte-identical to the generic interpreter.
package vm

import (
	"mmxdsp/internal/asm"
	"mmxdsp/internal/isa"
)

// Code is a compiled program: its basic blocks lowered to micro-ops. A
// Code value is immutable after Compile and may be shared by any number of
// CPUs running the same program (it holds no execution state); trace
// formation copies block micro-ops and never writes them.
type Code struct {
	prog *asm.Program
	// blocks and blockOf are the block-dispatch tables: one vmBlock per
	// basic block, and the owning block index per PC.
	blocks  []vmBlock
	blockOf []int32
}

// Terminator kinds of a vmBlock.
const (
	termNone uint8 = iota // falls through into the next leader
	termCtl               // control transfer or halt: retire per-event
	termProfOn
	termProfOff
)

// vmBlock is one basic block prepared for dispatch.
type vmBlock struct {
	start    int32
	end      int32
	term     int32 // terminator PC, -1 when termKind == termNone
	termKind uint8
	// body is the lowered block body, closed by a uBodyEnd. Each
	// micro-op's cum is the number of instructions from the block start
	// through its own, so a fault retires exactly the instructions before
	// it plus itself. The slice is capped at its length: an append can
	// never reach a neighbour's ops.
	body []uop
	// events is the event-emitting body instruction count; nInstrs and
	// nBody count all instructions (including NOPs and the terminator)
	// for the executed-instruction budget.
	events  int32
	nInstrs int64
	nBody   int64
}

// Compile lowers a linked program to micro-ops. The cost is one pass over
// the static instructions; every CPU built from the result shares it.
func Compile(p *asm.Program) *Code {
	infos := p.Blocks()
	meta := p.InstMeta()
	c := &Code{
		prog:    p,
		blocks:  make([]vmBlock, len(infos)),
		blockOf: make([]int32, len(p.Insts)),
	}
	// At most one micro-op per instruction, plus each body's uBodyEnd:
	// the array never moves, so each body can be sliced off it as soon as
	// it is lowered.
	ops := make([]uop, 0, len(p.Insts)+len(infos))
	for bi := range infos {
		info := &infos[bi]
		b := &c.blocks[bi]
		start, bodyEnd := info.Body()
		b.start = int32(info.Start)
		b.end = int32(info.End)
		b.term = int32(info.Term)
		b.nInstrs = int64(info.End - info.Start)
		b.nBody = int64(bodyEnd - start)
		b.termKind = termNone
		if info.Term >= 0 {
			switch p.Insts[info.Term].Op {
			case isa.PROFON:
				b.termKind = termProfOn
			case isa.PROFOFF:
				b.termKind = termProfOff
			default:
				b.termKind = termCtl
			}
		}
		for pc := info.Start; pc < info.End; pc++ {
			c.blockOf[pc] = int32(bi)
		}
		first := len(ops)
		for pc := start; pc < bodyEnd; pc++ {
			in := &p.Insts[pc]
			if !in.Op.EmitsEvent() {
				continue
			}
			b.events++
			if u, ok := lowerInst(in, meta[pc].RefsMem, int32(pc)); ok {
				u.cum = int64(pc-start) + 1
				ops = append(ops, u)
			}
		}
		ops = append(ops, uop{kind: uBodyEnd})
		b.body = ops[first:len(ops):len(ops)]
	}
	return c
}

// CompiledBlocks returns how many basic blocks the program compiled into
// (0 before the first Run when no Code is attached yet).
func (c *CPU) CompiledBlocks() int {
	if c.code == nil {
		return 0
	}
	return len(c.code.blocks)
}
