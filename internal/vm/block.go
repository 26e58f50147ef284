// Compilation: a one-time pass that lowers every instruction of a linked
// Program to micro-ops (lower.go), in program order, and partitions them
// into the basic blocks asm.Program.Blocks discovers. A block body runs
// through the micro-op executor as one unit — the observer gets one
// ObserveBlock call instead of one Retire per instruction — and its
// terminator is stepped on its own micro-ops, per event (its timing
// depends on dynamic state: branch direction, BTB, stack memory). Trace
// formation builds its superblocks by copying the block bodies.
//
// The dispatcher drops to single-instruction stepping whenever exactness
// requires it — entry at a non-leader PC (a ret popped an arbitrary return
// address) or an instruction budget too small to cover a whole block — so
// faults land on exactly the instruction the per-instruction loop's do.
package vm

import (
	"fmt"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/isa"
)

// Code is a compiled program: its instructions lowered to micro-ops. A
// Code value is immutable after Compile and may be shared by any number of
// CPUs running the same program (it holds no execution state); trace
// formation copies block micro-ops and never writes them.
type Code struct {
	prog *asm.Program
	// ops holds every instruction's micro-ops in program order; the
	// instruction at pc owns ops[at[pc]:at[pc+1]].
	ops []uop
	at  []int32
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
	// body is the lowered block body, the micro-ops of its instructions
	// before the terminator. Each micro-op's cum is the number of
	// instructions from the block start through its own, so a fault
	// retires exactly the instructions before it plus itself. The slice is
	// capped at its length: an append can never reach a neighbour's ops.
	body []uop
	// events is the event-emitting body instruction count; nInstrs and
	// nBody count all instructions (including NOPs and the terminator)
	// for the executed-instruction budget.
	events  int32
	nInstrs int64
	nBody   int64
}

// Compile lowers a linked program to micro-ops. The cost is one pass over
// the static instructions; every CPU built from the result shares it. The
// program's operand shapes must be ones isa.Inst.CheckOperands accepts, as
// asm.Builder ensures; Compile panics on any other.
func Compile(p *asm.Program) *Code {
	infos := p.Blocks()
	c := &Code{
		prog:    p,
		at:      make([]int32, len(p.Insts)+1),
		blocks:  make([]vmBlock, len(infos)),
		blockOf: make([]int32, len(p.Insts)),
	}
	ops := make([]uop, 0, len(p.Insts))
	for pc := range p.Insts {
		in := &p.Insts[pc]
		if err := in.CheckOperands(); err != nil {
			panic(fmt.Sprintf("vm: compile %s: instruction %d (%s): %v", p.Name, pc, in, err))
		}
		c.at[pc] = int32(len(ops))
		ops = lowerInst(ops, in, int32(pc))
	}
	c.at[len(p.Insts)] = int32(len(ops))
	c.ops = ops
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
			for i := c.at[pc]; i < c.at[pc+1]; i++ {
				ops[i].cum = int64(pc-start) + 1
			}
			if pc < bodyEnd && p.Insts[pc].Op.EmitsEvent() {
				b.events++
			}
		}
		b.body = ops[c.at[start]:c.at[bodyEnd]:c.at[bodyEnd]]
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
