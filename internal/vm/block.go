// Basic-block superhandlers: the predecoded handler array lowered one level
// further. Compile groups instructions into the basic blocks discovered by
// asm.Program.Blocks and the dispatch loop (runTrace) executes a whole
// block at a time: run the body (as a fused handler chain when every body
// instruction is provably non-faulting), hand the observer one ObserveBlock
// call instead of one Retire per instruction, then retire the terminator
// through the exact per-event path (its timing depends on dynamic state:
// branch direction, BTB, stack memory).
//
// The dispatcher drops to single-instruction stepping (stepDecoded)
// whenever exactness requires it — entry at a non-leader PC (a ret popped
// an arbitrary return address) or an instruction budget too small to cover
// a whole block — so faults stay byte-identical to the generic
// interpreter.
package vm

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
	bodyEnd  int32 // terminator PC, or end for fall-through blocks
	end      int32
	term     int32 // terminator PC, -1 when termKind == termNone
	termKind uint8
	// fused: every body instruction is a NOP or a specialized,
	// memory-free, non-FP handler — shapes whose handlers cannot fault —
	// so the body runs as a straight handler chain with no per-
	// instruction PC stores or event bookkeeping.
	fused bool
	// execs holds the handlers of the event-emitting body instructions of
	// a fused block (NOPs retire silently and are skipped entirely).
	execs []execFn
	// steps is the non-fused equivalent: the event-emitting body
	// instructions with the per-instruction state the slower loop needs
	// (fault PC, penalty collection).
	steps []bodyStep
	// events is the event-emitting body instruction count; nInstrs and
	// nBody count all instructions (including NOPs and the terminator)
	// for the executed-instruction budget.
	events  int32
	nInstrs int64
	nBody   int64
}

// bodyStep is one event-emitting instruction of a non-fused block body.
type bodyStep struct {
	exec    execFn
	pc      int32
	refsMem bool
}

// buildBlocks lowers the predecoded handler array into dispatchable blocks.
func (c *Code) buildBlocks() {
	p := c.prog
	infos := p.Blocks()
	c.blocks = make([]vmBlock, len(infos))
	c.blockOf = make([]int32, len(p.Insts))
	for bi := range infos {
		info := &infos[bi]
		b := &c.blocks[bi]
		start, bodyEnd := info.Body()
		b.start = int32(info.Start)
		b.bodyEnd = int32(bodyEnd)
		b.end = int32(info.End)
		b.term = int32(info.Term)
		b.nInstrs = int64(info.End - info.Start)
		b.nBody = int64(bodyEnd - start)
		b.termKind = termNone
		if info.Term >= 0 {
			switch c.ops[info.Term].kind {
			case dProfOn:
				b.termKind = termProfOn
			case dProfOff:
				b.termKind = termProfOff
			default:
				b.termKind = termCtl
			}
		}
		fused := true
		for pc := info.Start; pc < info.End; pc++ {
			c.blockOf[pc] = int32(bi)
		}
		for pc := start; pc < bodyEnd; pc++ {
			d := &c.ops[pc]
			if d.kind == dNop {
				continue
			}
			b.events++
			// Fused bodies skip the per-instruction PC store that fault
			// messages rely on, so they may only contain handlers that
			// provably never fault: the specialized integer and MMX
			// shapes with no memory operand. FP handlers are excluded
			// (mmx-active fault), as is anything on the generic path.
			if !d.spec || d.refsMem || p.Insts[pc].Op.IsFP() {
				fused = false
			}
		}
		if fused {
			b.fused = true
			for pc := start; pc < bodyEnd; pc++ {
				if c.ops[pc].kind != dNop {
					b.execs = append(b.execs, c.ops[pc].exec)
				}
			}
		} else {
			for pc := start; pc < bodyEnd; pc++ {
				d := &c.ops[pc]
				if d.kind != dNormal {
					continue
				}
				b.steps = append(b.steps, bodyStep{
					exec:    d.exec,
					pc:      int32(pc),
					refsMem: d.refsMem,
				})
			}
		}
	}
}

// stepDecoded retires one instruction through its predecoded handler;
// semantically one generic step. Its event goes to the run's stream, when
// the run is observed.
func (c *CPU) stepDecoded(maxInstrs int64, ev *Event) error {
	if c.executed >= maxInstrs {
		return c.budgetFault(maxInstrs)
	}
	pc := c.pc
	ops := c.code.ops
	if pc < 0 || pc >= len(ops) {
		return c.fault("control transferred outside program (pc=%d)", pc)
	}
	d := &ops[pc]
	c.executed++
	if d.kind != dNormal {
		switch d.kind {
		case dProfOn:
			c.measuring = true
		case dProfOff:
			c.measuring = false
		}
		c.pc++
		return nil
	}
	*ev = Event{PC: pc, Inst: d.inst, Measured: c.measuring}
	if err := d.exec(c, ev); err != nil {
		return err
	}
	if !ev.Taken {
		c.pc++
	}
	ev.Target = c.pc
	if c.st != nil {
		c.st.retire(ev)
	}
	return nil
}

// CompiledBlocks returns how many basic blocks the program compiled into
// (0 before the first Run when no Code is attached yet).
func (c *CPU) CompiledBlocks() int {
	if c.code == nil {
		return 0
	}
	return len(c.code.blocks)
}
