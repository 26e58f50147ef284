// Basic-block superhandlers: the predecoded handler array lowered one level
// further. Compile groups instructions into the basic blocks discovered by
// asm.Program.Blocks and the inner loop dispatches a whole block at a time:
// execute the body (as a fused handler chain when every body instruction is
// provably non-faulting), hand the observer one ObserveBlock call instead of
// one Retire per instruction, then retire the terminator through the exact
// per-event path (its timing depends on dynamic state: branch direction,
// BTB, stack memory).
//
// The dispatcher drops to single-instruction stepping whenever exactness
// requires it — entry at a non-leader PC (a ret popped an arbitrary return
// address) or an instruction budget too small to cover a whole block — so
// faults stay byte-identical to the per-event interpreters.
package vm

// BlockObserver is an optional extension of Observer. When a CPU's observer
// implements it, Run retires straight-line block bodies through ObserveBlock
// instead of per-instruction Retire calls; observers that need the full
// event stream (tracers, tees, event hashers) simply don't implement the
// interface and automatically keep the per-event path.
type BlockObserver interface {
	Observer
	// ObserveBlock reports one complete execution of basic block bi (as
	// numbered by asm.Program.Blocks): every event-emitting body
	// instruction retired exactly once, in program order, with no control
	// transfer and with the measured flag constant throughout. penalties
	// holds, in body order, the cache penalty charged to each
	// memory-referencing body instruction; it is empty for memory-free
	// bodies and only valid for the duration of the call. The block's
	// terminator (if any) is delivered separately through Retire.
	ObserveBlock(bi int, measured bool, penalties []int32)
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

// runBlocks is the block-dispatch inner loop. bobs is the CPU's observer
// when it implements BlockObserver, or nil when the CPU has no observer at
// all (fused bodies then execute with zero observation cost).
func (c *CPU) runBlocks(maxInstrs int64, bobs BlockObserver) error {
	code := c.code
	ops := code.ops
	var ev Event
	var penbuf []int32
	// Poll once per dispatched block: bodies are bounded by the program's
	// longest straight-line run, so the between-poll gap stays within one
	// block of the configured interval.
	pollAt := c.pollStart()
	for !c.halted {
		if c.executed >= pollAt {
			if err := c.Poll(); err != nil {
				return c.abort(err)
			}
			pollAt = c.executed + c.pollInterval()
		}
		pc := c.pc
		if pc < 0 || pc >= len(ops) {
			return c.fault("control transferred outside program (pc=%d)", pc)
		}
		bi := int(code.blockOf[pc])
		b := &code.blocks[bi]
		if int(b.start) != pc || c.executed+b.nInstrs > maxInstrs {
			// Mid-block entry (a ret popped a non-leader address) or not
			// enough budget for the whole block: single-step so budget
			// faults land on exactly the right instruction.
			if err := c.stepDecoded(maxInstrs, &ev); err != nil {
				return err
			}
			continue
		}
		if b.fused {
			c.executed += b.nBody
			for _, fn := range b.execs {
				if err := fn(c, &ev); err != nil {
					return err
				}
			}
			if bobs != nil && b.events > 0 {
				bobs.ObserveBlock(bi, c.measuring, nil)
			}
		} else {
			c.executed += b.nBody
			pen := penbuf[:0]
			for i := range b.steps {
				s := &b.steps[i]
				// Handlers here can fault; c.pc feeds the fault message.
				c.pc = int(s.pc)
				if s.refsMem {
					// Only memory handlers write MemPenalty, and it is
					// only read back after one, so non-memory steps skip
					// the reset.
					ev.MemPenalty = 0
					if err := s.exec(c, &ev); err != nil {
						return err
					}
					pen = append(pen, int32(ev.MemPenalty))
				} else if err := s.exec(c, &ev); err != nil {
					return err
				}
			}
			penbuf = pen
			if bobs != nil && b.events > 0 {
				bobs.ObserveBlock(bi, c.measuring, pen)
			}
		}
		switch b.termKind {
		case termNone:
			c.pc = int(b.end)
		case termProfOn:
			c.executed++
			c.measuring = true
			c.pc = int(b.end)
		case termProfOff:
			c.executed++
			c.measuring = false
			c.pc = int(b.end)
		default: // termCtl
			tpc := int(b.term)
			c.executed++
			c.pc = tpc
			d := &ops[tpc]
			ev = Event{PC: tpc, Inst: d.inst, Measured: c.measuring}
			if err := d.exec(c, &ev); err != nil {
				return err
			}
			if !ev.Taken {
				c.pc++
			}
			ev.Target = c.pc
			if c.Obs != nil {
				c.Obs.Retire(ev)
			}
		}
	}
	return nil
}

// stepDecoded retires one instruction through the per-event predecoded
// path; semantically one iteration of Run's default loop. Trace dispatch
// uses it too, and then retires through its stream.
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
	} else if c.Obs != nil {
		c.Obs.Retire(*ev)
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
