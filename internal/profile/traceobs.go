// Trace-level observation: the trace dispatcher hands the Collector one
// ObserveTrace call per full superblock iteration (and one ObserveTraceExit
// per side exit) instead of one ObserveBlock per block plus one Retire per
// terminator. A full iteration and each side-exit shape are regions (see
// block.go) priced through pentium.RetireChain. When a chain schedule
// declines, the iteration degrades to the per-block path (which itself
// degrades to per-event replay), so every tier produces byte-identical
// reports.
package profile

import (
	"mmxdsp/internal/pentium"
	"mmxdsp/internal/vm"
)

// traceChain is the observation record of one registered trace.
type traceChain struct {
	blocks []int32
	// termPC[i] is block i's terminator PC (-1 for fall-through); taken[i]
	// the direction the trace recorded for it. termMem[i] marks terminators
	// that reference memory (call/ret — they consume one penalty slot), and
	// termBr[i] conditional branches (the only terminators a side exit
	// inverts; a ret exit retires with its recorded direction).
	termPC  []int32
	taken   []bool
	termMem []bool
	termBr  []bool
	// bodyMem[i] counts block i's memory-referencing body events (slicing
	// the penalty vector per block on the fallback path).
	bodyMem []int32
	// full is the region of one full iteration.
	full region
	// exits memoizes per-exit regions: a side exit at block k is itself a
	// fixed event sequence (blocks 0..k, with block k's conditional
	// terminator inverted), so it gets the same chain fast path as full
	// iterations. Built lazily on first exit at k.
	exits []*region
}

// RegisterTrace implements vm.TraceObserver. Trace ids arrive dense and
// in order (the dispatcher numbers them as it forms them).
func (c *Collector) RegisterTrace(id int, blocks []int32, taken []bool) {
	if id != len(c.traces) {
		// Defensive: ids out of step would misalign the table; drop into
		// an always-fallback record rather than misattribute.
		for len(c.traces) <= id {
			c.traces = append(c.traces, &traceChain{})
		}
	}
	tc := &traceChain{
		blocks: append([]int32(nil), blocks...),
		taken:  append([]bool(nil), taken...),
	}
	progBlocks := c.Prog.Blocks()
	terms := make([]pentium.ChainTerm, 0, len(blocks))
	for i, bi := range blocks {
		if bi < 0 || int(bi) >= len(c.blocks) {
			c.traces = append(c.traces, &traceChain{})
			return
		}
		var memN int32
		for _, e := range c.blocks[bi].events {
			if e.refsMem {
				memN++
			}
			tc.full.events = append(tc.full.events, e)
		}
		tc.bodyMem = append(tc.bodyMem, memN)
		term := int32(-1)
		termMem, termBr := false, false
		if t := progBlocks[bi].Term; t >= 0 {
			term = int32(t)
			in := &c.Prog.Insts[term]
			termMem = in.ReferencesMemory()
			termBr = in.Op.IsBranch()
			tc.full.events = append(tc.full.events, chainEv{pc: term, taken: taken[i], refsMem: termMem})
		}
		tc.termPC = append(tc.termPC, term)
		tc.termMem = append(tc.termMem, termMem)
		tc.termBr = append(tc.termBr, termBr)
		terms = append(terms, pentium.ChainTerm{PC: term, Taken: taken[i]})
	}
	tc.full.ct = c.Model.NewChain(blocks, terms)
	if id == len(c.traces) {
		c.traces = append(c.traces, tc)
	} else {
		c.traces[id] = tc
	}
}

// ObserveTrace implements vm.TraceObserver: one full iteration of the
// trace retired, with one cache penalty per memory-referencing instruction
// in retirement order.
func (c *Collector) ObserveTrace(id int, measured bool, penalties []int32) {
	if id < 0 || id >= len(c.traces) {
		return
	}
	tc := c.traces[id]
	if !c.retireRegion(&tc.full, measured, penalties) {
		// Chain schedule declined: replay the iteration per block, exactly
		// as formation-off dispatch would have retired it.
		c.replayChainBlocks(tc, len(tc.blocks)-1, false, measured, penalties)
	}
}

// ObserveTraceExit implements vm.TraceObserver: a side exit at block k's
// terminator. Blocks 0..k completed architecturally; block k's terminator
// went the opposite of its recorded direction. Each exit shape is its own
// region, priced like a full iteration.
func (c *Collector) ObserveTraceExit(id int, k int, measured bool, penalties []int32) {
	if id < 0 || id >= len(c.traces) {
		return
	}
	tc := c.traces[id]
	if k < 0 || k >= len(tc.blocks) {
		return
	}
	if !c.retireRegion(c.exitRegion(tc, k), measured, penalties) {
		c.replayChainBlocks(tc, k, true, measured, penalties)
	}
}

// exitRegion lazily builds (once per exit point) the region of a side exit
// at block k of tc: the event sequence of blocks 0..k with block k's
// terminator going the un-recorded way when it is a conditional branch (a
// ret side exit retires with its recorded direction).
func (c *Collector) exitRegion(tc *traceChain, k int) *region {
	if tc.exits == nil {
		tc.exits = make([]*region, len(tc.blocks))
	}
	if ec := tc.exits[k]; ec != nil {
		return ec
	}
	ec := &region{}
	tc.exits[k] = ec
	terms := make([]pentium.ChainTerm, 0, k+1)
	for i := 0; i <= k; i++ {
		ec.events = append(ec.events, c.blocks[tc.blocks[i]].events...)
		taken := tc.taken[i]
		if i == k && tc.termBr[i] {
			taken = !taken
		}
		if tpc := tc.termPC[i]; tpc >= 0 {
			ec.events = append(ec.events, chainEv{pc: tpc, taken: taken, refsMem: tc.termMem[i]})
		}
		terms = append(terms, pentium.ChainTerm{PC: tc.termPC[i], Taken: taken})
	}
	ec.ct = c.Model.NewChain(tc.blocks[:k+1], terms)
	return ec
}

// replayChainBlocks retires blocks 0..k of the chain through the ordinary
// block path (fast block schedules where they apply), flipping block k's
// terminator direction when invert is set.
func (c *Collector) replayChainBlocks(tc *traceChain, k int, invert bool, measured bool, penalties []int32) {
	off := 0
	for i := 0; i <= k; i++ {
		n := int(tc.bodyMem[i])
		c.ObserveBlock(int(tc.blocks[i]), measured, penalties[off:off+n])
		off += n
		if tpc := tc.termPC[i]; tpc >= 0 {
			taken := tc.taken[i]
			if invert && i == k && tc.termBr[i] {
				taken = !taken
			}
			ev := vm.Event{
				PC:       int(tpc),
				Inst:     &c.Prog.Insts[tpc],
				Measured: measured,
				Taken:    taken,
			}
			if tc.termMem[i] {
				ev.MemPenalty = int(penalties[off])
				off++
			}
			c.Retire(ev)
		}
	}
}
