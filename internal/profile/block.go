// Region-level observation: the Collector implements vm.TraceObserver, so
// the interpreter hands it one call per retired region instead of one
// Retire per instruction — ObserveBlock for a basic-block body, and (see
// traceobs.go) ObserveTrace for a full superblock iteration and
// ObserveTraceExit for a side exit. Every region is a fixed event sequence
// priced through one timing path, pentium.RetireChain: a block body is a
// one-block chain with no terminator event. Measured executions are
// batched per schedule and folded into the counters at Report. When the
// chain schedule declines, the region's events are reconstructed and
// retired through the exact per-event path — region bodies are
// straight-line code with recorded terminator directions, so PC,
// instruction, measured flag, direction and memory penalty fully determine
// each event.
package profile

import (
	"mmxdsp/internal/pentium"
	"mmxdsp/internal/vm"
)

// chainEv is one event of a region in retirement order.
type chainEv struct {
	pc      int32
	taken   bool
	refsMem bool
}

// pendEntry counts measured fast-path executions of one region schedule not
// yet folded into the counters. Schedules are identified by the backing
// array of their costs slice (&costs[0]) — the timing model never mutates
// or reuses a returned costs slice, so equal pointer means equal schedule.
type pendEntry struct {
	costs []uint32
	n     uint64
}

// region is the pricing record of one fixed event sequence: its chain
// schedule, its events, and the per-schedule batch counts of fast-path
// executions not yet folded into the counters. Counters are all
// commutative sums, so deferring the fold until Report is exact — and
// regions whose cache-penalty pattern cycles through a few schedule
// variants batch each variant independently rather than flushing on every
// alternation.
type region struct {
	ct     *pentium.ChainTiming
	events []chainEv
	pend   []pendEntry
}

// initBlocks builds the per-block regions. The model must already be bound
// to prog (core.Run binds before constructing the collector); an unbound
// model declines every chain, so every block degrades to per-event replay.
func (c *Collector) initBlocks() {
	blocks := c.Prog.Blocks()
	c.blocks = make([]region, len(blocks))
	body := []pentium.ChainTerm{{PC: -1}}
	for bi := range blocks {
		r := &c.blocks[bi]
		start, bodyEnd := blocks[bi].Body()
		for pc := start; pc < bodyEnd; pc++ {
			if c.Prog.Insts[pc].Op.EmitsEvent() {
				r.events = append(r.events, chainEv{pc: int32(pc), refsMem: c.meta[pc].RefsMem})
			}
		}
		if len(r.events) > 0 {
			r.ct = c.Model.NewChain([]int32{int32(bi)}, body)
		}
	}
}

// ObserveBlock implements vm.TraceObserver.
func (c *Collector) ObserveBlock(bi int, measured bool, penalties []int32) {
	if bi < 0 || bi >= len(c.blocks) {
		return
	}
	r := &c.blocks[bi]
	if len(r.events) == 0 || c.retireRegion(r, measured, penalties) {
		return
	}
	// Exact per-event replay: reconstruct each body event and price it
	// directly (bypassing Retire's run-length batch, which consecutive
	// distinct PCs would flush every event).
	k := 0
	for _, e := range r.events {
		ev := vm.Event{PC: int(e.pc), Inst: &c.Prog.Insts[e.pc], Measured: measured}
		if e.refsMem {
			ev.MemPenalty = int(penalties[k])
			k++
		}
		c.perEvents++
		cost := c.Model.Retire(ev)
		if measured {
			c.tally(int(e.pc), uint64(cost), 1)
		}
	}
}

// retireRegion prices one execution of r through its chain schedule,
// batching measured executions per schedule. It reports false, having
// changed nothing, when the model declines; the caller must then retire the
// region's events itself.
func (c *Collector) retireRegion(r *region, measured bool, penalties []int32) bool {
	costs := c.Model.RetireChain(r.ct, penalties)
	if costs == nil {
		return false
	}
	c.fastEvents += uint64(len(r.events))
	if !measured {
		return true
	}
	key := &costs[0]
	for i := range r.pend {
		if &r.pend[i].costs[0] == key {
			r.pend[i].n++
			return true
		}
	}
	// A region that keeps evicting timing variants mints fresh cost
	// slices; fold and reset the table before it grows without bound.
	if len(r.pend) >= 16 {
		c.flushRegion(r)
	}
	r.pend = append(r.pend, pendEntry{costs: costs, n: 1})
	return true
}

// flushRegion folds r's pending batches into the counters: every event of
// the region retired n times at its scheduled cost.
func (c *Collector) flushRegion(r *region) {
	for _, pe := range r.pend {
		for i, e := range r.events {
			c.tally(int(e.pc), uint64(pe.costs[i]), pe.n)
		}
	}
	r.pend = r.pend[:0]
}

// flushRegions folds every pending batch of blocks, traces and side exits;
// counters are only complete after.
func (c *Collector) flushRegions() {
	for i := range c.blocks {
		c.flushRegion(&c.blocks[i])
	}
	for _, tc := range c.traces {
		c.flushRegion(&tc.full)
		for _, ec := range tc.exits {
			if ec != nil {
				c.flushRegion(ec)
			}
		}
	}
}

// BlockStats reports how many retired events were applied through a region
// schedule versus the per-event path (per-event region replays,
// terminators, and runs on the per-instruction loop). The split is
// diagnostic only and deliberately kept out of Report, which must stay
// byte-identical across dispatch modes.
func (c *Collector) BlockStats() (fastEvents, perEvents uint64) {
	return c.fastEvents, c.perEvents
}
