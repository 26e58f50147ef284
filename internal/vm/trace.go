// The dispatch loop and its one fast execution form, micro-ops. Compile
// (block.go) lowers every basic block body to micro-ops; the dispatch loop
// runs a body through the micro-op executor (execUops) and retires its
// terminator on the generic executor.
//
// Trace (superblock) dispatch builds on the same micro-ops. At run time
// the dispatcher counts how often control arrives at each block leader
// over a taken back edge or a trace exit; when a leader crosses the
// hotness threshold, the next pass through it records the chain of basic
// blocks the program actually follows — across taken branches — until the
// chain closes back on its head (a loop trace), repeats a block, grows too
// long, or reaches an untraceable terminator (call/ret/halt/marker). The
// recorded chain becomes a superblock: the chain's block micro-ops copied
// into one flat array, with every conditional branch turned into a
// side-exit guard that checks the recorded direction and falls back to
// block dispatch when the program diverges. The same executor runs it.
//
// While the executor runs, the hot architectural state — the eight GPRs,
// the eight MMX registers and the four flags — lives in Go locals,
// spilling to the CPU only at side exits, at poll points and around the
// rare fallback micro-op that calls the generic executor. Instruction
// budgets stay exact because a trace iteration only begins when it fits the
// remaining budget entirely (the boundary is handled by block dispatch,
// which single-steps); Poll cancellation stays bounded because every
// completed iteration checks the poll clock with fully spilled state.
//
// Observation moves up a level too: a TraceObserver receives one
// ObserveTrace per completed iteration (or ObserveTraceExit at a side
// exit) with the memory penalties of the whole iteration, mirroring how
// ObserveBlock batches a block body. The profile collector prices these
// through chain-level timing schedules (pentium.RetireChain) and falls back
// to exact per-event replay when no schedule applies, so reported results
// stay byte-identical to the generic interpreter's.
//
// Loop traces additionally grow into trace trees: a guard that keeps
// side-exiting — persistently, but below the deopt threshold (a biased but
// not fully-taken inner branch) — records the alternate path from its exit
// target back to the head and attaches it as a child: the guard becomes a
// fork into a second lowered segment that shares the parent's register-cache
// locals and ends in its own iteration boundary. Each root-to-rejoin path is
// registered with the observer under its own id, so tree iterations price
// through the same chain schedules, keyed by the path taken. Tree growth
// mirrors the single-trace policy: a per-guard exit-count threshold with
// exponential backoff on failed formations, a bounded node and op budget,
// and whole-tree abandonment when the root deoptimizes.
package vm

import (
	"math"

	"mmxdsp/internal/isa"
	"mmxdsp/internal/mmx"
)

// Trace-formation tuning.
const (
	// defaultTraceThreshold is how many hot arrivals a block leader needs
	// before recording starts (CPU.TraceThreshold overrides).
	defaultTraceThreshold = 64
	// traceMaxBlocks bounds a recorded chain.
	traceMaxBlocks = 16
	// traceMaxOps bounds the lowered micro-op count.
	traceMaxOps = 512
	// traceMaxAttempts caps the exponent of the re-heat backoff: each
	// failed formation attempt at a head doubles the heat a reformation
	// needs, so a head that keeps producing cold traces retries ever more
	// rarely (sampling a different execution phase each time) without
	// being permanently blacklisted.
	traceMaxAttempts = 6
	// traceMaxUnroll caps the per-block revisit allowance a recording
	// earns from failed attempts, bounding how far a reformation may
	// unroll repeated blocks.
	traceMaxUnroll = 2
	// traceDeoptMinEntries is the sample size before the side-exit-rate
	// deoptimization check applies.
	traceDeoptMinEntries = 64

	// treeGrowThreshold is how many side exits one uJcc guard must take
	// (scaled by the guard's failed-formation backoff, like trace heat)
	// before the alternate path is recorded as a child trace. It sits well
	// under traceDeoptMinEntries so a biased guard grows its alternate arm
	// before the side-exit governor can retire the whole trace.
	treeGrowThreshold = 16
	// treeMaxNodes bounds one trace's tree: root plus children.
	treeMaxNodes = 4
	// treeMaxOps bounds the lowered micro-op total across the whole tree.
	treeMaxOps = 1024
)

// byBlock sentinel states for block leaders without a trace.
const (
	traceNone int32 = -1 // no trace yet; may record
	traceDead int32 = -2 // blacklisted: untraceable or repeatedly failed
)

// traceDynExit marks a chain that ends at a top-level return: the exit
// target is whatever address the ret pops, so the lowered trace ends in a
// computed exit instead of a continuation guard.
const traceDynExit int32 = -1

// TraceObserver is an optional extension of Observer that receives whole
// retired regions. When a CPU's observer implements it (or the CPU has
// none), Run uses the trace-dispatch loop, calling the observer from a
// second goroutine (see stream.go); any other observer runs on the generic
// interpreter, one Retire per instruction.
type TraceObserver interface {
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
	// RegisterTrace announces a newly formed trace: the basic blocks it
	// visits in order (by the numbering of asm.Program.Blocks) and the
	// recorded direction of each block's terminator (false for
	// fall-through blocks, true for unconditional jumps). Slices are only
	// valid for the duration of the call.
	RegisterTrace(id int, blocks []int32, taken []bool)
	// ObserveTrace reports one complete on-trace iteration of trace id:
	// every block body retired in order, every terminator going its
	// recorded direction. penalties holds the cache penalty of each
	// memory-referencing instruction of the whole iteration in retirement
	// order; it is only valid for the duration of the call.
	ObserveTrace(id int, measured bool, penalties []int32)
	// ObserveTraceExit reports a partial iteration ending in a side exit:
	// blocks 0..k retired completely (bodies and terminators), the
	// terminators of blocks 0..k-1 went their recorded direction, and
	// block k's conditional terminator went the opposite way, leaving the
	// trace. penalties covers the retired prefix in retirement order.
	ObserveTraceExit(id int, k int, measured bool, penalties []int32)
}

// TraceStats summarizes trace-tier behavior for one run (diagnostic only —
// reported results are byte-identical across dispatch modes).
type TraceStats struct {
	// Formed is how many traces were recorded and lowered.
	Formed int
	// Iters counts completed on-trace iterations; Exits counts side exits
	// (partial iterations).
	Iters uint64
	Exits uint64
	// TraceInstrs is how many instructions retired inside trace execution.
	TraceInstrs uint64
	// TreeNodes counts child paths attached across all trace trees.
	TreeNodes int
	// Deopts counts traces retired by the side-exit governor.
	Deopts uint64
	// TreeIters counts iterations that completed via a child path;
	// TreeInstrs the instructions those whole iterations retired.
	TreeIters  uint64
	TreeInstrs uint64
}

// SideExitPct returns side exits as a percentage of trace entries.
func (s TraceStats) SideExitPct() float64 {
	total := s.Iters + s.Exits
	if total == 0 {
		return 0
	}
	return 100 * float64(s.Exits) / float64(total)
}

// TraceStats returns the trace-tier statistics of the last Run (zero when
// no trace formed).
func (c *CPU) TraceStats() TraceStats {
	ts := c.ts
	if ts == nil {
		return TraceStats{}
	}
	return TraceStats{
		Formed:      len(ts.traces),
		Iters:       ts.iters,
		Exits:       ts.exits,
		TraceInstrs: ts.instrs,
		TreeNodes:   ts.treeNodes,
		Deopts:      ts.deopts,
		TreeIters:   ts.treeIters,
		TreeInstrs:  ts.treeInstrs,
	}
}

// Micro-op kinds. Each native kind executes one operand shape of one
// opcode family; uCall runs any other instruction on the generic executor
// (spill, call, reload).
const (
	uCall uint8 = iota

	// Integer moves and loads/stores.
	uMovRR
	uMovRI
	uLoad8
	uLoad16
	uLoad32
	uLoadSx8
	uLoadSx16
	uStore8
	uStore16
	uStore32
	uStore8I
	uStore16I
	uStore32I
	uLea
	uZx8
	uZx16
	uSx8
	uSx16
	uXchg
	uPushR
	uPushI
	uPopR

	// ALU: register-register, register-immediate, register-dword-memory.
	uAddRR
	uAddRI
	uAddRM
	uSubRR
	uSubRI
	uSubRM
	uCmpRR
	uCmpRI
	uCmpRM
	uAndRR
	uAndRI
	uAndRM
	uOrRR
	uOrRI
	uOrRM
	uXorRR
	uXorRI
	uXorRM
	uTestRR
	uTestRI
	uTestRM
	uImulRR
	uImulRI
	uImulRM
	uAluMR // op [mem], gpr[s]  (read-modify-write; u.alu selects, u.d is size)
	uAluMI // op [mem], imm2
	uNot
	uNeg
	uInc
	uDec
	uShlI
	uShrI
	uSarI
	uCdq

	// Control: side-exit guard and iteration end. uCallT/uRet inline a
	// direct call (push the static return address; the target is the next
	// chain block) and its return (pop, then guard that the popped address
	// is the recorded continuation — a mismatch is a side exit).
	uJcc
	uEnd
	uCallT
	uRet
	// uBodyEnd closes every compiled block body, so the executor's loop
	// needs no bounds test; traces copy bodies without it.
	uBodyEnd

	// MMX.
	uMovdGM // mm[d] = zext gpr[s]
	uMovdMG // gpr[d] = low32 mm[s]
	uMovdLM // mm[d] = zext load32 [mem]
	uMovdSM // store32 [mem] = low32 mm[s]
	uMovqRR
	uMovqLM64
	uMovqLM32
	uMovqSM
	uMMXBinRR
	uMMXBinRM64
	uMMXBinRM32
	uMMXShiftI
	uMMXShiftRR
	uEmms

	// Floating point (registers stay in CPU state; every op re-checks the
	// mmx-active fault exactly like execFP).
	uFMovRR
	uFLoad32
	uFLoad64
	uFConst
	uFArithRR
	uFArithM32
	uFArithM64
	uFComRR
	uFComM32
	uFComM64
)

// Condition codes for uJcc (lowered from the conditional-branch opcode).
const (
	ccE uint8 = iota
	ccNE
	ccL
	ccLE
	ccG
	ccGE
	ccB
	ccBE
	ccA
	ccAE
	ccS
	ccNS
)

// ALU sub-ops for the read-modify-write uAluMR/uAluMI micro-ops. cmp and
// test read without writing back (single access charge, like execInt).
const (
	aluAdd uint8 = iota
	aluSub
	aluCmp
	aluAnd
	aluTest
	aluOr
	aluXor
	aluImul
)

// FP arithmetic sub-ops for uFArith*.
const (
	fpAdd uint8 = iota
	fpSub
	fpSubR
	fpMul
	fpDiv
)

// noIdx marks an absent base/index register in a memory micro-op.
const noIdx uint8 = 0xFF

// uop is one micro-op, of a block body or a trace. Memory operands are
// flattened into base/index/scale/disp fields; register indices into d
// (destination) and s (source). The meaning of the remaining fields
// depends on kind.
type uop struct {
	kind uint8
	d, s uint8
	// alu carries the uJcc condition code or the uFArith sub-op.
	alu uint8
	// b/x/scale/imm encode a memory address (imm doubles as the ALU/move
	// immediate); imm2 is the store-immediate value.
	b, x  uint8
	scale uint32
	imm   uint32
	imm2  uint32
	// expect is the recorded direction of a uJcc, or the loop flag of uEnd.
	expect bool
	// refsMem/mmx describe a uCall'd instruction (penalty slot, mm spill).
	refsMem bool
	mmx     bool
	// pc is the originating instruction (fault context, side-exit
	// fall-through); tgt the branch target (uJcc) or exit PC (uEnd).
	pc  int32
	tgt int32
	// blockK is the index within the trace of the block owning a
	// uJcc/uEnd. cum is the instruction count retired from the start of
	// the segment (block body, or trace iteration) through this op's
	// instruction — for a terminator op, through the end of its block: a
	// fault here leaves exactly that many retired.
	blockK int32
	cum    int64
	// pathIdx tags control ops (uJcc/uRet/uEnd) with the tree path they
	// retire against (0 = root). On a uJcc guard, child/childPath point at
	// an attached alternate-path segment (child 0 = none); until one
	// attaches, d counts failed child formations (the backoff exponent)
	// and imm2 counts side exits toward the growth threshold — both
	// otherwise unused by uJcc.
	pathIdx   uint16
	childPath uint16
	child     int32
	// fv is the uFConst value; mfn/sfn the MMX binary/shift functions;
	// in the instruction a uCall runs.
	fv  float64
	mfn func(a, b mmx.Reg) mmx.Reg
	sfn func(v mmx.Reg, n uint) mmx.Reg
	in  *isa.Inst
}

// vmTrace is one lowered superblock, possibly grown into a tree: child
// segments are appended after the root's uEnd and entered through fork
// guards; each root-to-rejoin path is registered separately.
type vmTrace struct {
	// id is the observation id handed to RegisterTrace/Observe*; slot the
	// trace's index in traceState.traces (what byBlock stores). The two
	// diverge once child paths consume observation ids.
	id        int
	slot      int32
	head      int32 // entry PC (a block leader)
	headBlock int32
	blocks    []int32
	taken     []bool
	ops       []uop
	// paths describes the tree: nil for a plain superblock; once a child
	// attaches, paths[0] is the root path and each attachment appends the
	// combined shared-prefix-plus-alternate-arm path.
	paths []tracePath
	// nInstrs is the instruction count of one full iteration (bodies,
	// NOPs and terminators).
	nInstrs int64
	loop    bool
	// exitPC is where a full iteration of a non-loop trace continues
	// (traceDynExit when the chain ends at a top-level ret); the head for
	// loop traces. Child arms rejoin or exit at the same point.
	exitPC int32
	iters  uint64
	exits  uint64
}

// tracePath is one registered root-to-rejoin path through a trace tree: the
// shared block prefix up to a fork guard (with that guard's direction
// inverted), then the recorded alternate arm back to the head.
type tracePath struct {
	id     int
	blocks []int32
	taken  []bool
	// nInstrs is the full iteration instruction count along this path.
	nInstrs int64
}

// pathID resolves a control op's path tag to its observation id.
func (tr *vmTrace) pathID(idx uint16) int {
	if idx == 0 {
		return tr.id
	}
	return tr.paths[idx].id
}

// traceRec is the single active chain recording.
type traceRec struct {
	active bool
	head   int32
	blocks []int32
	taken  []bool
	// depth tracks call nesting along the chain: rets that match an
	// earlier recorded call keep the chain growing (their continuation
	// guard is the statically pushed return address); a top-level ret
	// ends the chain with a computed exit.
	depth int32
	// child marks an alternate-arm recording for an existing trace: parent
	// is that trace's slot and parentOp the fork guard's op index. The arm
	// attaches when it reaches childStop (the parent's head for a loop
	// trace, its exit continuation otherwise) or, when childStop is
	// traceDynExit (a tail-return parent), at the arm's first top-level
	// ret; anything else fails the recording with per-guard backoff.
	child     bool
	parent    int32
	parentOp  int32
	childStop int32
}

// traceState is the per-run trace machinery hanging off a CPU.
type traceState struct {
	threshold uint32
	// heat counts hot arrivals per block leader; byBlock maps a leader's
	// block to its trace id (or traceNone/traceDead); attempts counts
	// failed formations toward the blacklist.
	heat     []uint32
	byBlock  []int32
	attempts []uint8
	traces   []*vmTrace
	rec      traceRec
	// ev is the reusable event uCall handlers write penalties into;
	// penbuf the penalty accumulator of unobserved runs, sized for the
	// largest iteration (at most one penalty per micro-op) so it never
	// grows.
	ev     Event
	penbuf []int32
	// nextID allocates dense observation ids across roots and child paths.
	nextID int
	// Run statistics (see TraceStats).
	iters      uint64
	exits      uint64
	instrs     uint64
	treeNodes  int
	deopts     uint64
	treeIters  uint64
	treeInstrs uint64
}

// traceInit builds (once) the per-run trace state.
func (c *CPU) traceInit() *traceState {
	if c.ts != nil {
		return c.ts
	}
	th := c.TraceThreshold
	if th <= 0 {
		th = defaultTraceThreshold
	}
	n := len(c.code.blocks)
	ts := &traceState{
		threshold: uint32(th),
		heat:      make([]uint32, n),
		byBlock:   make([]int32, n),
		attempts:  make([]uint8, n),
		penbuf:    make([]int32, 0, treeMaxOps),
	}
	for i := range ts.byBlock {
		ts.byBlock[i] = traceNone
	}
	c.ts = ts
	return ts
}

// bump counts a hot arrival at target (a taken back edge or a trace exit)
// and starts recording when the leader crosses the threshold.
func (ts *traceState) bump(c *CPU, target int) {
	code := c.code
	if target < 0 || target >= len(code.blockOf) {
		return
	}
	bi := int(code.blockOf[target])
	if int(code.blocks[bi].start) != target || ts.byBlock[bi] != traceNone {
		return
	}
	h := ts.heat[bi] + 1
	ts.heat[bi] = h
	if h >= ts.threshold<<ts.attempts[bi] && !ts.rec.active {
		ts.rec.active = true
		ts.rec.child = false
		ts.rec.head = int32(target)
		ts.rec.blocks = ts.rec.blocks[:0]
		ts.rec.taken = ts.rec.taken[:0]
		ts.rec.depth = 0
	}
}

// record appends one completed block (with its terminator's direction) to
// the active chain.
func (ts *traceState) record(bi int, taken bool) {
	ts.rec.blocks = append(ts.rec.blocks, int32(bi))
	ts.rec.taken = append(ts.rec.taken, taken)
}

// noteFail counts a failed formation attempt, doubling the heat the head
// needs before the next recording (capped exponential backoff).
func (ts *traceState) noteFail(hb int) {
	if ts.attempts[hb] < traceMaxAttempts {
		ts.attempts[hb]++
	}
}

// abandonRec drops the active recording without forming a trace (budget
// squeeze or mid-block entry broke the chain).
func (c *CPU) abandonRec(ts *traceState) {
	rec := &ts.rec
	if !rec.active {
		return
	}
	if rec.child {
		c.failChild(ts)
		return
	}
	rec.active = false
	ts.heat[c.code.blockOf[rec.head]] = 0
}

// traceableBlock reports whether a block may join a chain: fall-through
// blocks and blocks ending in a direct jump, conditional branch, call or
// return. Calls inline into the chain (the recorded path runs through the
// callee); returns carry a target guard. Halts and profiling markers end
// the chain before the block.
func traceableBlock(code *Code, b *vmBlock) bool {
	switch b.termKind {
	case termNone:
		return true
	case termCtl:
		op := code.prog.Insts[b.term].Op
		return op == isa.JMP || op.IsBranch() || op == isa.CALL || op == isa.RET
	}
	return false
}

// finalizeRec closes the active recording into a trace. loop marks a chain
// that closed on its own head; exitPC is where execution continues after a
// full iteration of a non-loop chain.
func (c *CPU) finalizeRec(ts *traceState, loop bool, exitPC int32) {
	rec := &ts.rec
	rec.active = false
	hb := int(c.code.blockOf[rec.head])
	ts.heat[hb] = 0
	if len(rec.blocks) == 0 || ts.byBlock[hb] != traceNone {
		return
	}
	tr := c.lowerTrace(rec.blocks, rec.taken, loop, exitPC)
	if tr == nil {
		ts.noteFail(hb)
		return
	}
	tr.slot = int32(len(ts.traces))
	tr.id = ts.nextID
	ts.nextID++
	tr.head = rec.head
	tr.headBlock = int32(hb)
	ts.traces = append(ts.traces, tr)
	ts.byBlock[hb] = tr.slot
	if c.st != nil {
		c.st.register(tr.id, tr.blocks, tr.taken)
	}
}

// recCheck decides, when a full block is about to dispatch while recording,
// whether the chain closes (loop), ends before this block, or keeps
// growing. It may leave the recording inactive.
//
// Revisits: each failed formation attempt at the recording's head raises a
// per-block revisit allowance by one, so a short-trip loop whose one-
// revolution trace deoptimized reforms as an unrolled chain — recording
// keeps going through the repeated blocks until it arrives back at the
// head past the allowance, by which point the chain spans a full outer
// revolution and its guards match the trip pattern.
func (c *CPU) recCheck(ts *traceState, bi int, b *vmBlock) {
	rec := &ts.rec
	if rec.child {
		// An alternate-arm recording attaches only by reaching the
		// parent's rejoin point (head for loops, the exit continuation
		// otherwise); a revisited block, an oversized chain or an
		// untraceable terminator fails it with per-guard backoff rather
		// than forming a separate trace.
		if rec.childStop >= 0 && b.start == rec.childStop && len(rec.blocks) > 0 {
			c.attachChild(ts, false)
			return
		}
		for _, pb := range rec.blocks {
			if int(pb) == bi {
				c.failChild(ts)
				return
			}
		}
		if len(rec.blocks) >= traceMaxBlocks || !traceableBlock(c.code, b) {
			c.failChild(ts)
		}
		return
	}
	allow := int(ts.attempts[c.code.blockOf[rec.head]])
	if allow > traceMaxUnroll {
		allow = traceMaxUnroll
	}
	seen := 0
	for _, pb := range rec.blocks {
		if int(pb) == bi {
			seen++
		}
	}
	if b.start == rec.head && len(rec.blocks) > 0 {
		if seen > allow {
			c.finalizeRec(ts, true, rec.head)
			return
		}
	} else if seen > allow {
		c.finalizeRec(ts, false, b.start)
		return
	}
	if len(rec.blocks) >= traceMaxBlocks {
		c.finalizeRec(ts, false, b.start)
		return
	}
	if !traceableBlock(c.code, b) {
		if len(rec.blocks) > 0 {
			c.finalizeRec(ts, false, b.start)
			return
		}
		// The head itself cannot anchor a trace; never try again.
		rec.active = false
		hb := int(c.code.blockOf[rec.head])
		ts.heat[hb] = 0
		ts.byBlock[hb] = traceDead
	}
}

// maybeDeopt retires a trace whose side-exit rate shows the recorded path
// went cold: the head returns to the heat-counting pool (and eventually the
// blacklist if reformation keeps failing). A loop trace exits once per
// activation by construction — its terminating branch is a side exit — so
// the cold signal there is failing to complete even one revolution per
// entry (iters < exits), not the raw exit share, which for a short
// trip-count loop is high even when the trace is profitable.
func (ts *traceState) maybeDeopt(tr *vmTrace) {
	entries := tr.iters + tr.exits
	if entries < traceDeoptMinEntries {
		return
	}
	hb := int(tr.headBlock)
	if tr.loop {
		// A loop trace exits once per activation by construction, so the
		// raw exit share is misleading: even a trip-2 loop (iters ≈ exits)
		// beats block dispatch, since the exiting revolution's body still
		// retires in-trace. Deopt only when activations usually leave
		// before half a revolution — the recorded path went genuinely cold.
		if tr.iters*2 >= tr.exits {
			return
		}
	} else if tr.exits*10 <= entries*6 {
		return
	}
	if ts.byBlock[hb] == tr.slot {
		// The whole tree retires with the root; a reformed trace starts
		// over as a plain superblock and regrows children on demand.
		ts.byBlock[hb] = traceNone
		ts.heat[hb] = 0
		ts.noteFail(hb)
		ts.deopts++
	}
}

// runTrace is the dispatch loop: block dispatch (run the body's micro-ops,
// retire the terminator per-event) plus, when CPU.Traces is set, heat
// counting, chain recording and superblock execution at hot leaders.
// Observations go to the CPU's stream, c.st, which is nil when the run is
// unobserved.
func (c *CPU) runTrace(maxInstrs int64) error {
	code := c.code
	insts := c.Prog.Insts
	st := c.st
	ts := c.traceInit()
	var ev Event
	pollAt := c.pollStart()
	for !c.halted {
		if c.executed >= pollAt {
			if err := c.Poll(); err != nil {
				return c.abort(err)
			}
			pollAt = c.executed + c.pollInterval()
		}
		pc := c.pc
		if pc < 0 || pc >= len(insts) {
			return c.fault("control transferred outside program (pc=%d)", pc)
		}
		bi := int(code.blockOf[pc])
		b := &code.blocks[bi]
		if int(b.start) == pc {
			if ts.rec.active {
				// May close the chain into a trace for this very leader,
				// which the next check then executes immediately.
				c.recCheck(ts, bi, b)
			}
			if tid := ts.byBlock[bi]; tid >= 0 && !ts.rec.active {
				// While a chain is being recorded, existing traces are NOT
				// entered: the recording runs through their blocks under
				// block dispatch so a longer chain (an outer loop spanning
				// inner-loop traces) can form without being chopped at every
				// inner head. Recording is rare; the slower pass is noise.
				tr := ts.traces[tid]
				if c.executed+tr.nInstrs <= maxInstrs {
					if _, err := c.execUops(tr.ops, tr, ts, maxInstrs, &pollAt); err != nil {
						return err
					}
					// A trace exit is a chain exit: its target competes to
					// become the next trace head.
					ts.bump(c, c.pc)
					continue
				}
			}
		}
		if int(b.start) != pc || c.executed+b.nInstrs > maxInstrs {
			// Mid-block entry (a ret popped a non-leader address) or not
			// enough budget for the whole block: single-step so budget
			// faults land on exactly the right instruction. Either way the
			// chain being recorded is broken.
			c.abandonRec(ts)
			if c.executed >= maxInstrs {
				return c.budgetFault(maxInstrs)
			}
			emit, err := c.step(&ev)
			if err != nil {
				return err
			}
			if emit && st != nil {
				st.retire(&ev)
			}
			continue
		}
		pen, err := c.execUops(b.body, nil, ts, maxInstrs, &pollAt)
		if err != nil {
			return err
		}
		c.executed += b.nBody
		if st == nil {
			ts.penbuf = pen[:0] // keep any growth for the next body
		} else if b.events > 0 {
			st.block(bi, c.measuring, pen)
		}
		switch b.termKind {
		case termNone:
			c.pc = int(b.end)
			if ts.rec.active {
				ts.record(bi, false)
			}
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
			c.pc = tpc
			if _, err := c.step(&ev); err != nil {
				return err
			}
			if st != nil {
				st.retire(&ev)
			}
			op := insts[tpc].Op
			if ts.rec.active {
				ts.record(bi, ev.Taken)
				switch op {
				case isa.CALL:
					ts.rec.depth++
				case isa.RET:
					if ts.rec.depth > 0 {
						ts.rec.depth--
					} else if ts.rec.child {
						if ts.rec.childStop == traceDynExit {
							// The parent ends at a computed-exit ret; so
							// does this arm — attach it as a tail path.
							c.attachChild(ts, true)
						}
						// Otherwise a fork below an inlined call leaves the
						// arm's call nesting unknowable; the ret lowers as
						// a continuation guard and recording continues.
					} else {
						// Top-level return: the continuation differs per
						// call site, so close the chain here with a
						// computed exit rather than a guard.
						c.finalizeRec(ts, false, traceDynExit)
					}
				}
			}
			if c.Traces && ev.Taken && (c.pc < tpc || op == isa.CALL) {
				// Taken back edge (the classic loop-head signal) or a call:
				// function entries anchor tail-return traces.
				ts.bump(c, c.pc)
			}
		}
	}
	return nil
}

// condCode lowers a conditional-branch opcode to a uJcc condition code.
func condCode(op isa.Op) (uint8, bool) {
	switch op {
	case isa.JE:
		return ccE, true
	case isa.JNE:
		return ccNE, true
	case isa.JL:
		return ccL, true
	case isa.JLE:
		return ccLE, true
	case isa.JG:
		return ccG, true
	case isa.JGE:
		return ccGE, true
	case isa.JB:
		return ccB, true
	case isa.JBE:
		return ccBE, true
	case isa.JA:
		return ccA, true
	case isa.JAE:
		return ccAE, true
	case isa.JS:
		return ccS, true
	case isa.JNS:
		return ccNS, true
	}
	return 0, false
}

// gprDst returns the GPR index of a plain register operand, or -1.
func gprDst(o isa.Operand) int {
	if o.Kind == isa.KindReg && o.Reg.IsGPR() {
		return o.Reg.GPRIndex()
	}
	return -1
}

// fpDst returns the FP register index of a plain FP register operand, or
// -1.
func fpDst(o isa.Operand) int {
	if o.Kind == isa.KindReg && o.Reg.IsFP() {
		return o.Reg.FPIndex()
	}
	return -1
}

// memRef starts a memory micro-op from an operand's address shape. The
// second result is false when the operand is not memory or its shape is
// not a plain GPR-addressed form.
func memRef(o isa.Operand, pc int32) (uop, bool) {
	u := uop{b: noIdx, x: noIdx, scale: 1, imm: uint32(o.Disp), pc: pc}
	if o.Kind != isa.KindMem {
		return u, false
	}
	if o.Reg != isa.NoReg {
		if !o.Reg.IsGPR() {
			return u, false
		}
		u.b = uint8(o.Reg.GPRIndex())
	}
	if o.Index != isa.NoReg {
		if !o.Index.IsGPR() {
			return u, false
		}
		u.x = uint8(o.Index.GPRIndex())
		if o.Scale != 0 {
			u.scale = uint32(o.Scale)
		}
	}
	return u, true
}

// uCallOp lowers an instruction to a fallback micro-op that runs it on the
// generic executor.
func uCallOp(in *isa.Inst, refsMem bool, pc int32) uop {
	return uop{
		kind:    uCall,
		in:      in,
		refsMem: refsMem,
		mmx:     in.Op.IsMMX(),
		pc:      pc,
	}
}

// lowerTrace lowers a recorded chain into a superblock, or returns nil when
// the chain cannot be lowered (oversized, or an unexpected terminator).
func (c *CPU) lowerTrace(blocks []int32, taken []bool, loop bool, exitPC int32) *vmTrace {
	tr := &vmTrace{
		blocks: append([]int32(nil), blocks...),
		taken:  append([]bool(nil), taken...),
		loop:   loop,
		exitPC: exitPC,
	}
	dynTail := !loop && exitPC == traceDynExit
	ops, cum, ok := c.lowerBlocks(nil, blocks, taken, 0, 0, 0, exitPC, dynTail, traceMaxOps)
	if !ok {
		return nil
	}
	tr.ops = append(ops, uop{
		kind:   uEnd,
		expect: loop,
		tgt:    exitPC,
		blockK: int32(len(blocks) - 1),
		cum:    cum,
	})
	tr.nInstrs = cum
	return tr
}

// lowerBlocks lowers a run of chain blocks, appending micro-ops to ops:
// each block's compiled body, copied, then its terminator as a guard or an
// inlined call/ret. baseK/baseCum seat the run at a position within a
// (possibly longer) path: every op's cum and the control ops' blockK are
// offset by them, and pathIdx tags the control ops with the owning tree
// path. contPC is where execution continues after the last block (the loop
// head, or a non-loop trace's recorded successor); dynTail marks a chain
// ending at a top-level ret (computed exit, no continuation guard). Returns
// the extended op slice, the cumulative instruction count through the run,
// and ok=false when the run cannot be lowered (oversized past maxOps, or an
// unexpected terminator).
func (c *CPU) lowerBlocks(ops []uop, blocks []int32, taken []bool, baseK int32, baseCum int64, pathIdx uint16, contPC int32, dynTail bool, maxOps int) ([]uop, int64, bool) {
	code := c.code
	cum := baseCum
	for k, bi := range blocks {
		b := &code.blocks[bi]
		for _, u := range b.body[:len(b.body)-1] {
			u.cum += cum
			ops = append(ops, u)
		}
		cum += b.nInstrs
		if b.termKind == termCtl {
			in := &code.prog.Insts[b.term]
			switch {
			case in.Op == isa.JMP:
				// Static target: the next chain block. No executor work.
			case in.Op == isa.CALL:
				// Inlined call: push the return address and fall into the
				// callee, which is the next chain block. No guard — the
				// target is static.
				ops = append(ops, uop{
					kind: uCallT,
					imm2: uint32(b.term + 1),
					pc:   b.term,
					cum:  cum,
				})
			case in.Op == isa.RET:
				// Inlined return. Mid-chain (or loop-closing) rets guard the
				// popped address against the recorded continuation; a chain
				// that ends at a top-level ret instead finishes the
				// iteration with a computed exit to wherever the ret pops
				// (expect set) — the continuation legitimately differs per
				// call site, so a guard would side-exit constantly.
				if k == len(blocks)-1 && dynTail {
					ops = append(ops, uop{
						kind:    uRet,
						expect:  true,
						pc:      b.term,
						blockK:  baseK + int32(k),
						cum:     cum,
						pathIdx: pathIdx,
					})
					break
				}
				next := contPC
				if k+1 < len(blocks) {
					next = code.blocks[blocks[k+1]].start
				}
				if next < 0 {
					return ops, 0, false
				}
				ops = append(ops, uop{
					kind:    uRet,
					imm:     uint32(next),
					pc:      b.term,
					blockK:  baseK + int32(k),
					cum:     cum,
					pathIdx: pathIdx,
				})
			default:
				cc, ok := condCode(in.Op)
				if !ok {
					return ops, 0, false
				}
				ops = append(ops, uop{
					kind:    uJcc,
					alu:     cc,
					expect:  taken[k],
					pc:      b.term,
					tgt:     in.Target,
					blockK:  baseK + int32(k),
					cum:     cum,
					pathIdx: pathIdx,
				})
			}
		} else if b.termKind != termNone {
			return ops, 0, false
		}
		if len(ops) > maxOps {
			return ops, 0, false
		}
	}
	return ops, cum, true
}

// guardFail counts a failed child formation at a fork guard: exponential
// backoff on the growth threshold, mirroring noteFail for trace heads. A
// guard that exhausts traceMaxAttempts stops trying permanently (its plain
// side exit stays exact; only the optimization is given up).
func guardFail(u *uop) {
	if u.d < traceMaxAttempts {
		u.d++
	}
	u.imm2 = 0
}

// failChild abandons an active alternate-arm recording with per-guard
// backoff.
func (c *CPU) failChild(ts *traceState) {
	rec := &ts.rec
	rec.active, rec.child = false, false
	tr := ts.traces[rec.parent]
	guardFail(&tr.ops[rec.parentOp])
}

// attachChild closes an alternate-arm recording that reached its rejoin
// point (tail marks an arm that ended at a top-level ret instead).
func (c *CPU) attachChild(ts *traceState, tail bool) {
	rec := &ts.rec
	rec.active, rec.child = false, false
	c.attachChildSeg(ts, ts.traces[rec.parent], rec.parentOp, rec.blocks, rec.taken, tail)
}

// attachChildSeg lowers a recorded alternate arm (possibly empty, when the
// fork jumps straight to the rejoin point) and attaches it to tr's fork
// guard as a child path: the lowered segment is appended after the existing
// ops, ending the iteration the same way the root does — a looping uEnd for
// a loop trace, a straight exit to the root's continuation, or (tail) a
// computed-exit ret. The combined path is registered with the observer
// under a fresh observation id and the guard becomes a fork into the
// segment. Lowering failure takes formation backoff at the guard instead.
func (c *CPU) attachChildSeg(ts *traceState, tr *vmTrace, forkOp int32, blocks []int32, taken []bool, tail bool) {
	fork := &tr.ops[forkOp]
	if tr.paths == nil {
		tr.paths = append(tr.paths, tracePath{
			id: tr.id, blocks: tr.blocks, taken: tr.taken, nInstrs: tr.nInstrs,
		})
	}
	parent := &tr.paths[fork.pathIdx]
	k := int(fork.blockK)
	nb := make([]int32, 0, k+1+len(blocks))
	nb = append(append(nb, parent.blocks[:k+1]...), blocks...)
	ntk := make([]bool, 0, cap(nb))
	ntk = append(append(ntk, parent.taken[:k+1]...), taken...)
	ntk[k] = !fork.expect
	newIdx := uint16(len(tr.paths))
	segStart := len(tr.ops)
	cont := tr.head
	if !tr.loop {
		cont = tr.exitPC
	}
	ops, cum, ok := c.lowerBlocks(tr.ops, blocks, taken, int32(k+1), fork.cum, newIdx, cont, tail, treeMaxOps)
	if !ok {
		guardFail(fork)
		return
	}
	if !tail {
		// A tail arm's closing uRet already observes and exits; every
		// other arm ends its iteration with a uEnd mirroring the root's.
		ops = append(ops, uop{
			kind:    uEnd,
			expect:  tr.loop,
			tgt:     cont,
			blockK:  int32(len(nb) - 1),
			cum:     cum,
			pathIdx: newIdx,
		})
	}
	tr.ops = ops
	tr.paths = append(tr.paths, tracePath{id: ts.nextID, blocks: nb, taken: ntk, nInstrs: cum})
	if c.st != nil {
		c.st.register(ts.nextID, nb, ntk)
	}
	ts.nextID++
	// The appends may have moved the op array: re-resolve the fork before
	// flipping it into a child entry.
	fork = &tr.ops[forkOp]
	fork.child = int32(segStart)
	fork.childPath = newIdx
	fork.imm2 = 0
	ts.treeNodes++
}

// growChild runs after a uJcc side exit from a still-live trace: it counts
// the exit against the guard and, past the backoff-scaled threshold, starts
// recording the alternate path — or attaches it immediately when the exit
// jumps straight to the rejoin point (an empty arm).
func (c *CPU) growChild(ts *traceState, tr *vmTrace, exitOp int32) {
	u := &tr.ops[exitOp]
	if u.child != 0 || u.d >= traceMaxAttempts {
		return
	}
	u.imm2++
	if u.imm2 < treeGrowThreshold<<u.d {
		return
	}
	nodes := len(tr.paths)
	if nodes == 0 {
		nodes = 1
	}
	if nodes >= treeMaxNodes || len(tr.ops) >= treeMaxOps {
		// Tree is full: stop counting at this guard for good.
		u.d = traceMaxAttempts
		return
	}
	stop := tr.head
	if !tr.loop {
		stop = tr.exitPC
	}
	target := c.pc
	if stop >= 0 && int32(target) == stop {
		c.attachChildSeg(ts, tr, exitOp, nil, nil, false)
		return
	}
	code := c.code
	if target < 0 || target >= len(code.blockOf) {
		guardFail(u)
		return
	}
	bi := int(code.blockOf[target])
	if int(code.blocks[bi].start) != target {
		// A mid-block exit target cannot anchor an arm recording.
		guardFail(u)
		return
	}
	rec := &ts.rec
	rec.active, rec.child = true, true
	rec.head = tr.head
	rec.parent = tr.slot
	rec.parentOp = exitOp
	rec.childStop = stop
	rec.blocks = rec.blocks[:0]
	rec.taken = rec.taken[:0]
	rec.depth = 0
}

// lowerInst lowers one block-body instruction to a micro-op; refsMem is its
// static memory-reference flag. The second result is false when the
// instruction needs no executor work at all (a shift by a count that masks
// to zero). A native micro-op exists only for an operand shape it checks
// here, and mirrors the generic executor's semantics, fault texts and
// penalty-charging order exactly; every other shape — including each one
// the generic executor faults on — lowers to a uCall of that executor.
func lowerInst(in *isa.Inst, refsMem bool, pc int32) (uop, bool) {
	call := uCallOp(in, refsMem, pc)
	switch in.Op {
	case isa.MOV:
		if dr := gprDst(in.A); dr >= 0 {
			if sr := gprDst(in.B); sr >= 0 {
				return uop{kind: uMovRR, d: uint8(dr), s: uint8(sr), pc: pc}, true
			}
			if in.B.Kind == isa.KindImm {
				return uop{kind: uMovRI, d: uint8(dr), imm: uint32(in.B.Imm), pc: pc}, true
			}
			if u, ok := memRef(in.B, pc); ok {
				switch in.B.Size {
				case isa.SizeB:
					u.kind = uLoad8
				case isa.SizeW:
					u.kind = uLoad16
				case isa.SizeD, isa.SizeNone:
					u.kind = uLoad32
				default:
					return call, true
				}
				u.d = uint8(dr)
				return u, true
			}
			return call, true
		}
		if in.A.IsMem() {
			if u, ok := memRef(in.A, pc); ok {
				if sr := gprDst(in.B); sr >= 0 {
					switch in.A.Size {
					case isa.SizeB:
						u.kind = uStore8
					case isa.SizeW:
						u.kind = uStore16
					case isa.SizeD, isa.SizeNone:
						u.kind = uStore32
					default:
						return call, true
					}
					u.s = uint8(sr)
					return u, true
				}
				if in.B.Kind == isa.KindImm {
					switch in.A.Size {
					case isa.SizeB:
						u.kind = uStore8I
					case isa.SizeW:
						u.kind = uStore16I
					case isa.SizeD, isa.SizeNone:
						u.kind = uStore32I
					default:
						return call, true
					}
					u.imm2 = uint32(in.B.Imm)
					return u, true
				}
			}
		}
		return call, true

	case isa.MOVZXB, isa.MOVZXW, isa.MOVSXB, isa.MOVSXW:
		dr := gprDst(in.A)
		if dr < 0 {
			return call, true
		}
		if sr := gprDst(in.B); sr >= 0 {
			var k uint8
			switch in.Op {
			case isa.MOVZXB:
				k = uZx8
			case isa.MOVZXW:
				k = uZx16
			case isa.MOVSXB:
				k = uSx8
			default:
				k = uSx16
			}
			return uop{kind: k, d: uint8(dr), s: uint8(sr), pc: pc}, true
		}
		if in.B.IsMem() {
			if u, ok := memRef(in.B, pc); ok {
				// loadSizedAs forces the load width from the opcode.
				switch in.Op {
				case isa.MOVZXB:
					u.kind = uLoad8
				case isa.MOVZXW:
					u.kind = uLoad16
				case isa.MOVSXB:
					u.kind = uLoadSx8
				default:
					u.kind = uLoadSx16
				}
				u.d = uint8(dr)
				return u, true
			}
		}
		return call, true

	case isa.LEA:
		dr := gprDst(in.A)
		if dr < 0 {
			return call, true
		}
		if u, ok := memRef(in.B, pc); ok {
			u.kind = uLea
			u.d = uint8(dr)
			return u, true
		}
		return call, true

	case isa.XCHG:
		if gprDst(in.A) < 0 || gprDst(in.B) < 0 {
			return call, true
		}
		return uop{
			kind: uXchg,
			d:    uint8(in.A.Reg.GPRIndex()),
			s:    uint8(in.B.Reg.GPRIndex()),
			pc:   pc,
		}, true

	case isa.PUSH:
		if sr := gprDst(in.A); sr >= 0 {
			return uop{kind: uPushR, s: uint8(sr), pc: pc}, true
		}
		if in.A.Kind == isa.KindImm {
			return uop{kind: uPushI, imm: uint32(in.A.Imm), pc: pc}, true
		}
		return call, true
	case isa.POP:
		if dr := gprDst(in.A); dr >= 0 {
			return uop{kind: uPopR, d: uint8(dr), pc: pc}, true
		}
		return call, true

	case isa.ADD, isa.SUB, isa.CMP, isa.AND, isa.TEST, isa.OR, isa.XOR, isa.IMUL:
		var rr, ri, rm uint8
		switch in.Op {
		case isa.ADD:
			rr, ri, rm = uAddRR, uAddRI, uAddRM
		case isa.SUB:
			rr, ri, rm = uSubRR, uSubRI, uSubRM
		case isa.CMP:
			rr, ri, rm = uCmpRR, uCmpRI, uCmpRM
		case isa.AND:
			rr, ri, rm = uAndRR, uAndRI, uAndRM
		case isa.TEST:
			rr, ri, rm = uTestRR, uTestRI, uTestRM
		case isa.OR:
			rr, ri, rm = uOrRR, uOrRI, uOrRM
		case isa.XOR:
			rr, ri, rm = uXorRR, uXorRI, uXorRM
		default:
			rr, ri, rm = uImulRR, uImulRI, uImulRM
		}
		dr := gprDst(in.A)
		if dr < 0 {
			if u, ok := lowerALUMem(in, pc); ok {
				return u, true
			}
			return call, true
		}
		if in.B.Kind == isa.KindImm {
			return uop{kind: ri, d: uint8(dr), imm: uint32(in.B.Imm), pc: pc}, true
		}
		if sr := gprDst(in.B); sr >= 0 {
			return uop{kind: rr, d: uint8(dr), s: uint8(sr), pc: pc}, true
		}
		if in.B.IsMem() && (in.B.Size == isa.SizeD || in.B.Size == isa.SizeNone) {
			if u, ok := memRef(in.B, pc); ok {
				u.kind = rm
				u.d = uint8(dr)
				return u, true
			}
		}
		return call, true

	case isa.NOT, isa.NEG, isa.INC, isa.DEC:
		dr := gprDst(in.A)
		if dr < 0 {
			return call, true
		}
		var k uint8
		switch in.Op {
		case isa.NOT:
			k = uNot
		case isa.NEG:
			k = uNeg
		case isa.INC:
			k = uInc
		default:
			k = uDec
		}
		return uop{kind: k, d: uint8(dr), pc: pc}, true

	case isa.SHL, isa.SHR, isa.SAR:
		if gprDst(in.A) < 0 || in.B.Kind != isa.KindImm {
			return call, true
		}
		cnt := uint32(in.B.Imm) & 31
		if cnt == 0 {
			// Flags untouched, no write: nothing to execute.
			return uop{}, false
		}
		var k uint8
		switch in.Op {
		case isa.SHL:
			k = uShlI
		case isa.SHR:
			k = uShrI
		default:
			k = uSarI
		}
		return uop{kind: k, d: uint8(gprDst(in.A)), imm: cnt, pc: pc}, true

	case isa.CDQ:
		return uop{kind: uCdq, pc: pc}, true

	case isa.EMMS:
		return uop{kind: uEmms, pc: pc}, true

	case isa.MOVD:
		if in.A.IsReg() && in.A.Reg.IsMMX() {
			md := uint8(in.A.Reg.MMXIndex())
			if sr := gprDst(in.B); sr >= 0 {
				return uop{kind: uMovdGM, d: md, s: uint8(sr), pc: pc}, true
			}
			if in.B.IsMem() && (in.B.Size == isa.SizeD || in.B.Size == isa.SizeNone) {
				if u, ok := memRef(in.B, pc); ok {
					u.kind = uMovdLM
					u.d = md
					return u, true
				}
			}
			return call, true
		}
		if in.B.IsReg() && in.B.Reg.IsMMX() {
			ms := uint8(in.B.Reg.MMXIndex())
			if dr := gprDst(in.A); dr >= 0 {
				return uop{kind: uMovdMG, d: uint8(dr), s: ms, pc: pc}, true
			}
			if in.A.IsMem() && (in.A.Size == isa.SizeD || in.A.Size == isa.SizeNone) {
				if u, ok := memRef(in.A, pc); ok {
					u.kind = uMovdSM
					u.s = ms
					return u, true
				}
			}
		}
		return call, true

	case isa.MOVQ:
		if in.A.IsReg() && in.A.Reg.IsMMX() {
			md := uint8(in.A.Reg.MMXIndex())
			if in.B.IsReg() && in.B.Reg.IsMMX() {
				return uop{kind: uMovqRR, d: md, s: uint8(in.B.Reg.MMXIndex()), pc: pc}, true
			}
			if in.B.IsMem() {
				if u, ok := memRef(in.B, pc); ok {
					// compileReadMM: a dword operand narrows the load, any
					// other size is the full qword.
					if in.B.Size == isa.SizeD {
						u.kind = uMovqLM32
					} else {
						u.kind = uMovqLM64
					}
					u.d = md
					return u, true
				}
			}
			return call, true
		}
		if in.A.IsMem() && in.B.IsReg() && in.B.Reg.IsMMX() {
			if u, ok := memRef(in.A, pc); ok {
				u.kind = uMovqSM
				u.s = uint8(in.B.Reg.MMXIndex())
				return u, true
			}
		}
		return call, true

	case isa.PSLLW, isa.PSLLD, isa.PSLLQ, isa.PSRLW, isa.PSRLD, isa.PSRLQ,
		isa.PSRAW, isa.PSRAD:
		if !in.A.IsReg() || !in.A.Reg.IsMMX() {
			return call, true
		}
		var shift func(mmx.Reg, uint) mmx.Reg
		switch in.Op {
		case isa.PSLLW:
			shift = mmx.PSllW
		case isa.PSLLD:
			shift = mmx.PSllD
		case isa.PSLLQ:
			shift = mmx.PSllQ
		case isa.PSRLW:
			shift = mmx.PSrlW
		case isa.PSRLD:
			shift = mmx.PSrlD
		case isa.PSRLQ:
			shift = mmx.PSrlQ
		case isa.PSRAW:
			shift = mmx.PSraW
		default:
			shift = mmx.PSraD
		}
		md := uint8(in.A.Reg.MMXIndex())
		if in.B.IsImm() {
			n := uint64(in.B.Imm)
			if n > 64 {
				n = 64
			}
			return uop{kind: uMMXShiftI, d: md, imm: uint32(n), sfn: shift, pc: pc}, true
		}
		if in.B.IsReg() && in.B.Reg.IsMMX() {
			return uop{kind: uMMXShiftRR, d: md, s: uint8(in.B.Reg.MMXIndex()), sfn: shift, pc: pc}, true
		}
		return call, true
	}

	if in.Op.IsMMX() {
		if f, ok := mmxBinary[in.Op]; ok && in.A.IsReg() && in.A.Reg.IsMMX() {
			md := uint8(in.A.Reg.MMXIndex())
			if in.B.IsReg() && in.B.Reg.IsMMX() {
				return uop{kind: uMMXBinRR, d: md, s: uint8(in.B.Reg.MMXIndex()), mfn: f, pc: pc}, true
			}
			if in.B.IsMem() {
				if u, ok := memRef(in.B, pc); ok {
					if in.B.Size == isa.SizeD {
						u.kind = uMMXBinRM32
					} else {
						u.kind = uMMXBinRM64
					}
					u.d = md
					u.mfn = f
					return u, true
				}
			}
		}
		return call, true
	}

	if in.Op.IsFP() {
		return lowerFP(in, call, pc)
	}

	return call, true
}

// lowerFP lowers the floating-point shapes with native micro-ops (register
// destination; register, float32 or float64 source); call is the fallback.
func lowerFP(in *isa.Inst, call uop, pc int32) (uop, bool) {
	fd := fpDst(in.A)
	if fd < 0 {
		return call, true
	}
	fpMemKind := func(base32, base64 uint8) (uint8, bool) {
		switch in.B.Size {
		case isa.SizeD:
			return base32, true
		case isa.SizeQ:
			return base64, true
		}
		return 0, false
	}
	switch in.Op {
	case isa.FLD:
		if in.B.IsReg() && in.B.Reg.IsFP() {
			return uop{kind: uFMovRR, d: uint8(fd), s: uint8(in.B.Reg.FPIndex()), pc: pc}, true
		}
		if in.B.IsMem() {
			if u, ok := memRef(in.B, pc); ok {
				if k, ok := fpMemKind(uFLoad32, uFLoad64); ok {
					u.kind = k
					u.d = uint8(fd)
					return u, true
				}
			}
		}
		return call, true

	case isa.FLDC:
		if !in.B.IsImm() {
			return call, true
		}
		return uop{
			kind: uFConst,
			d:    uint8(fd),
			fv:   math.Float64frombits(uint64(in.B.Imm)),
			pc:   pc,
		}, true

	case isa.FADD, isa.FSUB, isa.FSUBR, isa.FMUL, isa.FDIV:
		var sub uint8
		switch in.Op {
		case isa.FADD:
			sub = fpAdd
		case isa.FSUB:
			sub = fpSub
		case isa.FSUBR:
			sub = fpSubR
		case isa.FMUL:
			sub = fpMul
		default:
			sub = fpDiv
		}
		if in.B.IsReg() && in.B.Reg.IsFP() {
			return uop{kind: uFArithRR, d: uint8(fd), s: uint8(in.B.Reg.FPIndex()), alu: sub, pc: pc}, true
		}
		if in.B.IsMem() {
			if u, ok := memRef(in.B, pc); ok {
				if k, ok := fpMemKind(uFArithM32, uFArithM64); ok {
					u.kind = k
					u.d = uint8(fd)
					u.alu = sub
					return u, true
				}
			}
		}
		return call, true

	case isa.FCOM:
		if in.B.IsReg() && in.B.Reg.IsFP() {
			return uop{kind: uFComRR, d: uint8(fd), s: uint8(in.B.Reg.FPIndex()), pc: pc}, true
		}
		if in.B.IsMem() {
			if u, ok := memRef(in.B, pc); ok {
				if k, ok := fpMemKind(uFComM32, uFComM64); ok {
					u.kind = k
					u.d = uint8(fd)
					return u, true
				}
			}
		}
		return call, true
	}
	return call, true
}

// lowerALUMem lowers a memory-destination two-operand ALU instruction
// (op [mem], reg/imm) into a single RMW micro-op. The execInt path it
// mirrors loads the sized operand, computes flags on the widened values, then —
// for the writing ops — stores back with a second access charge; cmp and
// test stop after the flags. u.alu selects the operation, u.d the operand
// size (0/1/2 = byte/word/dword), and the B value rides in s (uAluMR) or
// imm2 (uAluMI) because imm is the address displacement.
func lowerALUMem(in *isa.Inst, pc int32) (uop, bool) {
	if !in.A.IsMem() {
		return uop{}, false
	}
	var sel uint8
	switch in.Op {
	case isa.ADD:
		sel = aluAdd
	case isa.SUB:
		sel = aluSub
	case isa.CMP:
		sel = aluCmp
	case isa.AND:
		sel = aluAnd
	case isa.TEST:
		sel = aluTest
	case isa.OR:
		sel = aluOr
	case isa.XOR:
		sel = aluXor
	case isa.IMUL:
		sel = aluImul
	default:
		return uop{}, false
	}
	var size uint8
	switch in.A.Size {
	case isa.SizeB:
		size = 0
	case isa.SizeW:
		size = 1
	case isa.SizeD, isa.SizeNone:
		size = 2
	default:
		return uop{}, false
	}
	u, ok := memRef(in.A, pc)
	if !ok {
		return uop{}, false
	}
	u.alu = sel
	u.d = size
	if in.B.Kind == isa.KindImm {
		u.kind = uAluMI
		u.imm2 = uint32(in.B.Imm)
		return u, true
	}
	if sr := gprDst(in.B); sr >= 0 {
		u.kind = uAluMR
		u.s = uint8(sr)
		return u, true
	}
	return uop{}, false
}

// Cached register indices for the μops with implicit operands.
var (
	traceEAX = uint8(isa.EAX.GPRIndex())
	traceEDX = uint8(isa.EDX.GPRIndex())
	traceESP = uint8(isa.ESP.GPRIndex())
)

// memAddr computes a flattened memory operand's effective address from the
// cached register file (uint32 wraparound, as effAddr).
func memAddr(u *uop, gpr *[8]uint32) uint32 {
	a := u.imm
	if u.b != noIdx {
		a += gpr[u.b&7]
	}
	if u.x != noIdx {
		a += gpr[u.x&7] * u.scale
	}
	return a
}

// addFlags/subFlags/logicFlags compute the flag quartet the setAdd/setSub/
// setLogic CPU methods would, but into locals.
func addFlags(a, b, r uint32) (zf, sf, cf, of bool) {
	return r == 0, int32(r) < 0, r < a, (a^r)&(b^r)&0x80000000 != 0
}

func subFlags(a, b, r uint32) (zf, sf, cf, of bool) {
	return r == 0, int32(r) < 0, a < b, (a^b)&(a^r)&0x80000000 != 0
}

func logicFlags(r uint32) (zf, sf, cf, of bool) {
	return r == 0, int32(r) < 0, false, false
}

// execUops is the micro-op executor, the one fast execution form of the
// dispatch loop. With tr nil it runs a block body once, up to its closing
// uBodyEnd, and returns the penalty arena extended by the body's penalties
// for the caller to record; the caller also retires the body. With tr set
// it runs trace tr from its head until a side exit, the loop's own
// recorded exit, the instruction budget, or a fault, and records every
// iteration itself.
//
// The GPR/MM register files and the flags live in locals for the whole
// stay; CPU state is spilled only around uCall instructions, at poll
// points, and on leaving, which is what buys traces their throughput.
// Architectural equivalence contract: at every return, c.gpr/c.mm/flags/
// c.pc/c.executed are exactly what the generic interpreter would have
// produced at the same point (a fault retires every instruction through
// the faulting one), and every full iteration (ObserveTrace) / partial
// exit (ObserveTraceExit) hands the observer one cache penalty per
// memory-referencing instruction in retirement order. Observed penalties
// accumulate straight in the stream's arena: what pen holds past the
// arena's length is the region in progress, committed by its record or
// dropped (a fault) by never being recorded.
func (c *CPU) execUops(uops []uop, tr *vmTrace, ts *traceState, maxInstrs int64, pollAt *int64) ([]int32, error) {
	st := c.st
	gpr := c.gpr
	mm := c.mm
	zf, sf, cf, of := c.zf, c.sf, c.cf, c.of
	measured := c.measuring
	entry := c.executed
	iterBase := entry
	hier := c.Hier
	memu := c.Mem
	pen := ts.penbuf[:0]
	if st != nil {
		pen = st.pen
	}
	var final int64
	var retErr error
	exitK := int32(-1)
	exitOp := int32(-1)
	var exitPath uint16
	exited := false
	i := 0
	for {
		u := &uops[i]
		switch u.kind {
		case uCall:
			c.gpr = gpr
			c.zf, c.sf, c.cf, c.of = zf, sf, cf, of
			if u.mmx {
				c.mm = mm
			}
			c.pc = int(u.pc)
			ts.ev.MemPenalty = 0
			if err := c.exec(u.in, &ts.ev); err != nil {
				// The executor may have committed partial state before
				// faulting (a decremented ESP, say): keep everything it
				// wrote, spill only what it never saw.
				if !u.mmx {
					c.mm = mm
				}
				c.executed = iterBase + u.cum
				return pen, err
			}
			gpr = c.gpr
			zf, sf, cf, of = c.zf, c.sf, c.cf, c.of
			if u.mmx {
				mm = c.mm
			}
			if u.refsMem {
				pen = append(pen, int32(ts.ev.MemPenalty))
			}

		case uMovRR:
			gpr[u.d&7] = gpr[u.s&7]
		case uMovRI:
			gpr[u.d&7] = u.imm

		case uLoad8:
			a := memAddr(u, &gpr)
			pen = append(pen, int32(hier.Access(a)))
			v, ok := memu.LoadU8(a)
			if !ok {
				c.pc = int(u.pc)
				retErr = c.fault("load byte out of range at %#x", a)
				goto out
			}
			gpr[u.d&7] = uint32(v)
		case uLoad16:
			a := memAddr(u, &gpr)
			pen = append(pen, int32(hier.Access(a)))
			v, ok := memu.LoadU16(a)
			if !ok {
				c.pc = int(u.pc)
				retErr = c.fault("load word out of range at %#x", a)
				goto out
			}
			gpr[u.d&7] = uint32(v)
		case uLoad32:
			a := memAddr(u, &gpr)
			pen = append(pen, int32(hier.Access(a)))
			v, ok := memu.LoadU32(a)
			if !ok {
				c.pc = int(u.pc)
				retErr = c.fault("load dword out of range at %#x", a)
				goto out
			}
			gpr[u.d&7] = v
		case uLoadSx8:
			a := memAddr(u, &gpr)
			pen = append(pen, int32(hier.Access(a)))
			v, ok := memu.LoadU8(a)
			if !ok {
				c.pc = int(u.pc)
				retErr = c.fault("load byte out of range at %#x", a)
				goto out
			}
			gpr[u.d&7] = uint32(int32(int8(v)))
		case uLoadSx16:
			a := memAddr(u, &gpr)
			pen = append(pen, int32(hier.Access(a)))
			v, ok := memu.LoadU16(a)
			if !ok {
				c.pc = int(u.pc)
				retErr = c.fault("load word out of range at %#x", a)
				goto out
			}
			gpr[u.d&7] = uint32(int32(int16(v)))

		case uStore8:
			a := memAddr(u, &gpr)
			pen = append(pen, int32(hier.Access(a)))
			if !memu.StoreU8(a, uint8(gpr[u.s&7])) {
				c.pc = int(u.pc)
				retErr = c.fault("store out of range at %#x", a)
				goto out
			}
		case uStore16:
			a := memAddr(u, &gpr)
			pen = append(pen, int32(hier.Access(a)))
			if !memu.StoreU16(a, uint16(gpr[u.s&7])) {
				c.pc = int(u.pc)
				retErr = c.fault("store out of range at %#x", a)
				goto out
			}
		case uStore32:
			a := memAddr(u, &gpr)
			pen = append(pen, int32(hier.Access(a)))
			if !memu.StoreU32(a, gpr[u.s&7]) {
				c.pc = int(u.pc)
				retErr = c.fault("store out of range at %#x", a)
				goto out
			}
		case uStore8I:
			a := memAddr(u, &gpr)
			pen = append(pen, int32(hier.Access(a)))
			if !memu.StoreU8(a, uint8(u.imm2)) {
				c.pc = int(u.pc)
				retErr = c.fault("store out of range at %#x", a)
				goto out
			}
		case uStore16I:
			a := memAddr(u, &gpr)
			pen = append(pen, int32(hier.Access(a)))
			if !memu.StoreU16(a, uint16(u.imm2)) {
				c.pc = int(u.pc)
				retErr = c.fault("store out of range at %#x", a)
				goto out
			}
		case uStore32I:
			a := memAddr(u, &gpr)
			pen = append(pen, int32(hier.Access(a)))
			if !memu.StoreU32(a, u.imm2) {
				c.pc = int(u.pc)
				retErr = c.fault("store out of range at %#x", a)
				goto out
			}

		case uLea:
			gpr[u.d&7] = memAddr(u, &gpr)
		case uZx8:
			gpr[u.d&7] = gpr[u.s&7] & 0xFF
		case uZx16:
			gpr[u.d&7] = gpr[u.s&7] & 0xFFFF
		case uSx8:
			gpr[u.d&7] = uint32(int32(int8(gpr[u.s&7])))
		case uSx16:
			gpr[u.d&7] = uint32(int32(int16(gpr[u.s&7])))
		case uXchg:
			gpr[u.d&7], gpr[u.s&7] = gpr[u.s&7], gpr[u.d&7]

		case uPushR, uPushI:
			sp := gpr[traceESP] - 4
			gpr[traceESP] = sp
			pen = append(pen, int32(hier.Access(sp)))
			v := u.imm
			if u.kind == uPushR {
				v = gpr[u.s&7]
			}
			if !memu.StoreU32(sp, v) {
				c.pc = int(u.pc)
				retErr = c.fault("stack overflow at %#x", sp)
				goto out
			}
		case uPopR:
			sp := gpr[traceESP]
			pen = append(pen, int32(hier.Access(sp)))
			v, ok := memu.LoadU32(sp)
			if !ok {
				c.pc = int(u.pc)
				retErr = c.fault("stack underflow at %#x", sp)
				goto out
			}
			gpr[traceESP] = sp + 4
			gpr[u.d&7] = v

		case uAddRR, uAddRI:
			a := gpr[u.d&7]
			b := u.imm
			if u.kind == uAddRR {
				b = gpr[u.s&7]
			}
			r := a + b
			zf, sf, cf, of = addFlags(a, b, r)
			gpr[u.d&7] = r
		case uSubRR, uSubRI:
			a := gpr[u.d&7]
			b := u.imm
			if u.kind == uSubRR {
				b = gpr[u.s&7]
			}
			r := a - b
			zf, sf, cf, of = subFlags(a, b, r)
			gpr[u.d&7] = r
		case uCmpRR, uCmpRI:
			a := gpr[u.d&7]
			b := u.imm
			if u.kind == uCmpRR {
				b = gpr[u.s&7]
			}
			zf, sf, cf, of = subFlags(a, b, a-b)
		case uAndRR, uAndRI:
			a := gpr[u.d&7]
			b := u.imm
			if u.kind == uAndRR {
				b = gpr[u.s&7]
			}
			r := a & b
			zf, sf, cf, of = logicFlags(r)
			gpr[u.d&7] = r
		case uOrRR, uOrRI:
			a := gpr[u.d&7]
			b := u.imm
			if u.kind == uOrRR {
				b = gpr[u.s&7]
			}
			r := a | b
			zf, sf, cf, of = logicFlags(r)
			gpr[u.d&7] = r
		case uXorRR, uXorRI:
			a := gpr[u.d&7]
			b := u.imm
			if u.kind == uXorRR {
				b = gpr[u.s&7]
			}
			r := a ^ b
			zf, sf, cf, of = logicFlags(r)
			gpr[u.d&7] = r
		case uTestRR, uTestRI:
			a := gpr[u.d&7]
			b := u.imm
			if u.kind == uTestRR {
				b = gpr[u.s&7]
			}
			zf, sf, cf, of = logicFlags(a & b)
		case uImulRR, uImulRI:
			a := gpr[u.d&7]
			b := u.imm
			if u.kind == uImulRR {
				b = gpr[u.s&7]
			}
			full := int64(int32(a)) * int64(int32(b))
			r := uint32(full)
			cf = full != int64(int32(r))
			of = cf
			gpr[u.d&7] = r

		case uAddRM, uSubRM, uCmpRM, uAndRM, uOrRM, uXorRM, uTestRM, uImulRM:
			a := memAddr(u, &gpr)
			pen = append(pen, int32(hier.Access(a)))
			b, ok := memu.LoadU32(a)
			if !ok {
				c.pc = int(u.pc)
				retErr = c.fault("load dword out of range at %#x", a)
				goto out
			}
			d := gpr[u.d&7]
			switch u.kind {
			case uAddRM:
				r := d + b
				zf, sf, cf, of = addFlags(d, b, r)
				gpr[u.d&7] = r
			case uSubRM:
				r := d - b
				zf, sf, cf, of = subFlags(d, b, r)
				gpr[u.d&7] = r
			case uCmpRM:
				zf, sf, cf, of = subFlags(d, b, d-b)
			case uAndRM:
				r := d & b
				zf, sf, cf, of = logicFlags(r)
				gpr[u.d&7] = r
			case uOrRM:
				r := d | b
				zf, sf, cf, of = logicFlags(r)
				gpr[u.d&7] = r
			case uXorRM:
				r := d ^ b
				zf, sf, cf, of = logicFlags(r)
				gpr[u.d&7] = r
			case uTestRM:
				zf, sf, cf, of = logicFlags(d & b)
			default: // uImulRM
				full := int64(int32(d)) * int64(int32(b))
				r := uint32(full)
				cf = full != int64(int32(r))
				of = cf
				gpr[u.d&7] = r
			}

		case uAluMR, uAluMI:
			a := memAddr(u, &gpr)
			p := int32(hier.Access(a))
			var av uint32
			switch u.d {
			case 0:
				v, ok := memu.LoadU8(a)
				if !ok {
					c.pc = int(u.pc)
					retErr = c.fault("load byte out of range at %#x", a)
					goto out
				}
				av = uint32(v)
			case 1:
				v, ok := memu.LoadU16(a)
				if !ok {
					c.pc = int(u.pc)
					retErr = c.fault("load word out of range at %#x", a)
					goto out
				}
				av = uint32(v)
			default:
				v, ok := memu.LoadU32(a)
				if !ok {
					c.pc = int(u.pc)
					retErr = c.fault("load dword out of range at %#x", a)
					goto out
				}
				av = v
			}
			bv := u.imm2
			if u.kind == uAluMR {
				bv = gpr[u.s&7]
			}
			var r uint32
			write := true
			switch u.alu {
			case aluAdd:
				r = av + bv
				zf, sf, cf, of = addFlags(av, bv, r)
			case aluSub:
				r = av - bv
				zf, sf, cf, of = subFlags(av, bv, r)
			case aluCmp:
				zf, sf, cf, of = subFlags(av, bv, av-bv)
				write = false
			case aluAnd:
				r = av & bv
				zf, sf, cf, of = logicFlags(r)
			case aluTest:
				zf, sf, cf, of = logicFlags(av & bv)
				write = false
			case aluOr:
				r = av | bv
				zf, sf, cf, of = logicFlags(r)
			case aluXor:
				r = av ^ bv
				zf, sf, cf, of = logicFlags(r)
			default: // aluImul
				full := int64(int32(av)) * int64(int32(bv))
				r = uint32(full)
				cf = full != int64(int32(r))
				of = cf
			}
			if write {
				// Read-modify-write charges the hierarchy twice, exactly
				// like execInt's separate load and store halves.
				p += int32(hier.Access(a))
				var ok bool
				switch u.d {
				case 0:
					ok = memu.StoreU8(a, uint8(r))
				case 1:
					ok = memu.StoreU16(a, uint16(r))
				default:
					ok = memu.StoreU32(a, r)
				}
				if !ok {
					c.pc = int(u.pc)
					retErr = c.fault("store out of range at %#x", a)
					goto out
				}
			}
			pen = append(pen, p)

		case uNot:
			gpr[u.d&7] = ^gpr[u.d&7]
		case uNeg:
			a := gpr[u.d&7]
			r := -a
			zf, sf, cf, of = subFlags(0, a, r)
			gpr[u.d&7] = r
		case uInc:
			r := gpr[u.d&7] + 1
			of = r == 0x80000000
			zf, sf = r == 0, int32(r) < 0
			gpr[u.d&7] = r
		case uDec:
			a := gpr[u.d&7]
			r := a - 1
			of = a == 0x80000000
			zf, sf = r == 0, int32(r) < 0
			gpr[u.d&7] = r
		case uShlI:
			a := gpr[u.d&7]
			r := a << u.imm
			cf = a&(1<<(32-u.imm)) != 0
			zf, sf = r == 0, int32(r) < 0
			of = false
			gpr[u.d&7] = r
		case uShrI:
			a := gpr[u.d&7]
			r := a >> u.imm
			cf = a&(1<<(u.imm-1)) != 0
			zf, sf = r == 0, int32(r) < 0
			of = false
			gpr[u.d&7] = r
		case uSarI:
			a := gpr[u.d&7]
			r := uint32(int32(a) >> u.imm)
			cf = a&(1<<(u.imm-1)) != 0
			zf, sf = r == 0, int32(r) < 0
			of = false
			gpr[u.d&7] = r
		case uCdq:
			if int32(gpr[traceEAX]) < 0 {
				gpr[traceEDX] = 0xFFFFFFFF
			} else {
				gpr[traceEDX] = 0
			}

		case uMovdGM:
			c.mmxActive = true
			mm[u.d&7] = mmx.Reg(uint64(gpr[u.s&7]))
		case uMovdMG:
			c.mmxActive = true
			gpr[u.d&7] = uint32(mm[u.s&7])
		case uMovdLM:
			c.mmxActive = true
			a := memAddr(u, &gpr)
			pen = append(pen, int32(hier.Access(a)))
			v, ok := memu.LoadU32(a)
			if !ok {
				c.pc = int(u.pc)
				retErr = c.fault("load dword out of range at %#x", a)
				goto out
			}
			mm[u.d&7] = mmx.Reg(uint64(v))
		case uMovdSM:
			c.mmxActive = true
			a := memAddr(u, &gpr)
			pen = append(pen, int32(hier.Access(a)))
			if !memu.StoreU32(a, uint32(mm[u.s&7])) {
				c.pc = int(u.pc)
				retErr = c.fault("store out of range at %#x", a)
				goto out
			}
		case uMovqRR:
			c.mmxActive = true
			mm[u.d&7] = mm[u.s&7]
		case uMovqLM64:
			c.mmxActive = true
			a := memAddr(u, &gpr)
			pen = append(pen, int32(hier.Access(a)))
			v, ok := memu.LoadU64(a)
			if !ok {
				c.pc = int(u.pc)
				retErr = c.fault("mmx qword load out of range at %#x", a)
				goto out
			}
			mm[u.d&7] = mmx.Reg(v)
		case uMovqLM32:
			c.mmxActive = true
			a := memAddr(u, &gpr)
			pen = append(pen, int32(hier.Access(a)))
			v, ok := memu.LoadU32(a)
			if !ok {
				c.pc = int(u.pc)
				retErr = c.fault("mmx dword load out of range at %#x", a)
				goto out
			}
			mm[u.d&7] = mmx.Reg(uint64(v))
		case uMovqSM:
			c.mmxActive = true
			a := memAddr(u, &gpr)
			pen = append(pen, int32(hier.Access(a)))
			if !memu.StoreU64(a, uint64(mm[u.s&7])) {
				c.pc = int(u.pc)
				retErr = c.fault("movq store out of range at %#x", a)
				goto out
			}
		case uMMXBinRR:
			c.mmxActive = true
			mm[u.d&7] = u.mfn(mm[u.d&7], mm[u.s&7])
		case uMMXBinRM64:
			c.mmxActive = true
			a := memAddr(u, &gpr)
			pen = append(pen, int32(hier.Access(a)))
			v, ok := memu.LoadU64(a)
			if !ok {
				c.pc = int(u.pc)
				retErr = c.fault("mmx qword load out of range at %#x", a)
				goto out
			}
			mm[u.d&7] = u.mfn(mm[u.d&7], mmx.Reg(v))
		case uMMXBinRM32:
			c.mmxActive = true
			a := memAddr(u, &gpr)
			pen = append(pen, int32(hier.Access(a)))
			v, ok := memu.LoadU32(a)
			if !ok {
				c.pc = int(u.pc)
				retErr = c.fault("mmx dword load out of range at %#x", a)
				goto out
			}
			mm[u.d&7] = u.mfn(mm[u.d&7], mmx.Reg(uint64(v)))
		case uMMXShiftI:
			c.mmxActive = true
			mm[u.d&7] = u.sfn(mm[u.d&7], uint(u.imm))
		case uMMXShiftRR:
			c.mmxActive = true
			n := uint64(mm[u.s&7])
			if n > 64 {
				n = 64
			}
			mm[u.d&7] = u.sfn(mm[u.d&7], uint(n))
		case uEmms:
			c.mmxActive = false

		case uFMovRR, uFConst, uFArithRR, uFComRR:
			if c.mmxActive {
				c.pc = int(u.pc)
				retErr = c.fault(fpWhileMMX)
				goto out
			}
			switch u.kind {
			case uFMovRR:
				c.fp[u.d&7] = c.fp[u.s&7]
			case uFConst:
				c.fp[u.d&7] = u.fv
			case uFArithRR:
				c.fp[u.d&7] = fpApply(u.alu, c.fp[u.d&7], c.fp[u.s&7])
			default: // uFComRR
				a, b := c.fp[u.d&7], c.fp[u.s&7]
				zf, cf = a == b, a < b
				sf, of = false, false
			}
		case uFLoad32, uFArithM32, uFComM32:
			if c.mmxActive {
				c.pc = int(u.pc)
				retErr = c.fault(fpWhileMMX)
				goto out
			}
			a := memAddr(u, &gpr)
			pen = append(pen, int32(hier.Access(a)))
			raw, ok := memu.LoadU32(a)
			if !ok {
				c.pc = int(u.pc)
				retErr = c.fault("float load out of range at %#x", a)
				goto out
			}
			v := float64(math.Float32frombits(raw))
			switch u.kind {
			case uFLoad32:
				c.fp[u.d&7] = v
			case uFArithM32:
				c.fp[u.d&7] = fpApply(u.alu, c.fp[u.d&7], v)
			default: // uFComM32
				fa := c.fp[u.d&7]
				zf, cf = fa == v, fa < v
				sf, of = false, false
			}
		case uFLoad64, uFArithM64, uFComM64:
			if c.mmxActive {
				c.pc = int(u.pc)
				retErr = c.fault(fpWhileMMX)
				goto out
			}
			a := memAddr(u, &gpr)
			pen = append(pen, int32(hier.Access(a)))
			raw, ok := memu.LoadU64(a)
			if !ok {
				c.pc = int(u.pc)
				retErr = c.fault("double load out of range at %#x", a)
				goto out
			}
			v := math.Float64frombits(raw)
			switch u.kind {
			case uFLoad64:
				c.fp[u.d&7] = v
			case uFArithM64:
				c.fp[u.d&7] = fpApply(u.alu, c.fp[u.d&7], v)
			default: // uFComM64
				fa := c.fp[u.d&7]
				zf, cf = fa == v, fa < v
				sf, of = false, false
			}

		case uCallT:
			sp := gpr[traceESP&7] - 4
			gpr[traceESP&7] = sp
			pen = append(pen, int32(hier.Access(sp)))
			if !memu.StoreU32(sp, u.imm2) {
				c.pc = int(u.pc)
				retErr = c.fault("stack overflow at %#x", sp)
				goto out
			}

		case uRet:
			sp := gpr[traceESP&7]
			pen = append(pen, int32(hier.Access(sp)))
			v, ok := memu.LoadU32(sp)
			if !ok {
				c.pc = int(u.pc)
				retErr = c.fault("stack underflow at %#x", sp)
				goto out
			}
			gpr[traceESP&7] = sp + 4
			if u.expect {
				// Tail return: the chain ends here; the popped address is
				// the iteration's computed exit, not a guard failure.
				c.pc = int(v)
				tr.iters++
				ts.iters++
				if u.pathIdx != 0 {
					ts.treeIters++
					ts.treeInstrs += uint64(u.cum)
				}
				if st != nil {
					pen = st.trace(tr.pathID(u.pathIdx), measured, pen)
				} else {
					pen = pen[:0]
				}
				final = iterBase + u.cum
				goto out
			}
			if v != u.imm {
				// The return went somewhere other than the recorded
				// continuation: side exit. The ret itself retired (its
				// penalty is already in pen, and cum counts it).
				c.pc = int(v)
				final = iterBase + u.cum
				exitK = u.blockK
				exitPath = u.pathIdx
				exited = true
				goto out
			}

		case uJcc:
			var t bool
			switch u.alu {
			case ccE:
				t = zf
			case ccNE:
				t = !zf
			case ccL:
				t = sf != of
			case ccLE:
				t = zf || sf != of
			case ccG:
				t = !zf && sf == of
			case ccGE:
				t = sf == of
			case ccB:
				t = cf
			case ccBE:
				t = cf || zf
			case ccA:
				t = !cf && !zf
			case ccAE:
				t = !cf
			case ccS:
				t = sf
			default: // ccNS
				t = !sf
			}
			if t != u.expect {
				if u.child != 0 && iterBase+tr.paths[u.childPath].nInstrs <= maxInstrs {
					// Fork into the attached alternate path: registers stay
					// in the locals and the child segment carries the
					// iteration back to the head. When the child path does
					// not fit the remaining budget, fall through to a plain
					// side exit — block dispatch single-steps to the edge.
					i = int(u.child) - 1
					break
				}
				// Side exit: the guard went the un-recorded way. The blocks
				// up to and including this one completed architecturally.
				if t {
					c.pc = int(u.tgt)
				} else {
					c.pc = int(u.pc) + 1
				}
				final = iterBase + u.cum
				exitK = u.blockK
				exitOp = int32(i)
				exitPath = u.pathIdx
				exited = true
				goto out
			}

		case uEnd:
			iterDone := iterBase + u.cum
			tr.iters++
			ts.iters++
			if u.pathIdx != 0 {
				ts.treeIters++
				ts.treeInstrs += uint64(u.cum)
			}
			if st != nil {
				pen = st.trace(tr.pathID(u.pathIdx), measured, pen)
			} else {
				pen = pen[:0]
			}
			iterBase = iterDone
			if !u.expect {
				// Straight-line trace: one pass, exit to the recorded
				// successor.
				final = iterDone
				c.pc = int(u.tgt)
				goto out
			}
			if iterDone >= *pollAt {
				c.gpr = gpr
				c.mm = mm
				c.zf, c.sf, c.cf, c.of = zf, sf, cf, of
				c.executed = iterDone
				c.pc = int(tr.head)
				if err := c.Poll(); err != nil {
					return pen, c.abort(err)
				}
				*pollAt = iterDone + c.pollInterval()
				gpr = c.gpr
				mm = c.mm
				zf, sf, cf, of = c.zf, c.sf, c.cf, c.of
			}
			if iterDone+tr.nInstrs > maxInstrs {
				// Not enough budget for another full iteration: hand back
				// to block dispatch, which single-steps to the exact edge.
				final = iterDone
				c.pc = int(tr.head)
				goto out
			}
			i = -1

		case uBodyEnd:
			goto out
		}
		i++
	}

out:
	c.gpr = gpr
	c.mm = mm
	c.zf, c.sf, c.cf, c.of = zf, sf, cf, of
	if retErr != nil {
		c.executed = iterBase + uops[i].cum
		return pen, retErr
	}
	if tr == nil {
		// A block body ran to completion; the caller retires it.
		return pen, nil
	}
	c.executed = final
	ts.instrs += uint64(final - entry)
	if exited {
		tr.exits++
		ts.exits++
		if st != nil {
			st.traceExit(tr.pathID(exitPath), int(exitK), measured, pen)
		}
		ts.maybeDeopt(tr)
		if exitOp >= 0 && !ts.rec.active &&
			ts.byBlock[tr.headBlock] == tr.slot {
			// A guard exit from a still-live trace: count it toward
			// growing the alternate path as a child.
			c.growChild(ts, tr, exitOp)
		}
	}
	return pen, nil
}

// fpApply dispatches a uFArith sub-op.
func fpApply(sub uint8, a, b float64) float64 {
	switch sub {
	case fpAdd:
		return a + b
	case fpSub:
		return a - b
	case fpSubR:
		return b - a
	case fpMul:
		return a * b
	default: // fpDiv
		return a / b
	}
}
