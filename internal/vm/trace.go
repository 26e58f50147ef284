// The dispatch loop and the micro-op executor. Compile (block.go) lowers
// every instruction to micro-ops (lower.go); the dispatch loop runs a block
// body through the executor (execUops) and steps its terminator on the
// terminator's own micro-ops.
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
// While the executor runs, the flags live in a Go local, spilling to the
// CPU only on leaving and at poll points; the register files are the
// CPU's own, reached through one pointer each. Instruction
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
// stay byte-identical to the per-instruction loop's.
//
// Loop traces additionally grow into trace trees: a guard that keeps
// side-exiting (a biased but not fully-taken inner branch) records the
// alternate path from its exit target back to the head and attaches it as a
// child: the guard becomes a fork into a second lowered segment that shares
// the parent's register-cache locals and ends in its own iteration
// boundary. Each root-to-rejoin path is registered with the observer under
// its own id, so tree iterations price through the same chain schedules,
// keyed by the path taken.
//
// Formation follows one rule for heads and guards alike: count arrivals (or
// side exits), record at the threshold, and on any failure count again from
// zero. A formed trace stays for the rest of the run; a guard whose path
// went cold only costs its side exit.
package vm

import (
	"math"

	"mmxdsp/internal/isa"
	"mmxdsp/internal/mem"
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

	// treeGrowThreshold is how many side exits one uJcc guard must take
	// before the alternate path is recorded as a child trace.
	treeGrowThreshold = 16
	// treeMaxNodes bounds one trace's tree: root plus children.
	treeMaxNodes = 4
	// treeMaxOps bounds the lowered micro-op total across the whole tree.
	treeMaxOps = 1024
)

// byBlock sentinel states for block leaders without a trace.
const (
	traceNone int32 = -1 // no trace yet; may record
	traceDead int32 = -2 // blacklisted: cannot anchor a trace
)

// traceDynExit marks a chain that ends at a top-level return: the exit
// target is whatever address the ret pops, so the lowered trace ends in a
// computed exit instead of a continuation guard.
const traceDynExit int32 = -1

// TraceObserver is an optional extension of Observer that receives whole
// retired regions. When a CPU's observer implements it (or the CPU has
// none), Run uses the trace-dispatch loop, calling the observer from a
// second goroutine (see stream.go); any other observer runs on the
// per-instruction loop, one Retire per instruction.
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
	// TraceInstrs is how many instructions retired inside trace execution;
	// Executed the whole run's retired count (both regions), so
	// TraceInstrs/Executed is the trace-resident share.
	TraceInstrs uint64
	Executed    uint64
	// TreeNodes counts child paths attached across all trace trees.
	TreeNodes int
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

// ResidentPct returns the percentage of all retired instructions that
// retired inside a superblock.
func (s TraceStats) ResidentPct() float64 {
	if s.Executed == 0 {
		return 0
	}
	return 100 * float64(s.TraceInstrs) / float64(s.Executed)
}

// TreeResidentPct returns the percentage of all retired instructions that
// retired in iterations completing via a trace-tree child path (zero until
// a tree forms and its alternate paths get hot).
func (s TraceStats) TreeResidentPct() float64 {
	if s.Executed == 0 {
		return 0
	}
	return 100 * float64(s.TreeInstrs) / float64(s.Executed)
}

// TraceStats returns the trace-tier statistics of the last Run (only
// Executed is set when no trace formed).
func (c *CPU) TraceStats() TraceStats {
	s := TraceStats{Executed: uint64(c.executed)}
	if ts := c.ts; ts != nil {
		s.Formed = len(ts.traces)
		s.Iters, s.Exits = ts.iters, ts.exits
		s.TraceInstrs = ts.instrs
		s.TreeNodes = ts.treeNodes
		s.TreeIters, s.TreeInstrs = ts.treeIters, ts.treeInstrs
	}
	return s
}

// Micro-op kinds. Each kind runs one opcode family with one way of
// reaching its operands (lower.go picks them).
const (
	// Integer moves and loads/stores.
	uMovRR uint8 = iota
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
	uStoreN // a dword store from gpr[s] that is not its instruction's first reference
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
	uAluRR // gpr[d] op= gpr[s] for the sub-ops without a kind (u.alu)
	uAluRI // gpr[d] op= imm
	uAluMR // op [mem], gpr[s]  (read-modify-write; u.alu selects, u.d is size)
	uAluMI // op [mem], imm2
	uNot
	uNeg
	uInc
	uDec
	uShlI
	uShrI
	uSarI
	uIdiv
	uCdq

	// Control: side-exit guard and iteration end. uTCall/uRet inline a
	// direct call (push the static return address; the target is the next
	// chain block) and its return (pop, then guard that the popped address
	// is the recorded continuation — a mismatch is a side exit).
	uJcc
	uEnd
	uTCall
	uRet
	// Control retired one instruction at a time (a block terminator, a
	// single step): set c.pc and c.taken.
	uJmp
	uBr
	uPCall
	uPRet
	uHalt

	// MMX.
	uMovdGM // mm[d] = zext gpr[s]
	uMovdMG // gpr[d] = low32 mm[s]
	uMovdLM // mm[d] = zext load32 [mem]
	uMovdSM // store32 [mem] = low32 mm[s]
	uMovqRR
	uMovqLM // mm[d] = load64 [mem]
	uMovqSM
	uMMXBinRR
	uMMXBinRM64
	uMMXBinRM32
	uMMXShiftI
	uMMXShiftRR
	uEmms

	// Floating point (registers stay in CPU state; every op first faults
	// when MMX state is active).
	uFMovRR
	uFLoad32
	uFLoad64
	uFStore32
	uFStore64
	uFConst
	uFArithRR
	uFArithM32
	uFArithM64
	uFComRR
	uFComM32
	uFComM64
	uFUnary
	uFild16
	uFild32
	uFist16
	uFist32
)

// Condition codes for uJcc and uBr (lowered from the conditional-branch
// opcode), in complementary pairs: cc^1 is the negation of cc.
const (
	ccE uint8 = iota
	ccNE
	ccL
	ccGE
	ccLE
	ccG
	ccB
	ccAE
	ccBE
	ccA
	ccS
	ccNS
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
// (destination) and s (source), which may name a temporary (tmp, tmp2).
// The meaning of the remaining fields depends on kind.
type uop struct {
	kind uint8
	d, s uint8
	// alu carries the ALU, FP or condition-code sub-op.
	alu uint8
	// b/x/scale/imm encode a memory address (imm doubles as the ALU/move
	// immediate); imm2 is the store-immediate value (or the pushed return
	// address of a call).
	b, x uint8
	// nx is 1 when a push is not its instruction's first data reference
	// (which then carries mem.Next); every other kind is always first, or
	// never (uStoreN).
	nx    uint8
	scale uint32
	imm   uint32
	imm2  uint32
	// expect is the recorded direction of a uJcc, the loop flag of uEnd,
	// or the computed exit of a trace's tail uRet.
	expect bool
	// pc is the originating instruction (fault context, side-exit
	// fall-through); tgt the branch target (uJcc, uBr, uJmp, uPCall) or
	// exit PC (uEnd).
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
	// attaches, imm2 (otherwise unused by uJcc) counts side exits toward
	// the growth threshold.
	pathIdx   uint16
	childPath uint16
	child     int32
	// fv is the uFConst value; mfn/sfn the MMX binary/shift functions.
	fv  float64
	mfn func(a, b mmx.Reg) mmx.Reg
	sfn func(v mmx.Reg, n uint) mmx.Reg
}

// vmTrace is one lowered superblock, possibly grown into a tree: child
// segments are appended after the root's uEnd and entered through fork
// guards; each root-to-rejoin path is registered separately.
type vmTrace struct {
	// id is the observation id handed to RegisterTrace/Observe*; slot the
	// trace's index in traceState.traces (what byBlock stores). The two
	// diverge once child paths consume observation ids.
	id     int
	slot   int32
	head   int32 // entry PC (a block leader)
	blocks []int32
	taken  []bool
	ops    []uop
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
	// ret; anything else fails the recording and restarts the guard's
	// count.
	child     bool
	parent    int32
	parentOp  int32
	childStop int32
}

// traceState is the per-run trace machinery hanging off a CPU.
type traceState struct {
	threshold uint32
	// heat counts hot arrivals per block leader; byBlock maps a leader's
	// block to its trace id (or traceNone/traceDead).
	heat    []uint32
	byBlock []int32
	traces  []*vmTrace
	rec     traceRec
	// nextID allocates dense observation ids across roots and child paths.
	nextID int
	// Run statistics (see TraceStats).
	iters      uint64
	exits      uint64
	instrs     uint64
	treeNodes  int
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
	if h >= ts.threshold && !ts.rec.active {
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
		// The head's heat is already reset: it retries after another
		// threshold's worth of arrivals.
		return
	}
	tr.slot = int32(len(ts.traces))
	tr.id = ts.nextID
	ts.nextID++
	tr.head = rec.head
	ts.traces = append(ts.traces, tr)
	ts.byBlock[hb] = tr.slot
	if c.st != nil {
		c.st.register(tr.id, tr.blocks, tr.taken)
	}
}

// recCheck decides, when a full block is about to dispatch while recording,
// whether the chain closes (loop), ends before this block, or keeps
// growing. It may leave the recording inactive.
func (c *CPU) recCheck(ts *traceState, bi int, b *vmBlock) {
	rec := &ts.rec
	if rec.child {
		// An alternate-arm recording attaches only by reaching the
		// parent's rejoin point (head for loops, the exit continuation
		// otherwise); a revisited block, an oversized chain or an
		// untraceable terminator fails it rather than forming a separate
		// trace.
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
	for _, pb := range rec.blocks {
		if int(pb) == bi {
			// A revisit closes the chain: as a loop when it is the head.
			c.finalizeRec(ts, b.start == rec.head, b.start)
			return
		}
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

// runTrace is the dispatch loop: block dispatch (run the body's micro-ops,
// step the terminator's) plus, when CPU.Traces is set, heat
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
			if _, err := c.step(&ev); err != nil {
				return err
			}
			continue
		}
		addrs, err := c.execUops(b.body, nil, ts, maxInstrs, &pollAt)
		if err != nil {
			c.faulted(addrs, c.pc-int(b.start), nil, 0)
			return err
		}
		c.executed += b.nBody
		if st == nil {
			charge(c.Hier, addrs)
		} else if b.events > 0 {
			st.block(bi, c.measuring, addrs)
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
		for _, u := range b.body {
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
					kind: uTCall,
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

// failChild abandons an active alternate-arm recording; the fork guard
// counts its side exits from zero again.
func (c *CPU) failChild(ts *traceState) {
	rec := &ts.rec
	rec.active, rec.child = false, false
	ts.traces[rec.parent].ops[rec.parentOp].imm2 = 0
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
// segment. Lowering failure restarts the guard's count instead.
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
		fork.imm2 = 0
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

// growChild runs after a uJcc side exit: it counts the exit against the
// guard and, at the threshold, starts recording the alternate path — or
// attaches it immediately when the exit jumps straight to the rejoin point
// (an empty arm). A formation that fails or cannot start (a full tree
// included) restarts the guard's count.
func (c *CPU) growChild(ts *traceState, tr *vmTrace, exitOp int32) {
	u := &tr.ops[exitOp]
	if u.child != 0 {
		return
	}
	u.imm2++
	if u.imm2 < treeGrowThreshold {
		return
	}
	nodes := len(tr.paths)
	if nodes == 0 {
		nodes = 1
	}
	if nodes >= treeMaxNodes || len(tr.ops) >= treeMaxOps {
		u.imm2 = 0
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
		u.imm2 = 0
		return
	}
	bi := int(code.blockOf[target])
	if int(code.blocks[bi].start) != target {
		// A mid-block exit target cannot anchor an arm recording.
		u.imm2 = 0
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

// Cached register indices for the μops with implicit operands.
var (
	traceEAX = uint8(isa.EAX.GPRIndex())
	traceEDX = uint8(isa.EDX.GPRIndex())
	traceESP = uint8(isa.ESP.GPRIndex())
)

// Fault texts of the memory micro-ops, formatted with the address.
const (
	msgLoad8     = "load byte out of range at %#x"
	msgLoad16    = "load word out of range at %#x"
	msgLoad32    = "load dword out of range at %#x"
	msgStore     = "store out of range at %#x"
	msgOverflow  = "stack overflow at %#x"
	msgUnderflow = "stack underflow at %#x"
	msgMMXLoad32 = "mmx dword load out of range at %#x"
	msgMMXLoad64 = "mmx qword load out of range at %#x"
	msgMovqStore = "movq store out of range at %#x"
	msgFLoad32   = "float load out of range at %#x"
	msgFLoad64   = "double load out of range at %#x"
	msgFild      = "fild out of range at %#x"
	msgFist      = "fist out of range at %#x"
	fstRange     = "fst out of range at %#x"
)

// fpWhileMMX is the fault of an FP instruction in MMX mode. The FP
// registers physically alias the MMX registers: an FP instruction after
// any MMX instruction and before emms models the real Pentium's corrupted
// FP stack, which forces programs to pay the emms penalty at every
// MMX-to-FP transition, exactly the cost the paper highlights.
const fpWhileMMX = "floating-point instruction while MMX state active (missing emms)"

// loadMsg is the load fault text per read-modify-write size code.
var loadMsg = [3]string{msgLoad8, msgLoad16, msgLoad32}

// memAddr computes a flattened memory operand's effective address from the
// cached register file (uint32 wraparound).
func memAddr(u *uop, gpr *[16]uint32) uint32 {
	a := u.imm
	if u.b != noIdx {
		a += gpr[u.b&7]
	}
	if u.x != noIdx {
		a += gpr[u.x&7] * u.scale
	}
	return a
}

// flags is the IA-32 style integer flag quartet, as the CPU stores it
// between runs of the executor (which keeps the four in locals).
type flags struct{ zf, sf, cf, of bool }

// The integer operations, each with its flags: every micro-op computes its
// result through one of these, directly or through alu.

func add(a, b uint32) (r uint32, zf, sf, cf, of bool) {
	r = a + b
	return r, r == 0, int32(r) < 0, r < a, (a^r)&(b^r)&0x80000000 != 0
}

func sub(a, b uint32) (r uint32, zf, sf, cf, of bool) {
	r = a - b
	return r, r == 0, int32(r) < 0, a < b, (a^b)&(a^r)&0x80000000 != 0
}

// and, or and xor clear CF and OF.
func and(a, b uint32) (uint32, bool, bool, bool, bool) { return logic(a & b) }
func or(a, b uint32) (uint32, bool, bool, bool, bool)  { return logic(a | b) }
func xor(a, b uint32) (uint32, bool, bool, bool, bool) { return logic(a ^ b) }

func logic(r uint32) (uint32, bool, bool, bool, bool) { return r, r == 0, int32(r) < 0, false, false }

func not(a uint32) uint32 { return ^a }

// imul reports the product and whether it does not fit, which sets both CF
// and OF; ZF and SF keep.
func imul(a, b uint32) (uint32, bool) {
	full := int64(int32(a)) * int64(int32(b))
	return uint32(full), full != int64(int32(uint32(full)))
}

// inc and dec set ZF, SF and OF and keep CF, as on IA-32.
func inc(a uint32) (r uint32, zf, sf, of bool) {
	r = a + 1
	return r, r == 0, int32(r) < 0, r == 0x80000000
}

func dec(a uint32) (r uint32, zf, sf, of bool) {
	r = a - 1
	return r, r == 0, int32(r) < 0, a == 0x80000000
}

// shl, shr and sar shift by n in 1..31 (a count that masks to zero changes
// nothing, flags included, and never reaches them); OF clears.
func shl(a, n uint32) (r uint32, zf, sf, cf, of bool) {
	r = a << n
	return r, r == 0, int32(r) < 0, a&(1<<(32-n)) != 0, false
}

func shr(a, n uint32) (r uint32, zf, sf, cf, of bool) {
	r = a >> n
	return r, r == 0, int32(r) < 0, a&(1<<(n-1)) != 0, false
}

func sar(a, n uint32) (r uint32, zf, sf, cf, of bool) {
	r = uint32(int32(a) >> n)
	return r, r == 0, int32(r) < 0, a&(1<<(n-1)) != 0, false
}

// sx8 and sx16 sign-extend the low byte or word.
func sx8(v uint32) uint32  { return uint32(int32(int8(v))) }
func sx16(v uint32) uint32 { return uint32(int32(int16(v))) }

// alu computes integer sub-op sel of a and b under flags f: the result,
// the flags after it, and whether the result is written back (cmp and test
// only set flags; a shift by a count that masks to zero changes nothing).
// adc and sbb add the carry to b before the operation.
func alu(sel uint8, a, b uint32, f flags) (uint32, flags, bool) {
	r := a
	if f.cf && (sel == aluAdc || sel == aluSbb) {
		b++
	}
	switch sel {
	case aluAdd, aluAdc:
		r, f.zf, f.sf, f.cf, f.of = add(a, b)
	case aluSub, aluSbb:
		r, f.zf, f.sf, f.cf, f.of = sub(a, b)
	case aluCmp:
		_, f.zf, f.sf, f.cf, f.of = sub(a, b)
		return r, f, false
	case aluAnd:
		r, f.zf, f.sf, f.cf, f.of = and(a, b)
	case aluTest:
		_, f.zf, f.sf, f.cf, f.of = and(a, b)
		return r, f, false
	case aluOr:
		r, f.zf, f.sf, f.cf, f.of = or(a, b)
	case aluXor:
		r, f.zf, f.sf, f.cf, f.of = xor(a, b)
	case aluImul:
		r, f.cf = imul(a, b)
		f.of = f.cf
	case aluShl, aluShr, aluSar:
		n := b & 31
		if n == 0 {
			return r, f, false
		}
		switch sel {
		case aluShl:
			r, f.zf, f.sf, f.cf, f.of = shl(a, n)
		case aluShr:
			r, f.zf, f.sf, f.cf, f.of = shr(a, n)
		default:
			r, f.zf, f.sf, f.cf, f.of = sar(a, n)
		}
	case aluNot:
		r = not(a)
	case aluNeg:
		r, f.zf, f.sf, f.cf, f.of = sub(0, a)
	case aluInc:
		r, f.zf, f.sf, f.of = inc(a)
	default: // aluDec
		r, f.zf, f.sf, f.of = dec(a)
	}
	return r, f, true
}

// holds evaluates condition code cc against the flags: the first code of
// each pair is computed, the second negates it.
func holds(cc uint8, zf, sf, cf, of bool) bool {
	var t bool
	switch cc >> 1 {
	case ccE >> 1:
		t = zf
	case ccL >> 1:
		t = sf != of
	case ccLE >> 1:
		t = zf || sf != of
	case ccB >> 1:
		t = cf
	case ccBE >> 1:
		t = cf || zf
	default: // ccS
		t = sf
	}
	return t != (cc&1 != 0)
}

// fpApply dispatches a uFArith sub-op. The executor passes its result
// through fpResult.
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

// fpResult is the value an FP arithmetic instruction on a (its
// destination) and b leaves when the host computes r: r itself unless it
// is NaN. Which of two NaN operands the host returns depends on which one
// the Go compiler puts first, so a NaN result follows the x87 rule
// instead: of two NaN operands the one with the larger fraction field (so
// a quiet NaN beats a signaling one), the destination a on a tie; of one
// NaN operand, that one; either made quiet. Two non-NaN operands (inf-inf,
// 0*inf, 0/0) give the x87 real indefinite, 0xFFF8000000000000. The rule
// is written inline, with no call, so that fpResult inlines into the
// executor without a call site there.
func fpResult(r, a, b float64) float64 {
	if r == r {
		return r
	}
	x, y := math.Float64bits(a), math.Float64bits(b)
	if b != b && (a == a || y<<12 > x<<12) {
		x = y
	} else if a == a {
		x = 0xFFF8 << 48
	}
	return math.Float64frombits(x | 1<<51)
}

// fpUnary dispatches a uFUnary sub-op.
func fpUnary(sub uint8, a float64) float64 {
	switch sub {
	case fpChs:
		return -a
	case fpAbs:
		return math.Abs(a)
	case fpSqrt:
		return math.Sqrt(a)
	case fpSin:
		return math.Sin(a)
	default: // fpCos
		return math.Cos(a)
	}
}

// fcom sets the integer flags like fcomi: ZF on equality, CF on a < b, so
// the unsigned branch family (jb/ja/jbe/jae/je) tests floats.
func fcom(a, b float64) (zf, sf, cf, of bool) { return a == b, false, a < b, false }

// satI16 converts a rounded float to int16 with saturation (the x87 would
// store the integer-indefinite value on overflow; saturation is the DSP
// convention every program here relies on and is documented in DESIGN.md).
func satI16(v float64) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return int16(v)
}

func satI32(v float64) int32 {
	if v > 2147483647 {
		return 2147483647
	}
	if v < -2147483648 {
		return -2147483648
	}
	return int32(v)
}

// execUops is the micro-op executor, the one execution form of every
// driver. With tr nil it runs uops once, to their end or a fault — a
// block body, or the micro-ops of one instruction (step) — and returns the
// address arena extended by their effective addresses for the caller to
// record; the caller also retires them, through faulted after a fault.
// With tr set it runs trace tr from its head until a side exit, the loop's
// own recorded exit, the instruction budget, or a fault, and records every
// iteration itself.
//
// The flags live in a local for the whole stay, spilled only at poll
// points and on leaving; the GPR/MM register files (with their
// temporaries) are the CPU's own. At every return,
// c.gpr/c.mm/flags/c.pc/c.executed are those of the architectural
// machine at the same point (a fault retires every instruction through
// the faulting one), and every full iteration (ObserveTrace) / partial
// exit (ObserveTraceExit) carries the effective address of every data
// reference in retirement order, which the cache model prices into one
// penalty per memory-referencing instruction (mem.Hierarchy.Price).
// Observed addresses accumulate straight in the stream's arena: what addrs
// holds past the arena's length is the region in progress, committed by
// its record, or, when a fault cuts it short, by per-event records of the
// instructions that retired and a price-only record of the faulting one
// (faulted). An unobserved run charges Hier with each region as it ends.
func (c *CPU) execUops(uops []uop, tr *vmTrace, ts *traceState, maxInstrs int64, pollAt *int64) ([]uint64, error) {
	st := c.st
	gpr, mm := &c.gpr, &c.mm
	zf, sf, cf, of := c.fl.zf, c.fl.sf, c.fl.cf, c.fl.of
	measured := c.measuring
	entry := c.executed
	iterBase := entry
	hier := c.Hier
	memu := c.Mem
	addrs := c.addrbuf[:0]
	if st != nil {
		addrs = st.addrs
	}
	var final int64
	var retErr error
	// fa and fmsg are the address and text of a memory fault (memFault).
	var fa uint32
	var fmsg string
	exitK := int32(-1)
	exitOp := int32(-1)
	var exitPath uint16
	exited := false
	i := 0
	for ; uint(i) < uint(len(uops)); i++ {
		u := &uops[i]
		switch u.kind {
		case uMovRR:
			gpr[u.d&15] = gpr[u.s&15]
		case uMovRI:
			gpr[u.d&15] = u.imm

		case uLoad8:
			a := memAddr(u, gpr)
			addrs = append(addrs, uint64(a))
			v, ok := memu.LoadU8(a)
			if !ok {
				fa, fmsg = a, msgLoad8
				goto memFault
			}
			gpr[u.d&15] = uint32(v)
		case uLoad16:
			a := memAddr(u, gpr)
			addrs = append(addrs, uint64(a))
			v, ok := memu.LoadU16(a)
			if !ok {
				fa, fmsg = a, msgLoad16
				goto memFault
			}
			gpr[u.d&15] = uint32(v)
		case uLoad32:
			a := memAddr(u, gpr)
			addrs = append(addrs, uint64(a))
			v, ok := memu.LoadU32(a)
			if !ok {
				fa, fmsg = a, msgLoad32
				goto memFault
			}
			gpr[u.d&15] = v
		case uLoadSx8:
			a := memAddr(u, gpr)
			addrs = append(addrs, uint64(a))
			v, ok := memu.LoadU8(a)
			if !ok {
				fa, fmsg = a, msgLoad8
				goto memFault
			}
			gpr[u.d&15] = sx8(uint32(v))
		case uLoadSx16:
			a := memAddr(u, gpr)
			addrs = append(addrs, uint64(a))
			v, ok := memu.LoadU16(a)
			if !ok {
				fa, fmsg = a, msgLoad16
				goto memFault
			}
			gpr[u.d&15] = sx16(uint32(v))

		case uStore8:
			a := memAddr(u, gpr)
			addrs = append(addrs, uint64(a))
			if !memu.StoreU8(a, uint8(gpr[u.s&15])) {
				fa, fmsg = a, msgStore
				goto memFault
			}
		case uStore16:
			a := memAddr(u, gpr)
			addrs = append(addrs, uint64(a))
			if !memu.StoreU16(a, uint16(gpr[u.s&15])) {
				fa, fmsg = a, msgStore
				goto memFault
			}
		case uStore32:
			a := memAddr(u, gpr)
			addrs = append(addrs, uint64(a))
			if !memu.StoreU32(a, gpr[u.s&15]) {
				fa, fmsg = a, msgStore
				goto memFault
			}
		case uStore8I:
			a := memAddr(u, gpr)
			addrs = append(addrs, uint64(a))
			if !memu.StoreU8(a, uint8(u.imm2)) {
				fa, fmsg = a, msgStore
				goto memFault
			}
		case uStore16I:
			a := memAddr(u, gpr)
			addrs = append(addrs, uint64(a))
			if !memu.StoreU16(a, uint16(u.imm2)) {
				fa, fmsg = a, msgStore
				goto memFault
			}
		case uStore32I:
			a := memAddr(u, gpr)
			addrs = append(addrs, uint64(a))
			if !memu.StoreU32(a, u.imm2) {
				fa, fmsg = a, msgStore
				goto memFault
			}

		case uStoreN:
			// The store of a pop to memory, after the pop's reference.
			a := memAddr(u, gpr)
			addrs = append(addrs, uint64(a)|mem.Next)
			if !memu.StoreU32(a, gpr[u.s&15]) {
				fa, fmsg = a, msgStore
				goto memFault
			}

		case uLea:
			gpr[u.d&15] = memAddr(u, gpr)
		case uZx8:
			gpr[u.d&15] = gpr[u.s&15] & 0xFF
		case uZx16:
			gpr[u.d&15] = gpr[u.s&15] & 0xFFFF
		case uSx8:
			gpr[u.d&15] = sx8(gpr[u.s&15])
		case uSx16:
			gpr[u.d&15] = sx16(gpr[u.s&15])
		case uXchg:
			gpr[u.d&15], gpr[u.s&15] = gpr[u.s&15], gpr[u.d&15]

		case uPushR, uPushI, uTCall, uPCall:
			// The pushed value is read before ESP moves (push esp pushes
			// the old ESP).
			v := u.imm
			switch u.kind {
			case uPushR:
				v = gpr[u.s&15]
			case uTCall, uPCall:
				v = u.imm2
			}
			sp := gpr[traceESP] - 4
			gpr[traceESP] = sp
			addrs = append(addrs, uint64(sp)|uint64(u.nx)*mem.Next)
			if !memu.StoreU32(sp, v) {
				fa, fmsg = sp, msgOverflow
				goto memFault
			}
			if u.kind == uPCall {
				c.pc, c.taken = int(u.tgt), true
			}
		case uPopR, uPRet, uRet:
			sp := gpr[traceESP]
			addrs = append(addrs, uint64(sp))
			v, ok := memu.LoadU32(sp)
			if !ok {
				fa, fmsg = sp, msgUnderflow
				goto memFault
			}
			gpr[traceESP] = sp + 4
			switch {
			case u.kind == uPopR:
				gpr[u.d&15] = v
			case u.kind == uPRet:
				c.pc, c.taken = int(v), true
			case u.expect:
				// A trace's tail return: the chain ends here; the popped
				// address is the iteration's computed exit, not a guard
				// failure.
				c.pc = int(v)
				ts.iters++
				if u.pathIdx != 0 {
					ts.treeIters++
					ts.treeInstrs += uint64(u.cum)
				}
				if st != nil {
					addrs = st.trace(tr.pathID(u.pathIdx), measured, addrs)
				} else {
					charge(hier, addrs)
					addrs = addrs[:0]
				}
				final = iterBase + u.cum
				goto out
			case v != u.imm:
				// A trace's return went somewhere other than the recorded
				// continuation: side exit. The ret itself retired (its
				// address is already in addrs, and cum counts it).
				c.pc = int(v)
				final = iterBase + u.cum
				exitK = u.blockK
				exitPath = u.pathIdx
				exited = true
				goto out
			}

		case uAddRR, uAddRI:
			b := u.imm
			if u.kind == uAddRR {
				b = gpr[u.s&15]
			}
			gpr[u.d&15], zf, sf, cf, of = add(gpr[u.d&15], b)
		case uSubRR, uSubRI:
			b := u.imm
			if u.kind == uSubRR {
				b = gpr[u.s&15]
			}
			gpr[u.d&15], zf, sf, cf, of = sub(gpr[u.d&15], b)
		case uCmpRR, uCmpRI:
			b := u.imm
			if u.kind == uCmpRR {
				b = gpr[u.s&15]
			}
			_, zf, sf, cf, of = sub(gpr[u.d&15], b)
		case uAndRR, uAndRI:
			b := u.imm
			if u.kind == uAndRR {
				b = gpr[u.s&15]
			}
			gpr[u.d&15], zf, sf, cf, of = and(gpr[u.d&15], b)
		case uOrRR, uOrRI:
			b := u.imm
			if u.kind == uOrRR {
				b = gpr[u.s&15]
			}
			gpr[u.d&15], zf, sf, cf, of = or(gpr[u.d&15], b)
		case uXorRR, uXorRI:
			b := u.imm
			if u.kind == uXorRR {
				b = gpr[u.s&15]
			}
			gpr[u.d&15], zf, sf, cf, of = xor(gpr[u.d&15], b)
		case uTestRR, uTestRI:
			b := u.imm
			if u.kind == uTestRR {
				b = gpr[u.s&15]
			}
			_, zf, sf, cf, of = and(gpr[u.d&15], b)
		case uImulRR, uImulRI:
			b := u.imm
			if u.kind == uImulRR {
				b = gpr[u.s&15]
			}
			gpr[u.d&15], cf = imul(gpr[u.d&15], b)
			of = cf
		case uAluRR, uAluRI:
			b := u.imm
			if u.kind == uAluRR {
				b = gpr[u.s&15]
			}
			r, f, write := alu(u.alu, gpr[u.d&15], b, flags{zf, sf, cf, of})
			zf, sf, cf, of = f.zf, f.sf, f.cf, f.of
			if write {
				gpr[u.d&15] = r
			}

		case uAddRM, uSubRM, uCmpRM, uAndRM, uOrRM, uXorRM, uTestRM, uImulRM:
			a := memAddr(u, gpr)
			addrs = append(addrs, uint64(a))
			b, ok := memu.LoadU32(a)
			if !ok {
				fa, fmsg = a, msgLoad32
				goto memFault
			}
			d := gpr[u.d&15]
			switch u.kind {
			case uAddRM:
				gpr[u.d&15], zf, sf, cf, of = add(d, b)
			case uSubRM:
				gpr[u.d&15], zf, sf, cf, of = sub(d, b)
			case uCmpRM:
				_, zf, sf, cf, of = sub(d, b)
			case uAndRM:
				gpr[u.d&15], zf, sf, cf, of = and(d, b)
			case uOrRM:
				gpr[u.d&15], zf, sf, cf, of = or(d, b)
			case uXorRM:
				gpr[u.d&15], zf, sf, cf, of = xor(d, b)
			case uTestRM:
				_, zf, sf, cf, of = and(d, b)
			default: // uImulRM
				gpr[u.d&15], cf = imul(d, b)
				of = cf
			}

		case uAluMR, uAluMI:
			// Read-modify-write (u.d is the size code). The load is the
			// instruction's first data reference; the store, when the
			// operation writes, is its second.
			a := memAddr(u, gpr)
			addrs = append(addrs, uint64(a))
			var av uint32
			var ok bool
			switch u.d {
			case 0:
				var v uint8
				v, ok = memu.LoadU8(a)
				av = uint32(v)
			case 1:
				var v uint16
				v, ok = memu.LoadU16(a)
				av = uint32(v)
			default:
				av, ok = memu.LoadU32(a)
			}
			if !ok {
				fa, fmsg = a, loadMsg[u.d%3]
				goto memFault
			}
			bv := u.imm2
			if u.kind != uAluMI {
				bv = gpr[u.s&15]
			}
			// The common sub-ops inline, the rest through alu.
			r, write := av, true
			switch u.alu {
			case aluAdd:
				r, zf, sf, cf, of = add(av, bv)
			case aluSub:
				r, zf, sf, cf, of = sub(av, bv)
			case aluAnd:
				r, zf, sf, cf, of = and(av, bv)
			case aluOr:
				r, zf, sf, cf, of = or(av, bv)
			case aluXor:
				r, zf, sf, cf, of = xor(av, bv)
			default:
				var f flags
				r, f, write = alu(u.alu, av, bv, flags{zf, sf, cf, of})
				zf, sf, cf, of = f.zf, f.sf, f.cf, f.of
			}
			if write {
				addrs = append(addrs, uint64(a)|mem.Next)
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
					fa, fmsg = a, msgStore
					goto memFault
				}
			}

		case uNot:
			gpr[u.d&15] = not(gpr[u.d&15])
		case uNeg:
			gpr[u.d&15], zf, sf, cf, of = sub(0, gpr[u.d&15])
		case uInc:
			gpr[u.d&15], zf, sf, of = inc(gpr[u.d&15])
		case uDec:
			gpr[u.d&15], zf, sf, of = dec(gpr[u.d&15])
		case uShlI:
			gpr[u.d&15], zf, sf, cf, of = shl(gpr[u.d&15], u.imm)
		case uShrI:
			gpr[u.d&15], zf, sf, cf, of = shr(gpr[u.d&15], u.imm)
		case uSarI:
			gpr[u.d&15], zf, sf, cf, of = sar(gpr[u.d&15], u.imm)
		case uIdiv:
			// edx:eax / src, quotient to eax and remainder to edx.
			d := gpr[u.s&15]
			if d == 0 {
				c.pc = int(u.pc)
				retErr = c.fault("integer divide by zero")
				goto out
			}
			num := int64(gpr[traceEDX])<<32 | int64(gpr[traceEAX])
			den := int64(int32(d))
			quo, rem := num/den, num%den
			if quo > 0x7FFFFFFF || quo < -0x80000000 {
				c.pc = int(u.pc)
				retErr = c.fault("idiv overflow (%d / %d)", num, den)
				goto out
			}
			gpr[traceEAX], gpr[traceEDX] = uint32(quo), uint32(rem)
		case uCdq:
			gpr[traceEDX] = uint32(int32(gpr[traceEAX]) >> 31)

		case uMovdGM:
			c.mmxActive = true
			mm[u.d&15] = mmx.Reg(uint64(gpr[u.s&15]))
		case uMovdMG:
			c.mmxActive = true
			gpr[u.d&15] = uint32(mm[u.s&15])
		case uMovdLM:
			c.mmxActive = true
			a := memAddr(u, gpr)
			addrs = append(addrs, uint64(a))
			v, ok := memu.LoadU32(a)
			if !ok {
				fa, fmsg = a, msgLoad32
				goto memFault
			}
			mm[u.d&15] = mmx.Reg(uint64(v))
		case uMovdSM:
			c.mmxActive = true
			a := memAddr(u, gpr)
			addrs = append(addrs, uint64(a))
			if !memu.StoreU32(a, uint32(mm[u.s&15])) {
				fa, fmsg = a, msgStore
				goto memFault
			}
		case uMovqRR:
			c.mmxActive = true
			mm[u.d&15] = mm[u.s&15]
		case uMovqLM:
			c.mmxActive = true
			a := memAddr(u, gpr)
			addrs = append(addrs, uint64(a))
			v, ok := memu.LoadU64(a)
			if !ok {
				fa, fmsg = a, msgMMXLoad64
				goto memFault
			}
			mm[u.d&15] = mmx.Reg(v)
		case uMovqSM:
			c.mmxActive = true
			a := memAddr(u, gpr)
			addrs = append(addrs, uint64(a))
			if !memu.StoreU64(a, uint64(mm[u.s&15])) {
				fa, fmsg = a, msgMovqStore
				goto memFault
			}
		case uMMXBinRR:
			c.mmxActive = true
			mm[u.d&15] = u.mfn(mm[u.d&15], mm[u.s&15])
		case uMMXBinRM64:
			c.mmxActive = true
			a := memAddr(u, gpr)
			addrs = append(addrs, uint64(a))
			v, ok := memu.LoadU64(a)
			if !ok {
				fa, fmsg = a, msgMMXLoad64
				goto memFault
			}
			mm[u.d&15] = u.mfn(mm[u.d&15], mmx.Reg(v))
		case uMMXBinRM32:
			c.mmxActive = true
			a := memAddr(u, gpr)
			addrs = append(addrs, uint64(a))
			v, ok := memu.LoadU32(a)
			if !ok {
				fa, fmsg = a, msgMMXLoad32
				goto memFault
			}
			mm[u.d&15] = u.mfn(mm[u.d&15], mmx.Reg(uint64(v)))
		case uMMXShiftI:
			c.mmxActive = true
			mm[u.d&15] = u.sfn(mm[u.d&15], uint(u.imm))
		case uMMXShiftRR:
			c.mmxActive = true
			mm[u.d&15] = u.sfn(mm[u.d&15], uint(min(uint64(mm[u.s&15]), 64)))
		case uEmms:
			c.mmxActive = false

		case uFMovRR, uFConst, uFArithRR, uFComRR, uFUnary:
			if c.mmxActive {
				goto fpFault
			}
			switch u.kind {
			case uFMovRR:
				c.fp[u.d&15] = c.fp[u.s&15]
			case uFConst:
				c.fp[u.d&15] = u.fv
			case uFArithRR:
				a, b := c.fp[u.d&15], c.fp[u.s&15]
				c.fp[u.d&15] = fpResult(fpApply(u.alu, a, b), a, b)
			case uFUnary:
				c.fp[u.d&15] = fpUnary(u.alu, c.fp[u.d&15])
			default: // uFComRR
				zf, sf, cf, of = fcom(c.fp[u.d&15], c.fp[u.s&15])
			}
		case uFStore32, uFStore64, uFist16, uFist32:
			if c.mmxActive {
				goto fpFault
			}
			a := memAddr(u, gpr)
			addrs = append(addrs, uint64(a))
			v := c.fp[u.s&15]
			var ok bool
			fmsg = fstRange
			switch u.kind {
			case uFStore32:
				ok = memu.StoreU32(a, math.Float32bits(float32(v)))
			case uFStore64:
				ok = memu.StoreU64(a, math.Float64bits(v))
			case uFist16:
				ok, fmsg = memu.StoreU16(a, uint16(satI16(math.RoundToEven(v)))), msgFist
			default: // uFist32
				ok, fmsg = memu.StoreU32(a, uint32(satI32(math.RoundToEven(v)))), msgFist
			}
			if !ok {
				fa = a
				goto memFault
			}
		case uFLoad32, uFArithM32, uFComM32, uFild32:
			if c.mmxActive {
				goto fpFault
			}
			a := memAddr(u, gpr)
			addrs = append(addrs, uint64(a))
			raw, ok := memu.LoadU32(a)
			if !ok {
				fa, fmsg = a, msgFLoad32
				if u.kind == uFild32 {
					fmsg = msgFild
				}
				goto memFault
			}
			v := float64(math.Float32frombits(raw))
			switch u.kind {
			case uFLoad32:
				c.fp[u.d&15] = v
			case uFArithM32:
				a := c.fp[u.d&15]
				c.fp[u.d&15] = fpResult(fpApply(u.alu, a, v), a, v)
			case uFComM32:
				zf, sf, cf, of = fcom(c.fp[u.d&15], v)
			default: // uFild32
				c.fp[u.d&15] = float64(int32(raw))
			}
		case uFLoad64, uFArithM64, uFComM64:
			if c.mmxActive {
				goto fpFault
			}
			a := memAddr(u, gpr)
			addrs = append(addrs, uint64(a))
			raw, ok := memu.LoadU64(a)
			if !ok {
				fa, fmsg = a, msgFLoad64
				goto memFault
			}
			v := math.Float64frombits(raw)
			switch u.kind {
			case uFLoad64:
				c.fp[u.d&15] = v
			case uFArithM64:
				a := c.fp[u.d&15]
				c.fp[u.d&15] = fpResult(fpApply(u.alu, a, v), a, v)
			default: // uFComM64
				zf, sf, cf, of = fcom(c.fp[u.d&15], v)
			}
		case uFild16:
			if c.mmxActive {
				goto fpFault
			}
			a := memAddr(u, gpr)
			addrs = append(addrs, uint64(a))
			raw, ok := memu.LoadU16(a)
			if !ok {
				fa, fmsg = a, msgFild
				goto memFault
			}
			c.fp[u.d&15] = float64(int16(raw))

		case uJmp:
			c.pc, c.taken = int(u.tgt), true
		case uBr:
			if holds(u.alu, zf, sf, cf, of) {
				c.pc, c.taken = int(u.tgt), true
			}
		case uHalt:
			c.halted, c.taken = true, true

		case uJcc:
			if t := holds(u.alu, zf, sf, cf, of); t != u.expect {
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
			ts.iters++
			if u.pathIdx != 0 {
				ts.treeIters++
				ts.treeInstrs += uint64(u.cum)
			}
			if st != nil {
				addrs = st.trace(tr.pathID(u.pathIdx), measured, addrs)
			} else {
				charge(hier, addrs)
				addrs = addrs[:0]
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
				c.fl = flags{zf, sf, cf, of}
				c.executed = iterDone
				c.pc = int(tr.head)
				if err := c.Poll(); err != nil {
					return nil, c.abort(err)
				}
				*pollAt = iterDone + c.pollInterval()
			}
			if iterDone+tr.nInstrs > maxInstrs {
				// Not enough budget for another full iteration: hand back
				// to block dispatch, which single-steps to the exact edge.
				final = iterDone
				c.pc = int(tr.head)
				goto out
			}
			i = -1
		}
	}
	goto out

memFault:
	c.pc = int(uops[i].pc)
	retErr = c.fault(fmsg, fa)
	goto out
fpFault:
	c.pc = int(uops[i].pc)
	retErr = c.fault(fpWhileMMX)

out:
	c.fl = flags{zf, sf, cf, of}
	if st == nil {
		c.addrbuf = addrs[:0] // keep any growth for the next region
	}
	if retErr != nil {
		c.executed = iterBase + uops[i].cum
		if tr == nil {
			// The caller knows where the region began; it retires it.
			return addrs, retErr
		}
		c.faulted(addrs, int(uops[i].cum-1), tr, i)
		return nil, retErr
	}
	if tr == nil {
		// The micro-ops ran to their end; the caller retires them.
		return addrs, nil
	}
	c.executed = final
	ts.instrs += uint64(final - entry)
	if exited {
		ts.exits++
		if st != nil {
			st.traceExit(tr.pathID(exitPath), int(exitK), measured, addrs)
		} else {
			charge(hier, addrs)
		}
		if exitOp >= 0 && !ts.rec.active {
			// A guard exit: count it toward growing the alternate path as
			// a child.
			c.growChild(ts, tr, exitOp)
		}
	}
	return nil, nil
}

// pathAt returns the blocks and directions of the tree path that trace op
// i retires against: the path its segment's control ops are tagged with.
func (tr *vmTrace) pathAt(i int) ([]int32, []bool) {
	for _, u := range tr.ops[i:] {
		switch u.kind {
		case uJcc, uRet, uEnd:
			if u.pathIdx != 0 {
				p := &tr.paths[u.pathIdx]
				return p.blocks, p.taken
			}
			return tr.blocks, tr.taken
		}
	}
	return tr.blocks, tr.taken
}

// faulted retires what a fault at instruction c.pc left of the region it
// cut short: the n instructions before it, which retired, and the faulting
// instruction's effective addresses, which end addrs. The n instructions
// run straight up to c.pc, or, when the fault is trace tr's op i, along
// the tree path of that op from the trace's head. On a streamed run
// each of them is delivered as its own Retire with its own addresses, and
// the faulting instruction's addresses are priced alone, as the
// per-instruction loop does; any other run charges the cache model with
// all of addrs.
func (c *CPU) faulted(addrs []uint64, n int, tr *vmTrace, i int) {
	st := c.st
	if st == nil {
		charge(c.Hier, addrs)
		return
	}
	// A record may hand the batch off and take a fresh arena, so the
	// region's addresses move out of the arena first.
	rest := append(c.addrbuf[:0], addrs[len(st.addrs):]...)
	c.addrbuf = rest[:0]
	insts := c.Prog.Insts
	retire := func(pc int, tk bool, target int) {
		in := &insts[pc]
		if !in.Op.EmitsEvent() {
			return
		}
		k := 0
		if in.ReferencesMemory() {
			for k = 1; k < len(rest) && rest[k]&mem.Next != 0; k++ {
			}
		}
		ev := Event{PC: pc, Inst: in, Measured: c.measuring, Taken: tk, Target: target}
		st.retire(&ev, append(st.addrs, rest[:k]...))
		rest = rest[k:]
	}
	if tr == nil {
		for pc := c.pc - n; pc < c.pc; pc++ {
			retire(pc, false, pc+1)
		}
	} else {
		blocks, taken := tr.pathAt(i)
		for k := 0; k < len(blocks) && n > 0; k++ {
			b := &c.code.blocks[blocks[k]]
			for pc := int(b.start); pc < int(b.end) && n > 0; pc, n = pc+1, n-1 {
				if pc != int(b.term) {
					retire(pc, false, pc+1)
				} else {
					// The fault lies past this terminator, so a later block of
					// the path follows it.
					retire(pc, taken[k], int(c.code.blocks[blocks[k+1]].start))
				}
			}
		}
	}
	st.priceOnly(append(st.addrs, rest...))
}
