// Package vm executes linked Programs: an in-order fetch/decode/execute
// interpreter over the simulated ISA with 8 general-purpose registers, the
// MMX register file aliased onto the floating-point registers, IA-32 style
// flags, and a call stack in simulated memory.
//
// The VM is purely architectural: it computes results and reports every
// retired instruction to an Observer. Timing (pipeline pairing, latencies,
// branch and cache penalties) is the concern of the observers in
// internal/pentium and internal/profile, mirroring how VTune replayed a
// finished instruction stream against a Pentium model. The cache model
// (CPU.Hier) is priced the same way: the executors only note each data
// reference's effective address, and the addresses are folded through the
// hierarchy into one penalty per memory-referencing instruction
// (mem.Hierarchy.Price) before the observer sees them. A streamed run does
// that on the observer's goroutine, so its interpreter never touches Hier;
// every other run does it on the caller's goroutine, the per-instruction
// loop after each instruction and an unobserved dispatch run at the end of
// each region. Either way Hier.Stats is final only once Run has returned.
//
// Instructions execute in one form, micro-ops: Compile (block.go) lowers
// every instruction of the program, in every operand shape the assembler
// accepts, to them once (lower.go), and one executor runs them (execUops in trace.go). Run has
// two drivers over that code. The per-instruction loop runs one
// instruction's micro-ops per step and serves any observer that wants one
// Retire per instruction. The dispatch loop (trace.go) runs whole basic
// block bodies and, with CPU.Traces set, superblocks formed at run time
// from copies of them, and reports whole regions to a TraceObserver; it
// steps block terminators, entries in mid-block and budget edges one
// instruction at a time, as the per-instruction loop does. The reference
// the executor is tested against is internal/isaref, an interpreter that
// shares no code with it.
//
// Observer calls return nothing to the interpreter, so the dispatch loop
// decouples the two: it appends each observation (Retire, ObserveBlock,
// RegisterTrace, ObserveTrace, ObserveTraceExit) as a compact record to
// the current batch (a run of identical trace iterations shares one), and
// a second goroutine replays full batches into the observer (stream.go).
// The observation stream guarantees:
//
//   - Order: the observer sees exactly the calls, arguments and order a
//     synchronous observer would, never two calls at once.
//   - Completeness: Run returns only after the observer has received every
//     observation and its goroutine has exited, on every exit path (HALT,
//     budget, fault, Poll abort, panic), so its state is final and visible
//     to the caller.
//   - Panic forwarding: a panic in the observer stops the interpreter at
//     its next batch handoff, and Run re-panics with the original value on
//     the caller's goroutine.
//   - Bounded memory: batches cycle through a small fixed pool, which also
//     gives backpressure when the observer falls behind.
//
// With no observer there is no second goroutine and no batching. The
// per-instruction loop calls its observer directly.
package vm

import (
	"errors"
	"fmt"
	"math"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/mem"
	"mmxdsp/internal/mmx"
)

// ErrBudget marks a run halted by its instruction budget rather than by
// HALT or a genuine fault. Budget exhaustion is exact — the dispatch loop
// falls back to single stepping when the remaining budget is smaller than
// a whole block or trace iteration — so a budget-terminated machine state
// is deterministic and callers may report it as a partial result
// (errors.Is(err, ErrBudget)).
var ErrBudget = errors.New("instruction budget exhausted")

// DefaultPollInterval is the retirement-count granularity at which Run
// invokes CPU.Poll when a poll hook is installed. At simulated throughputs
// of a few million instructions per second even the slowest interpreter
// revisits the hook within single-digit milliseconds, so cancellation
// latency is bounded well below human-visible delays while the hot loops
// pay only one integer compare per iteration.
const DefaultPollInterval = 1 << 15

// Event describes one retired instruction.
type Event struct {
	PC   int
	Inst *isa.Inst
	// Measured reports whether the instruction retired inside a
	// profon/profoff region.
	Measured bool
	// Taken reports whether a branch/jump/call/ret transferred control.
	Taken bool
	// Target is the next PC after the instruction.
	Target int
	// MemPenalty is the extra cycles the cache model (CPU.Hier) charged
	// for this instruction's data references, priced in reference order.
	MemPenalty int
}

// Observer receives retired-instruction events.
type Observer interface {
	Retire(ev Event)
}

// CPU is a machine instance executing one Program.
type CPU struct {
	Prog *asm.Program
	Mem  *mem.Memory

	// code is the program's micro-ops (see block.go), compiled lazily on
	// the first Run and shared by CPUs built with NewWithCode.
	code *Code
	// Generic forces the per-instruction loop, one Retire per instruction
	// whatever the observer. It exists for differential testing: both
	// drivers must produce identical registers, memory, events and faults.
	Generic bool
	// Traces enables trace formation in the dispatch loop (see trace.go):
	// runtime hot-chain detection, superblock fusion across taken branches
	// and register caching inside the fused bodies. With it off the loop
	// dispatches basic blocks only.
	Traces bool
	// TraceThreshold overrides the chain-head hotness threshold; 0 selects
	// the default.
	TraceThreshold int

	// ts is the per-run trace state (heat counters, recorder, superblock
	// table), built lazily on the first dispatch-loop Run.
	ts *traceState

	// The register files: the eight architectural registers of each, and
	// past them the temporaries an instruction's micro-ops stage operands
	// in (tmp, tmp2), never visible between instructions.
	gpr [16]uint32
	mm  [16]mmx.Reg
	fp  [16]float64
	fl  flags
	// taken is set by a control micro-op that transfers control (step
	// reads it).
	taken bool

	pc        int
	halted    bool
	measuring bool
	mmxActive bool

	// Hier is the data-cache hierarchy; nil models perfect memory. During
	// an observed dispatch-loop Run it is priced on the observer's
	// goroutine (see stream.go); read its Stats only after Run returns.
	Hier *mem.Hierarchy
	// addrbuf is the effective-address accumulator of regions no stream
	// records, kept across regions so it stops growing.
	addrbuf []uint64
	// Obs receives retirement events; nil disables observation. A
	// TraceObserver is called from a second goroutine (see stream.go),
	// never concurrently with itself, and all calls complete before Run
	// returns. It may panic but must not call runtime.Goexit (t.FailNow).
	Obs Observer
	// st is the observation stream of an observed dispatch-loop Run in
	// progress; nil otherwise.
	st *stream

	// Poll, when non-nil, is invoked by Run at least once every PollEvery
	// retired instructions (and once on entry). A non-nil return aborts
	// the run with that error wrapped in program context; errors.Is still
	// sees the cause, so a hook returning ctx.Err() gives callers
	// mid-run cancellation with bounded latency.
	Poll func() error
	// PollEvery overrides the poll granularity; 0 selects
	// DefaultPollInterval.
	PollEvery int64

	executed int64
}

// New builds a CPU for the program with its memory image loaded and the
// stack pointer initialized. The program is compiled on the first
// dispatch-loop Run; use NewWithCode to share one compiled Code across CPUs.
func New(p *asm.Program) *CPU {
	c := &CPU{
		Prog: p,
		Mem:  mem.New(p.MemSize),
		pc:   p.Entry,
	}
	c.Mem.WriteBytes(asm.DataBase, p.Data)
	c.gpr[isa.ESP.GPRIndex()] = p.StackTop()
	return c
}

// NewWithCode builds a CPU that reuses an already-compiled program, so
// repeated runs of the same program pay the compile cost once.
func NewWithCode(code *Code) *CPU {
	c := New(code.prog)
	c.code = code
	return c
}

// GPR returns the value of a general-purpose register.
func (c *CPU) GPR(r isa.Reg) uint32 { return c.gpr[r.GPRIndex()] }

// MM returns the value of an MMX register.
func (c *CPU) MM(r isa.Reg) mmx.Reg { return c.mm[r.MMXIndex()] }

// FPReg returns the value of a floating-point register.
func (c *CPU) FPReg(r isa.Reg) float64 { return c.fp[r.FPIndex()] }

// Executed returns the number of retired instructions (including pseudo).
// After a fault it counts every instruction through the faulting one, on
// every interpreter path; after an aborted or budget-exhausted run, every
// instruction that retired.
func (c *CPU) Executed() int64 { return c.executed }

// budgetFault produces the budget-exhaustion error, formatted like a
// fault but wrapping ErrBudget so callers can classify it. Both drivers
// raise it through here, keeping the text identical across modes (the
// dispatch-equivalence tests compare error strings).
func (c *CPU) budgetFault(maxInstrs int64) error {
	in := "?"
	if c.pc >= 0 && c.pc < len(c.Prog.Insts) {
		in = c.Prog.Insts[c.pc].String()
	}
	return fmt.Errorf("vm(%s) pc=%d [%s]: budget of %d instructions: %w",
		c.Prog.Name, c.pc, in, maxInstrs, ErrBudget)
}

// fault produces an execution error with context.
func (c *CPU) fault(format string, args ...any) error {
	in := "?"
	if c.pc >= 0 && c.pc < len(c.Prog.Insts) {
		in = c.Prog.Insts[c.pc].String()
	}
	return fmt.Errorf("vm(%s) pc=%d [%s]: %s", c.Prog.Name, c.pc, in,
		fmt.Sprintf(format, args...))
}

// pollInterval returns the configured poll granularity.
func (c *CPU) pollInterval() int64 {
	if c.PollEvery > 0 {
		return c.PollEvery
	}
	return DefaultPollInterval
}

// pollStart returns the first retirement count at which the inner loop
// should consult Poll: immediately when a hook is installed (so an
// already-cancelled run never executes an instruction), never otherwise.
func (c *CPU) pollStart() int64 {
	if c.Poll == nil {
		return math.MaxInt64
	}
	return c.executed
}

// abort wraps a poll error with execution context, preserving the cause
// for errors.Is/errors.As (e.g. context.Canceled).
func (c *CPU) abort(err error) error {
	return fmt.Errorf("vm(%s) pc=%d: run aborted after %d instructions: %w",
		c.Prog.Name, c.pc, c.executed, err)
}

// Run executes until HALT or until maxInstrs instructions have retired,
// which guards against runaway programs. It runs the dispatch loop
// (trace.go) unless Generic is set or the observer is not a TraceObserver;
// those runs take the per-instruction loop, which retires one event per
// instruction.
func (c *CPU) Run(maxInstrs int64) error {
	if c.code == nil {
		c.code = Compile(c.Prog)
	}
	tobs, regions := c.Obs.(TraceObserver)
	if c.Generic || (c.Obs != nil && !regions) {
		return c.runGeneric(maxInstrs)
	}
	if tobs == nil {
		return c.runTrace(maxInstrs)
	}
	return c.runTraceObserved(maxInstrs, tobs)
}

// runTraceObserved runs the dispatch loop with the observer on a second
// goroutine, fed through the ordered stream of stream.go. It returns only
// after the observer has received every observation, on every exit path;
// a panic in the observer is re-raised here, on the caller's goroutine,
// with its original value.
func (c *CPU) runTraceObserved(maxInstrs int64, tobs TraceObserver) error {
	c.st = startStream(tobs, c.Prog.Insts, c.Hier)
	defer func() {
		s := c.st
		c.st = nil
		s.close(recover())
	}()
	return c.runTrace(maxInstrs)
}

// runGeneric is the per-instruction loop: one step per instruction, the
// driver of plain per-event observers.
func (c *CPU) runGeneric(maxInstrs int64) error {
	var ev Event
	pollAt := c.pollStart()
	for !c.halted {
		if c.executed >= pollAt {
			if err := c.Poll(); err != nil {
				return c.abort(err)
			}
			pollAt = c.executed + c.pollInterval()
		}
		if c.executed >= maxInstrs {
			return c.budgetFault(maxInstrs)
		}
		if c.pc < 0 || c.pc >= len(c.Prog.Insts) {
			return c.fault("control transferred outside program (pc=%d)", c.pc)
		}
		emit, err := c.step(&ev)
		if err != nil {
			return err
		}
		if emit && c.Obs != nil {
			c.Obs.Retire(ev)
		}
	}
	return nil
}

// step retires the instruction at c.pc (which must be in range) by running
// its micro-ops from the compiled code. It reports whether the instruction
// emits an event, which it then leaves in ev: on a streamed run the event
// and its effective addresses go to the stream, on any other its
// addresses are priced into ev.MemPenalty.
func (c *CPU) step(ev *Event) (bool, error) {
	pc := c.pc
	in := &c.Prog.Insts[pc]
	c.executed++

	// Pseudo instructions manage the measured region and are invisible to
	// the observers, matching how VTune's start/stop markers work.
	switch in.Op {
	case isa.NOP:
		c.pc++
		return false, nil
	case isa.PROFON:
		c.measuring = true
		c.pc++
		return false, nil
	case isa.PROFOFF:
		c.measuring = false
		c.pc++
		return false, nil
	}

	*ev = Event{PC: pc, Inst: in, Measured: c.measuring}
	retired := c.executed
	c.taken = false
	at := c.code.at
	addrs, err := c.execUops(c.code.ops[at[pc]:at[pc+1]], nil, nil, 0, nil)
	if err != nil {
		// execUops counted from the instruction's block start.
		c.executed = retired
		c.faulted(addrs, 0, nil, 0)
		return false, err
	}
	if !c.taken {
		c.pc = pc + 1
	}
	ev.Taken, ev.Target = c.taken, c.pc
	if c.st != nil {
		c.st.retire(ev, addrs)
		return true, nil
	}
	if c.Hier != nil && len(addrs) > 0 {
		var pen [1]int32
		ev.MemPenalty = int(c.Hier.Price(addrs, pen[:0])[0])
	}
	return true, nil
}

// charge folds a region's effective addresses through h for its state and
// statistics alone: the region of a run no observer prices. It is small
// enough to inline, so a run with no cache model pays only the nil test.
func charge(h *mem.Hierarchy, addrs []uint64) {
	if h != nil {
		h.Charge(addrs)
	}
}
