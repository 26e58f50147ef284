// Package vm executes linked Programs: an in-order fetch/decode/execute
// interpreter over the simulated ISA with 8 general-purpose registers, the
// MMX register file aliased onto the floating-point registers, IA-32 style
// flags, and a call stack in simulated memory.
//
// The VM is purely architectural: it computes results and reports every
// retired instruction to an Observer. Timing (pipeline pairing, latencies,
// branch and cache penalties) is the concern of the observers in
// internal/pentium and internal/profile, mirroring how VTune replayed a
// finished instruction stream against a Pentium model. Only the cache
// model (mem.Hierarchy) runs inside the VM, since penalties are computed
// where addresses are; they travel with the observations.
//
// Run has two interpreters. The generic loop decodes and executes one
// instruction per step; it is the reference the other is tested against,
// and it serves any observer that wants one Retire per instruction. The
// dispatch loop (trace.go) runs one fast execution form, micro-ops: every
// basic block body is lowered to them once, by Compile (block.go), and
// with CPU.Traces set, superblocks formed at run time copy them. It reports
// whole regions to a TraceObserver. Whatever the micro-ops do not cover —
// block terminators, single steps, the rare operand shape without a native
// micro-op — runs on the generic loop's own executor.
//
// Observer calls return nothing to the interpreter, so the dispatch loop
// decouples the two: it appends each observation (Retire, ObserveBlock,
// RegisterTrace, ObserveTrace, ObserveTraceExit) as a compact record to
// the current batch, and a second goroutine replays full batches into the
// observer (stream.go). The observation stream guarantees:
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
// generic loop calls its observer directly.
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
	// MemPenalty is the extra cycles charged by the cache model for this
	// instruction's data references.
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

	// code is the program's block micro-ops (see block.go), compiled
	// lazily on the first dispatch-loop Run and shared by CPUs built with
	// NewWithCode.
	code *Code
	// Generic forces the decode-per-step interpreter. It exists for
	// differential testing: the dispatch loop and the generic one must
	// produce identical registers, memory, events and faults.
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

	gpr [8]uint32
	mm  [8]mmx.Reg
	fp  [8]float64

	zf, sf, cf, of bool

	pc        int
	halted    bool
	measuring bool
	mmxActive bool

	// Hier is the data-cache hierarchy; nil models perfect memory.
	Hier *mem.Hierarchy
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

// SetGPR sets a general-purpose register.
func (c *CPU) SetGPR(r isa.Reg, v uint32) { c.gpr[r.GPRIndex()] = v }

// MM returns the value of an MMX register.
func (c *CPU) MM(r isa.Reg) mmx.Reg { return c.mm[r.MMXIndex()] }

// FPReg returns the value of a floating-point register.
func (c *CPU) FPReg(r isa.Reg) float64 { return c.fp[r.FPIndex()] }

// Executed returns the number of retired instructions (including pseudo).
// After a fault it counts every instruction through the faulting one, on
// every interpreter path; after an aborted or budget-exhausted run, every
// instruction that retired.
func (c *CPU) Executed() int64 { return c.executed }

// Halted reports whether the program executed HALT.
func (c *CPU) Halted() bool { return c.halted }

// budgetFault produces the budget-exhaustion error, formatted like a
// fault but wrapping ErrBudget so callers can classify it. Both
// interpreters raise it through here, keeping the text identical across
// modes (the dispatch-equivalence tests compare error strings).
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
// those runs take the generic decode-per-step loop, which retires one
// event per instruction.
func (c *CPU) Run(maxInstrs int64) error {
	tobs, regions := c.Obs.(TraceObserver)
	if c.Generic || (c.Obs != nil && !regions) {
		return c.runGeneric(maxInstrs)
	}
	if c.code == nil {
		c.code = Compile(c.Prog)
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
	c.st = startStream(tobs, c.Prog.Insts)
	defer func() {
		s := c.st
		c.st = nil
		s.close(recover())
	}()
	return c.runTrace(maxInstrs)
}

// runGeneric is the decode-per-step loop: the reference semantics for the
// dispatch loop, and the interpreter of plain per-event observers.
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

// step retires the instruction at c.pc (which must be in range) on the
// generic executor. It reports whether the instruction emits an event,
// which it then leaves in ev.
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
	if err := c.exec(in, ev); err != nil {
		return false, err
	}
	if !ev.Taken {
		c.pc++
	}
	ev.Target = c.pc
	return true, nil
}

// exec is the generic executor: it performs one event-emitting
// instruction, setting ev.Taken and ev.MemPenalty as needed. Every path
// that is not a native micro-op ends here.
func (c *CPU) exec(in *isa.Inst, ev *Event) error {
	switch {
	case in.Op.IsMMX():
		return c.execMMX(in, ev)
	case in.Op.IsFP():
		return c.execFP(in, ev)
	default:
		return c.execInt(in, ev)
	}
}

// ---------------------------------------------------------------------------
// Addressing and operand access

func (c *CPU) effAddr(o isa.Operand) uint32 {
	a := uint32(o.Disp)
	if o.Reg != isa.NoReg {
		a += c.gpr[o.Reg.GPRIndex()]
	}
	if o.Index != isa.NoReg {
		s := uint32(o.Scale)
		if s == 0 {
			s = 1
		}
		a += c.gpr[o.Index.GPRIndex()] * s
	}
	return a
}

func (c *CPU) chargeAccess(addr uint32, ev *Event) {
	ev.MemPenalty += c.Hier.Access(addr)
}

// loadSized reads a zero-extended value of the operand's size.
func (c *CPU) loadSized(o isa.Operand, ev *Event) (uint32, error) {
	addr := c.effAddr(o)
	c.chargeAccess(addr, ev)
	switch o.Size {
	case isa.SizeB:
		v, ok := c.Mem.LoadU8(addr)
		if !ok {
			return 0, c.fault("load byte out of range at %#x", addr)
		}
		return uint32(v), nil
	case isa.SizeW:
		v, ok := c.Mem.LoadU16(addr)
		if !ok {
			return 0, c.fault("load word out of range at %#x", addr)
		}
		return uint32(v), nil
	case isa.SizeD, isa.SizeNone:
		v, ok := c.Mem.LoadU32(addr)
		if !ok {
			return 0, c.fault("load dword out of range at %#x", addr)
		}
		return v, nil
	}
	return 0, c.fault("bad load size %v", o.Size)
}

func (c *CPU) storeSized(o isa.Operand, v uint32, ev *Event) error {
	addr := c.effAddr(o)
	c.chargeAccess(addr, ev)
	var ok bool
	switch o.Size {
	case isa.SizeB:
		ok = c.Mem.StoreU8(addr, uint8(v))
	case isa.SizeW:
		ok = c.Mem.StoreU16(addr, uint16(v))
	case isa.SizeD, isa.SizeNone:
		ok = c.Mem.StoreU32(addr, v)
	default:
		return c.fault("bad store size %v", o.Size)
	}
	if !ok {
		return c.fault("store out of range at %#x", addr)
	}
	return nil
}

// readInt reads an integer operand value (register, immediate or memory).
func (c *CPU) readInt(o isa.Operand, ev *Event) (uint32, error) {
	switch o.Kind {
	case isa.KindReg:
		if !o.Reg.IsGPR() {
			return 0, c.fault("integer read of non-GPR %s", o.Reg)
		}
		return c.gpr[o.Reg.GPRIndex()], nil
	case isa.KindImm:
		return uint32(o.Imm), nil
	case isa.KindMem:
		return c.loadSized(o, ev)
	}
	return 0, c.fault("missing operand")
}

// writeInt writes an integer result to a register or memory destination.
func (c *CPU) writeInt(o isa.Operand, v uint32, ev *Event) error {
	switch o.Kind {
	case isa.KindReg:
		if !o.Reg.IsGPR() {
			return c.fault("integer write to non-GPR %s", o.Reg)
		}
		c.gpr[o.Reg.GPRIndex()] = v
		return nil
	case isa.KindMem:
		return c.storeSized(o, v, ev)
	}
	return c.fault("bad destination operand")
}

// ---------------------------------------------------------------------------
// Flags

func (c *CPU) setZS(v uint32) {
	c.zf = v == 0
	c.sf = int32(v) < 0
}

func (c *CPU) setAdd(a, b, r uint32) {
	c.setZS(r)
	c.cf = r < a
	c.of = (a^r)&(b^r)&0x80000000 != 0
}

func (c *CPU) setSub(a, b, r uint32) {
	c.setZS(r)
	c.cf = a < b
	c.of = (a^b)&(a^r)&0x80000000 != 0
}

func (c *CPU) setLogic(r uint32) {
	c.setZS(r)
	c.cf = false
	c.of = false
}

func (c *CPU) cond(op isa.Op) bool {
	switch op {
	case isa.JE:
		return c.zf
	case isa.JNE:
		return !c.zf
	case isa.JL:
		return c.sf != c.of
	case isa.JLE:
		return c.zf || c.sf != c.of
	case isa.JG:
		return !c.zf && c.sf == c.of
	case isa.JGE:
		return c.sf == c.of
	case isa.JB:
		return c.cf
	case isa.JBE:
		return c.cf || c.zf
	case isa.JA:
		return !c.cf && !c.zf
	case isa.JAE:
		return !c.cf
	case isa.JS:
		return c.sf
	case isa.JNS:
		return !c.sf
	}
	return false
}

// ---------------------------------------------------------------------------
// Stack

func (c *CPU) push32(v uint32, ev *Event) error {
	sp := c.gpr[isa.ESP.GPRIndex()] - 4
	c.gpr[isa.ESP.GPRIndex()] = sp
	c.chargeAccess(sp, ev)
	if !c.Mem.StoreU32(sp, v) {
		return c.fault("stack overflow at %#x", sp)
	}
	return nil
}

func (c *CPU) pop32(ev *Event) (uint32, error) {
	sp := c.gpr[isa.ESP.GPRIndex()]
	c.chargeAccess(sp, ev)
	v, ok := c.Mem.LoadU32(sp)
	if !ok {
		return 0, c.fault("stack underflow at %#x", sp)
	}
	c.gpr[isa.ESP.GPRIndex()] = sp + 4
	return v, nil
}
