package vm_test

// Tests for the observation stream of trace dispatch (stream.go): every
// record kind crossing a handoff leaves reports byte-identical, Run returns
// with the observer complete on every exit path and no consumer goroutine
// left behind, and an observer panic reaches the caller's goroutine.

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/core"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/mem"
	"mmxdsp/internal/pentium"
	"mmxdsp/internal/profile"
	"mmxdsp/internal/suite"
	"mmxdsp/internal/vm"
)

var dispatchModes = []string{"generic", "block", "trace"}

// TestStreamBatchSizesAgree shrinks the batch to 1 and 3 records, so that
// every record kind (Retire, ObserveBlock, RegisterTrace, ObserveTrace,
// ObserveTraceExit) crosses a handoff, and pins every suite program, with
// trace formation on and off, to its default-batch machine state and
// report. (The generic loop calls the observer directly; its event-stream
// hash is pinned against the dispatch loop by TestDispatchModesAgree.)
func TestStreamBatchSizesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite differential run is slow; skipped with -short")
	}
	progs := suite.All()
	modes := []string{"trace", "block"}
	want := make([][]*runOutcome, len(progs))
	// Each batch size is one group of parallel subtests; the size is set
	// for the group and restored once all of its subtests are done.
	for _, n := range []int{0, 1, 3} {
		t.Run(fmt.Sprintf("batch%d", n), func(t *testing.T) {
			if n > 0 {
				t.Cleanup(vm.SetStreamBatch(n))
			}
			for i, b := range progs {
				t.Run(b.Name(), func(t *testing.T) {
					t.Parallel()
					prog, err := b.Build()
					if err != nil {
						t.Fatalf("build: %v", err)
					}
					for m, mode := range modes {
						got := runPath(t, prog, mode)
						if n == 0 {
							want[i] = append(want[i], got)
							continue
						}
						compareOutcomes(t, mode+" default", want[i][m], fmt.Sprintf("%s batch%d", mode, n), got)
					}
				})
			}
		})
	}
}

// rmwWalkProg strides through 8 KiB with read-modify-writes, pushes and
// pops of memory: the instructions with two data references each, whose
// penalties the stream folds into one. Most of them stage an operand
// through a temporary micro-op inside block and trace bodies.
func rmwWalkProg() *asm.Program {
	b := asm.NewBuilder("rmwwalk")
	b.Dwords("buf", make([]int32, 2048))
	b.I(isa.MOV, asm.R(isa.EDX), asm.Imm(8))
	b.Label("outer")
	b.I(isa.MOV, asm.R(isa.ESI), asm.ImmSym("buf", 0))
	b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(2048/4-1))
	b.Label("loop")
	b.I(isa.ADD, asm.MemD(isa.ESI, 0), asm.R(isa.ECX))
	b.I(isa.SUB, asm.MemW(isa.ESI, 2), asm.Imm(3))
	b.I(isa.PUSH, asm.MemD(isa.ESI, 4))
	b.I(isa.POP, asm.MemD(isa.ESI, 12))
	b.I(isa.FST, asm.MemQ(isa.ESI, 0), asm.R(isa.FP0))
	b.I(isa.NOT, asm.MemD(isa.ESI, 8))
	b.I(isa.SHR, asm.MemB(isa.ESI, 9), asm.Imm(1))
	b.I(isa.ADD, asm.R(isa.ESI), asm.Imm(16))
	b.I(isa.SUB, asm.R(isa.ECX), asm.Imm(1))
	b.J(isa.JNE, "loop")
	b.I(isa.SUB, asm.R(isa.EDX), asm.Imm(1))
	b.J(isa.JNE, "outer")
	b.I(isa.HALT)
	return b.MustLink()
}

// TestStreamSmallCacheModesAgree reruns part of the suite, and a program
// of two-reference instructions, on a 1 KiB L1 and an 8 KiB L2, where
// misses are common (the default hierarchy misses on about 2% of the
// suite's references), at batch sizes 1, 3 and the default, with trace
// formation off and on, against the per-instruction loop. The stream's consumer
// prices every reference, so an address delivered out of order, dropped,
// or folded into the wrong instruction moves the cache statistics, the
// cycles or both. The L1 is 2-way, where hits in a set's second way take
// the inline probe's swap, and direct-mapped, where that probe must stay
// off: the streamed Price and the per-instruction loop's Access share it.
func TestStreamSmallCacheModesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-program differential run is slow; skipped with -short")
	}
	progs := []*asm.Program{rmwWalkProg()}
	for _, name := range []string{"iir.mmx", "matvec.mmx", "sad.mmx"} {
		b, ok := suite.ByName(name)
		if !ok {
			t.Fatalf("unknown program %s", name)
		}
		prog, err := b.Build()
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		progs = append(progs, prog)
	}
	for _, l1Ways := range []int{2, 1} {
		spec := core.DefaultCacheSpec()
		spec.L1Size, spec.L1Ways = 1<<10, l1Ways
		spec.L2Size, spec.L2Ways = 8<<10, 2
		hier := func() *mem.Hierarchy {
			h, err := spec.Hierarchy()
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
		var refs, misses uint64
		for _, prog := range progs {
			code := vm.Compile(prog)
			gen, err := runModeHier(prog, code, "generic", hier())
			if err != nil {
				t.Fatal(err)
			}
			refs += gen.report.CacheAccesses
			misses += gen.report.L1Misses
			for _, n := range []int{1, 3, 0} {
				restore := func() {}
				if n > 0 {
					restore = vm.SetStreamBatch(n)
				}
				for _, mode := range []string{"block", "trace"} {
					got, err := runModeHier(prog, code, mode, hier())
					if err != nil {
						t.Fatal(err)
					}
					compareOutcomes(t, fmt.Sprintf("%s generic L1 %d-way", prog.Name, l1Ways), gen,
						fmt.Sprintf("%s %s batch%d L1 %d-way", prog.Name, mode, n, l1Ways), got)
				}
				restore()
			}
		}
		if misses*20 < refs {
			t.Errorf("L1 %d-way: %d L1 misses in %d references: the cache is too large to test pricing order", l1Ways, misses, refs)
		}
	}
}

// TestStreamPartialBudgetReports pins reports of budget-stopped runs
// (core.Options.PartialOnBudget) to the digests the synchronous observer
// produced before the stream existed: the tail of a run cut by its budget
// must reach the observer in full, at every dispatch mode and batch size.
func TestStreamPartialBudgetReports(t *testing.T) {
	pins := []struct {
		prog   string
		budget int64
		digest string // leading hex of sha256(json(Report))
	}{
		{"fir.mmx", 40009, "ec0f7520efc5946f"},
		{"fir.mmx", 250007, "0886b2a0863e67ea"},
		{"fft.fp", 40009, "e2b51e9aaf597477"},
		{"fft.fp", 250007, "7503654ac80b71b9"},
		{"jpeg.c", 40009, "3f3478b4fd823d4e"},
		{"jpeg.c", 250007, "0dc0367ee0215ea8"},
		{"g722.mmx", 40009, "485bd7df4366fee4"},
		{"g722.mmx", 250007, "4562c1e96a2d7d75"},
		{"radar.c", 40009, "5e68b4d460534513"},
		{"radar.c", 250007, "81935bdd2b0bd9e9"},
	}
	for _, n := range []int{1, 3, 1024} {
		restore := vm.SetStreamBatch(n)
		for _, p := range pins {
			b, ok := suite.ByName(p.prog)
			if !ok {
				t.Fatalf("unknown program %s", p.prog)
			}
			comp, err := core.CompileBenchmark(b)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range dispatchModes {
				opt := core.DefaultOptions()
				opt.Dispatch = mode
				opt.MaxInstrs = p.budget
				opt.PartialOnBudget = true
				res, err := core.RunCompiled(comp, opt)
				if err != nil {
					t.Fatalf("%s/%s: %v", p.prog, mode, err)
				}
				js, err := json.Marshal(res.Report)
				if err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("%x", sha256.Sum256(js))[:len(p.digest)]
				if !res.BudgetExhausted || got != p.digest {
					t.Errorf("%s budget %d %s batch %d: exhausted %v digest %s, want %s",
						p.prog, p.budget, mode, n, res.BudgetExhausted, got, p.digest)
				}
			}
		}
		restore()
	}
}

// panicAt is a collector that panics on its nth ObserveTrace.
type panicAt struct {
	*profile.Collector
	n, at int
}

func (p *panicAt) ObserveTrace(id int, measured bool, penalties []int32) {
	p.n++
	if p.n == p.at {
		panic(errObserver)
	}
	p.Collector.ObserveTrace(id, measured, penalties)
}

var errObserver = errors.New("observer exploded")

// newCollector binds a timing model and collector to the CPU's program.
func newCollector(cpu *vm.CPU) *profile.Collector {
	model := pentium.New(pentium.DefaultConfig())
	model.Bind(cpu.Prog)
	return profile.NewCollector(cpu.Prog, model)
}

// runRecovering runs cpu and returns its error and any panic Run raised,
// recovered here on the caller's goroutine.
func runRecovering(cpu *vm.CPU, budget int64) (err error, pval any) {
	defer func() { pval = recover() }()
	return cpu.Run(budget), nil
}

// settleGoroutines waits for the goroutine count to return to base; a
// consumer that has closed its done channel may take a moment to exit.
func settleGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines after Run, %d before\n%s",
				what, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamObserverPanic: an observer panicking on its nth ObserveTrace
// makes Run panic on the caller's goroutine with that value, whether the
// producer learns of it at a handoff or only at the final join.
func TestStreamObserverPanic(t *testing.T) {
	full := vm.NewWithCode(vm.Compile(traceTreeProg(600)))
	full.Traces = true
	if err := full.Run(1 << 24); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3, 1024} {
		for _, at := range []int{1, 50, 2000} {
			restore := vm.SetStreamBatch(n)
			base := runtime.NumGoroutine()
			cpu := vm.NewWithCode(vm.Compile(traceTreeProg(600)))
			cpu.Traces = true
			cpu.Hier = mem.NewHierarchy()
			cpu.Obs = &panicAt{Collector: newCollector(cpu), at: at}
			err, pval := runRecovering(cpu, 1<<24)
			if pval != errObserver {
				t.Errorf("batch %d, panic at %d: Run returned %v, panicked with %v; want panic %v",
					n, at, err, pval, errObserver)
			}
			if n == 1 && cpu.Executed() >= full.Executed() {
				t.Errorf("batch 1, panic at %d: the interpreter ran to the end (%d instructions) instead of stopping at a handoff",
					at, cpu.Executed())
			}
			settleGoroutines(t, fmt.Sprintf("batch %d, panic at %d", n, at), base)
			restore()
		}
	}
}

// walkOffProg sums memory upwards from its data until a load leaves the
// address space: a fault after a long, trace-resident run.
func walkOffProg() *asm.Program {
	b := asm.NewBuilder("walkoff")
	b.Dwords("data", make([]int32, 16))
	b.I(isa.MOV, asm.R(isa.ESI), asm.ImmSym("data", 0))
	b.Label("loop")
	b.I(isa.MOV, asm.R(isa.EBX), asm.MemD(isa.ESI, 0))
	b.I(isa.ADD, asm.R(isa.EAX), asm.R(isa.EBX))
	b.I(isa.ADD, asm.R(isa.ESI), asm.Imm(4))
	b.J(isa.JMP, "loop")
	return b.MustLink()
}

// TestStreamExitPathsJoinConsumer: budget exhaustion, a Poll abort, a fault
// and a panic on the producer side each return (or re-panic) with the
// consumer goroutine gone, with trace formation on and off.
func TestStreamExitPathsJoinConsumer(t *testing.T) {
	errStop := errors.New("stop")
	cases := []struct {
		name  string
		setup func(cpu *vm.CPU) int64 // returns the budget; nil runs walkOffProg
		check func(err error, pval any) bool
	}{
		{"budget", func(*vm.CPU) int64 { return 30_001 },
			func(err error, pval any) bool { return errors.Is(err, vm.ErrBudget) && pval == nil }},
		{"poll", func(cpu *vm.CPU) int64 {
			cpu.PollEvery = 1000
			cpu.Poll = func() error {
				if cpu.Executed() > 20_000 {
					return errStop
				}
				return nil
			}
			return 1 << 24
		}, func(err error, pval any) bool { return errors.Is(err, errStop) && pval == nil }},
		{"fault", nil, func(err error, pval any) bool {
			return err != nil && strings.Contains(err.Error(), "out of range") && pval == nil
		}},
		{"producer-panic", func(cpu *vm.CPU) int64 {
			cpu.PollEvery = 1000
			cpu.Poll = func() error {
				if cpu.Executed() > 20_000 {
					panic(errStop)
				}
				return nil
			}
			return 1 << 24
		}, func(err error, pval any) bool { return pval == errStop }},
	}
	for _, traces := range []bool{true, false} {
		for _, tc := range cases {
			name := fmt.Sprintf("%s traces=%v", tc.name, traces)
			base := runtime.NumGoroutine()
			prog, budget := traceLoopProg(), int64(1<<24)
			if tc.setup == nil {
				prog = walkOffProg()
			}
			cpu := vm.NewWithCode(vm.Compile(prog))
			cpu.Traces = traces
			cpu.Hier = mem.NewHierarchy()
			cpu.Obs = newCollector(cpu)
			if tc.setup != nil {
				budget = tc.setup(cpu)
			}
			err, pval := runRecovering(cpu, budget)
			if !tc.check(err, pval) {
				t.Errorf("%s: Run returned %v, panicked with %v", name, err, pval)
			}
			if st := cpu.TraceStats(); cpu.Executed() < 10_000 || (st.Iters == 0) == traces {
				t.Errorf("%s: stopped after %d instructions, %d trace iterations, before the stream got going",
					name, cpu.Executed(), st.Iters)
			}
			settleGoroutines(t, name, base)
		}
	}
}

// profFlipProg runs one trace loop 48 times per pass over 24 passes, each
// pass switching profiling on or off: runs of identical iterations that
// cross handoffs at small batch sizes, measured and unmeasured by turns.
func profFlipProg() *asm.Program {
	b := asm.NewBuilder("profflip")
	b.Dwords("data", make([]int32, 64))
	b.I(isa.MOV, asm.R(isa.EDX), asm.Imm(24))
	b.Label("outer")
	b.I(isa.MOV, asm.R(isa.EAX), asm.R(isa.EDX))
	b.I(isa.AND, asm.R(isa.EAX), asm.Imm(1))
	b.J(isa.JNE, "on")
	b.I(isa.PROFOFF)
	b.J(isa.JMP, "body")
	b.Label("on")
	b.I(isa.PROFON)
	b.Label("body")
	b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(48))
	b.I(isa.MOV, asm.R(isa.ESI), asm.ImmSym("data", 0))
	b.Label("loop")
	b.I(isa.MOV, asm.R(isa.EBX), asm.MemD(isa.ESI, 0))
	b.I(isa.ADD, asm.MemD(isa.ESI, 4), asm.R(isa.EBX))
	b.I(isa.ADD, asm.R(isa.ESI), asm.Imm(4))
	b.I(isa.SUB, asm.R(isa.ECX), asm.Imm(1))
	b.J(isa.JNE, "loop")
	b.I(isa.SUB, asm.R(isa.EDX), asm.Imm(1))
	b.J(isa.JNE, "outer")
	b.I(isa.HALT)
	return b.MustLink()
}

// TestStreamTraceRunsAgree pins trace dispatch, whose stream carries a run
// of identical trace iterations as one record, to the per-instruction
// loop at batch sizes where the runs cross handoffs: registers, memory,
// the report and the cache statistics must all agree. (How records split
// is TestStreamCountsTraceRuns's.)
func TestStreamTraceRunsAgree(t *testing.T) {
	prog := profFlipProg()
	gen := runPath(t, prog, "generic")
	if gen.report.Cycles == 0 || gen.traces.Iters != 0 {
		t.Fatalf("per-instruction loop: %d cycles, %d trace iterations", gen.report.Cycles, gen.traces.Iters)
	}
	for _, n := range []int{1, 2, 3, 7, 0} {
		restore := func() {}
		if n > 0 {
			restore = vm.SetStreamBatch(n)
		}
		got := runPath(t, prog, "trace")
		if got.traces.Iters < 24*40 {
			t.Errorf("batch %d: %d trace iterations, want most of the loop's", n, got.traces.Iters)
		}
		compareOutcomes(t, "generic", gen, fmt.Sprintf("trace batch%d", n), got)
		restore()
	}
}
