package vm_test

// Trace-dispatch behavior tests: superblock formation and residency, exact
// instruction-budget accounting, mid-superblock cancellation with correct
// architectural state, and trace-tree growth when the recorded path goes
// cold or a guard stays biased. The byte-identity of trace-mode *reports*
// is covered by the four-way differentials (equivalence_test.go here,
// threeway_test.go in pentium); these tests pin the dispatcher's control
// surface.

import (
	"bytes"
	"errors"
	"testing"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/vm"
)

// traceLoopProg is a nested counted loop (inner trip 64, outer 256) whose
// body is plain ALU/memory work — the shape the trace dispatcher fuses into
// a single-loop superblock.
func traceLoopProg() *asm.Program {
	b := asm.NewBuilder("traceloop")
	b.Dwords("data", make([]int32, 64))
	b.I(isa.MOV, asm.R(isa.EDX), asm.Imm(256))
	b.Label("outer")
	b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(64))
	b.I(isa.MOV, asm.R(isa.ESI), asm.ImmSym("data", 0))
	b.Label("loop")
	b.I(isa.MOV, asm.R(isa.EBX), asm.MemD(isa.ESI, 0))
	b.I(isa.ADD, asm.R(isa.EAX), asm.R(isa.EBX))
	b.I(isa.ADD, asm.MemD(isa.ESI, 0), asm.Imm(3))
	b.I(isa.ADD, asm.R(isa.ESI), asm.Imm(4))
	b.I(isa.SUB, asm.R(isa.ECX), asm.Imm(1))
	b.J(isa.JNE, "loop")
	b.I(isa.SUB, asm.R(isa.EDX), asm.Imm(1))
	b.J(isa.JNE, "outer")
	b.I(isa.HALT)
	return b.MustLink()
}

// TestTraceFormationAndResidency checks that the dispatcher actually forms
// a superblock on a hot loop and retires the bulk of the run inside it.
func TestTraceFormationAndResidency(t *testing.T) {
	c := vm.NewWithCode(vm.Compile(traceLoopProg()))
	c.Traces = true
	if err := c.Run(1 << 24); err != nil {
		t.Fatal(err)
	}
	st := c.TraceStats()
	if st.Formed == 0 {
		t.Fatalf("no traces formed: %+v", st)
	}
	if st.Iters == 0 {
		t.Fatalf("traces formed but never iterated: %+v", st)
	}
	if resident := float64(st.TraceInstrs) / float64(c.Executed()); resident < 0.5 {
		t.Errorf("trace residency %.1f%% (stats %+v), want > 50%%", 100*resident, st)
	}
}

// TestTraceBudgetExact checks that an instruction budget expiring mid-loop
// faults on exactly the same instruction, with the same message and
// architectural state, as the per-instruction loop: the dispatcher must hand
// back to single-stepping before a superblock iteration would overrun.
func TestTraceBudgetExact(t *testing.T) {
	// 10_007 lands mid-iteration of the inner loop (8 instrs per trip).
	const budget = 10_007

	gen := vm.New(traceLoopProg())
	gen.Generic = true
	genErr := gen.Run(budget)

	trc := vm.NewWithCode(vm.Compile(traceLoopProg()))
	trc.Traces = true
	trcErr := trc.Run(budget)

	if genErr == nil || trcErr == nil {
		t.Fatalf("both runs must exhaust the budget: generic %v, trace %v", genErr, trcErr)
	}
	if genErr.Error() != trcErr.Error() {
		t.Errorf("budget fault differs:\n generic: %v\n trace:   %v", genErr, trcErr)
	}
	if gen.Executed() != trc.Executed() {
		t.Errorf("executed at fault: generic %d, trace %d", gen.Executed(), trc.Executed())
	}
	if st := trc.TraceStats(); st.Iters == 0 {
		t.Errorf("budget run never entered a trace: %+v", st)
	}
	compareMachineState(t, gen, trc)
}

// TestTracePollCancellation cancels a run from the poll hook while the CPU
// is executing inside a superblock (registers live in interpreter locals)
// and checks the abort spills a consistent architectural state: re-running
// the program on the per-instruction loop up to the same retired count must
// reproduce the registers and memory image exactly.
func TestTracePollCancellation(t *testing.T) {
	errCancel := errors.New("cancelled")

	trc := vm.NewWithCode(vm.Compile(traceLoopProg()))
	trc.Traces = true
	trc.PollEvery = 64 // poll at superblock iteration boundaries
	trc.Poll = func() error {
		if trc.Executed() >= 5000 {
			return errCancel
		}
		return nil
	}
	err := trc.Run(1 << 24)
	if !errors.Is(err, errCancel) {
		t.Fatalf("trace run: got %v, want wrapped errCancel", err)
	}
	if st := trc.TraceStats(); st.Iters == 0 {
		t.Fatalf("cancelled run never entered a trace: %+v", st)
	}
	stopped := trc.Executed()
	if stopped < 5000 {
		t.Fatalf("aborted after %d instructions, before the cancellation point", stopped)
	}

	gen := vm.New(traceLoopProg())
	gen.Generic = true
	gen.PollEvery = 1
	gen.Poll = func() error {
		if gen.Executed() >= stopped {
			return errCancel
		}
		return nil
	}
	if err := gen.Run(1 << 24); !errors.Is(err, errCancel) {
		t.Fatalf("generic run: got %v, want wrapped errCancel", err)
	}
	if gen.Executed() != stopped {
		t.Fatalf("generic stopped at %d, trace at %d", gen.Executed(), stopped)
	}
	compareMachineState(t, gen, trc)
}

// TestTracePhaseChange drives a loop through a phase change: a
// flag-controlled branch goes one way long enough for a superblock to form,
// then permanently flips, turning every root-path entry into a side exit.
// The formed trace stays; its guard grows the new path as a tree child that
// iterations then complete through, and the final machine state must still
// match the generic interpreter.
func TestTracePhaseChange(t *testing.T) {
	build := func() *asm.Program {
		b := asm.NewBuilder("phase")
		b.Dwords("data", make([]int32, 64))
		b.Dwords("flag", []int32{0})
		b.I(isa.MOV, asm.R(isa.EDX), asm.Imm(300))
		b.Label("outer")
		b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(8))
		b.I(isa.MOV, asm.R(isa.ESI), asm.ImmSym("data", 0))
		b.Label("loop")
		b.I(isa.MOV, asm.R(isa.EAX), asm.Sym(isa.SizeD, "flag", 0))
		b.I(isa.CMP, asm.R(isa.EAX), asm.Imm(0))
		b.J(isa.JNE, "alt")
		b.I(isa.ADD, asm.MemD(isa.ESI, 0), asm.Imm(1))
		b.J(isa.JMP, "join")
		b.Label("alt")
		b.I(isa.ADD, asm.MemD(isa.ESI, 0), asm.Imm(2))
		b.Label("join")
		b.I(isa.ADD, asm.R(isa.ESI), asm.Imm(4))
		b.I(isa.SUB, asm.R(isa.ECX), asm.Imm(1))
		b.J(isa.JNE, "loop")
		b.I(isa.SUB, asm.R(isa.EDX), asm.Imm(1))
		// Flip the flag once, 20 passes in (EDX counts down from 300).
		b.I(isa.CMP, asm.R(isa.EDX), asm.Imm(280))
		b.J(isa.JNE, "noflip")
		b.I(isa.MOV, asm.Sym(isa.SizeD, "flag", 0), asm.Imm(1))
		b.Label("noflip")
		b.I(isa.CMP, asm.R(isa.EDX), asm.Imm(0))
		b.J(isa.JNE, "outer")
		b.I(isa.HALT)
		return b.MustLink()
	}

	trc := vm.NewWithCode(vm.Compile(build()))
	trc.Traces = true
	trc.TraceThreshold = 4
	if err := trc.Run(1 << 24); err != nil {
		t.Fatal(err)
	}
	st := trc.TraceStats()
	if st.TreeIters == 0 {
		t.Errorf("phase change should complete iterations via a tree child: stats %+v", st)
	}
	if st.Exits == 0 {
		t.Errorf("phase change should side-exit: stats %+v", st)
	}

	gen := vm.New(build())
	gen.Generic = true
	if err := gen.Run(1 << 24); err != nil {
		t.Fatal(err)
	}
	if gen.Executed() != trc.Executed() {
		t.Errorf("executed: generic %d, trace %d", gen.Executed(), trc.Executed())
	}
	compareMachineState(t, gen, trc)
}

// traceTreeProg is a nested loop whose inner body takes a rare arm on every
// eighth iteration — the biased-branch shape that makes a superblock's
// guard fail persistently, so the dispatcher grows the alternate path as a
// trace-tree child.
func traceTreeProg(outer int) *asm.Program {
	b := asm.NewBuilder("tracetree")
	b.Dwords("data", make([]int32, 64))
	b.I(isa.MOV, asm.R(isa.EDX), asm.Imm(int64(outer)))
	b.Label("outer")
	b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(64))
	b.I(isa.MOV, asm.R(isa.ESI), asm.ImmSym("data", 0))
	b.Label("loop")
	b.I(isa.MOV, asm.R(isa.EAX), asm.R(isa.ECX))
	b.I(isa.AND, asm.R(isa.EAX), asm.Imm(7))
	b.J(isa.JNE, "common")
	b.I(isa.ADD, asm.MemD(isa.ESI, 0), asm.Imm(5)) // rare arm, 1 in 8
	b.J(isa.JMP, "join")
	b.Label("common")
	b.I(isa.ADD, asm.MemD(isa.ESI, 0), asm.Imm(1))
	b.Label("join")
	b.I(isa.ADD, asm.R(isa.ESI), asm.Imm(4))
	b.I(isa.SUB, asm.R(isa.ECX), asm.Imm(1))
	b.J(isa.JNE, "loop")
	b.I(isa.SUB, asm.R(isa.EDX), asm.Imm(1))
	b.J(isa.JNE, "outer")
	b.I(isa.HALT)
	return b.MustLink()
}

// TestTraceTreeGrowth checks that a biased guard grows a child path, that
// iterations then complete through the tree, and that the final machine
// state still matches the per-instruction loop.
func TestTraceTreeGrowth(t *testing.T) {
	trc := vm.NewWithCode(vm.Compile(traceTreeProg(256)))
	trc.Traces = true
	trc.TraceThreshold = 4
	if err := trc.Run(1 << 24); err != nil {
		t.Fatal(err)
	}
	st := trc.TraceStats()
	if st.TreeNodes == 0 {
		t.Fatalf("biased guard grew no tree: %+v", st)
	}
	if st.TreeIters == 0 {
		t.Fatalf("tree grew but no iteration completed via a child path: %+v", st)
	}

	gen := vm.New(traceTreeProg(256))
	gen.Generic = true
	if err := gen.Run(1 << 24); err != nil {
		t.Fatal(err)
	}
	if gen.Executed() != trc.Executed() {
		t.Errorf("executed: generic %d, trace %d", gen.Executed(), trc.Executed())
	}
	compareMachineState(t, gen, trc)
}

// TestTraceTreeBudgetExact exhausts the instruction budget while the hot
// loop is running inside a grown trace tree: the fault must land on exactly
// the same instruction, with the same message and architectural state, as
// the per-instruction loop — forks must not enter a child path whose whole
// iteration would overrun.
func TestTraceTreeBudgetExact(t *testing.T) {
	// Deep inside tree execution (the tree grows within the first ~2k
	// instructions at threshold 4), landing mid-iteration.
	const budget = 100_003

	gen := vm.New(traceTreeProg(256))
	gen.Generic = true
	genErr := gen.Run(budget)

	trc := vm.NewWithCode(vm.Compile(traceTreeProg(256)))
	trc.Traces = true
	trc.TraceThreshold = 4
	trcErr := trc.Run(budget)

	if genErr == nil || trcErr == nil {
		t.Fatalf("both runs must exhaust the budget: generic %v, trace %v", genErr, trcErr)
	}
	if genErr.Error() != trcErr.Error() {
		t.Errorf("budget fault differs:\n generic: %v\n trace:   %v", genErr, trcErr)
	}
	if gen.Executed() != trc.Executed() {
		t.Errorf("executed at fault: generic %d, trace %d", gen.Executed(), trc.Executed())
	}
	if st := trc.TraceStats(); st.TreeIters == 0 {
		t.Errorf("budget run never completed a child-path iteration: %+v", st)
	}
	compareMachineState(t, gen, trc)
}

// TestTraceTreePollCancellation cancels a run while iterations are
// completing through trace-tree child paths (registers live in interpreter
// locals across forks) and checks the abort spills a consistent
// architectural state: the per-instruction loop stopped at the same retired
// count must reproduce registers and memory exactly.
func TestTraceTreePollCancellation(t *testing.T) {
	errCancel := errors.New("cancelled")

	trc := vm.NewWithCode(vm.Compile(traceTreeProg(256)))
	trc.Traces = true
	trc.TraceThreshold = 4
	trc.PollEvery = 64
	trc.Poll = func() error {
		if trc.Executed() >= 50_000 {
			return errCancel
		}
		return nil
	}
	if err := trc.Run(1 << 24); !errors.Is(err, errCancel) {
		t.Fatalf("trace run: got %v, want wrapped errCancel", err)
	}
	if st := trc.TraceStats(); st.TreeIters == 0 {
		t.Fatalf("cancelled run never completed a child-path iteration: %+v", st)
	}
	stopped := trc.Executed()

	gen := vm.New(traceTreeProg(256))
	gen.Generic = true
	gen.PollEvery = 1
	gen.Poll = func() error {
		if gen.Executed() >= stopped {
			return errCancel
		}
		return nil
	}
	if err := gen.Run(1 << 24); !errors.Is(err, errCancel) {
		t.Fatalf("generic run: got %v, want wrapped errCancel", err)
	}
	if gen.Executed() != stopped {
		t.Fatalf("generic stopped at %d, trace at %d", gen.Executed(), stopped)
	}
	compareMachineState(t, gen, trc)
}

// TestTraceTreeGuardFlapping drives a guard that flips direction every
// outer pass: whole passes go one way, then the other, so neither arm ever
// goes cold. The tree absorbs the alternate arm, and the final state must
// match the generic interpreter.
func TestTraceTreeGuardFlapping(t *testing.T) {
	build := func() *asm.Program {
		b := asm.NewBuilder("flap")
		b.Dwords("data", make([]int32, 64))
		b.Dwords("flag", []int32{0})
		b.I(isa.MOV, asm.R(isa.EDX), asm.Imm(200))
		b.Label("outer")
		b.I(isa.MOV, asm.R(isa.EAX), asm.Sym(isa.SizeD, "flag", 0))
		b.I(isa.XOR, asm.R(isa.EAX), asm.Imm(1)) // flip every pass
		b.I(isa.MOV, asm.Sym(isa.SizeD, "flag", 0), asm.R(isa.EAX))
		b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(32))
		b.I(isa.MOV, asm.R(isa.ESI), asm.ImmSym("data", 0))
		b.Label("loop")
		b.I(isa.MOV, asm.R(isa.EAX), asm.Sym(isa.SizeD, "flag", 0))
		b.I(isa.CMP, asm.R(isa.EAX), asm.Imm(0))
		b.J(isa.JNE, "alt")
		b.I(isa.ADD, asm.MemD(isa.ESI, 0), asm.Imm(1))
		b.J(isa.JMP, "join")
		b.Label("alt")
		b.I(isa.ADD, asm.MemD(isa.ESI, 0), asm.Imm(2))
		b.Label("join")
		b.I(isa.ADD, asm.R(isa.ESI), asm.Imm(4))
		b.I(isa.SUB, asm.R(isa.ECX), asm.Imm(1))
		b.J(isa.JNE, "loop")
		b.I(isa.SUB, asm.R(isa.EDX), asm.Imm(1))
		b.J(isa.JNE, "outer")
		b.I(isa.HALT)
		return b.MustLink()
	}

	trc := vm.NewWithCode(vm.Compile(build()))
	trc.Traces = true
	trc.TraceThreshold = 4
	if err := trc.Run(1 << 24); err != nil {
		t.Fatal(err)
	}
	st := trc.TraceStats()
	if st.TreeNodes == 0 {
		t.Errorf("flapping guard should grow its alternate arm: %+v", st)
	}
	if st.Exits == 0 {
		t.Errorf("flapping guard should side-exit while growing: %+v", st)
	}

	gen := vm.New(build())
	gen.Generic = true
	if err := gen.Run(1 << 24); err != nil {
		t.Fatal(err)
	}
	if gen.Executed() != trc.Executed() {
		t.Errorf("executed: generic %d, trace %d", gen.Executed(), trc.Executed())
	}
	compareMachineState(t, gen, trc)
}

// compareMachineState fails the test wherever two CPUs' architectural
// states (GPRs, MM registers, memory image) disagree.
func compareMachineState(t *testing.T, a, b *vm.CPU) {
	t.Helper()
	for i := 0; i < 8; i++ {
		if ag, bg := a.GPR(isa.EAX+isa.Reg(i)), b.GPR(isa.EAX+isa.Reg(i)); ag != bg {
			t.Errorf("GPR %d differs: %#x vs %#x", i, ag, bg)
		}
		if am, bm := a.MM(isa.MM0+isa.Reg(i)), b.MM(isa.MM0+isa.Reg(i)); am != bm {
			t.Errorf("MM%d differs: %#x vs %#x", i, uint64(am), uint64(bm))
		}
	}
	if !bytes.Equal(a.Mem.Bytes(), b.Mem.Bytes()) {
		am, bm := a.Mem.Bytes(), b.Mem.Bytes()
		for i := range am {
			if am[i] != bm[i] {
				t.Errorf("memory images differ first at %#x: %#x vs %#x", i, am[i], bm[i])
				break
			}
		}
	}
}
