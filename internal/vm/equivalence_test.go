package vm_test

// Differential tests for the interpreters: every program in the benchmark
// suite runs through the per-instruction loop and the dispatch loop
// with trace formation off (block dispatch) and on (trace dispatch), with
// the full timing pipeline attached (bound Pentium model, profile
// collector, cache hierarchy). All paths must agree on every
// architecturally visible outcome: registers, the entire memory image, and
// the profiling report (cycles, pairing, class attribution, cache
// statistics). The generic path also hashes the complete retired-event
// stream; the dispatch loop retires whole regions at a time, so it has no
// per-event stream to hash, and is instead pinned by the report and
// machine state.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/mem"
	"mmxdsp/internal/pentium"
	"mmxdsp/internal/profile"
	"mmxdsp/internal/suite"
	"mmxdsp/internal/vm"
)

// eventHasher folds every retired event into an FNV-64a running hash, so the
// comparison covers millions of events without storing them.
type eventHasher struct {
	next vm.Observer
	sum  uint64
	n    uint64
}

func (h *eventHasher) Retire(ev vm.Event) {
	f := fnv.New64a()
	var buf [28]byte
	binary.LittleEndian.PutUint32(buf[0:], uint32(ev.PC))
	binary.LittleEndian.PutUint32(buf[4:], uint32(ev.Inst.Op))
	binary.LittleEndian.PutUint32(buf[8:], uint32(ev.Target))
	binary.LittleEndian.PutUint32(buf[12:], uint32(ev.MemPenalty))
	binary.LittleEndian.PutUint64(buf[16:], h.sum)
	if ev.Measured {
		buf[24] = 1
	}
	if ev.Taken {
		buf[25] = 1
	}
	f.Write(buf[:])
	h.sum = f.Sum64()
	h.n++
	if h.next != nil {
		h.next.Retire(ev)
	}
}

// runOutcome is everything one interpreter path produces.
type runOutcome struct {
	gpr       [8]uint32
	mm        [8]uint64
	fp        [8]float64
	mem       []byte
	executed  int64
	report    *profile.Report
	eventHash uint64
	events    uint64
	traces    vm.TraceStats
}

func runPath(t *testing.T, prog *asm.Program, mode string) *runOutcome {
	t.Helper()
	out, err := runMode(prog, nil, mode)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runMode runs prog in one interpreter mode with the full timing pipeline,
// on a CPU of its own built from code (compiled privately when nil). It
// only returns errors, so any goroutine may call it.
func runMode(prog *asm.Program, code *vm.Code, mode string) (*runOutcome, error) {
	return runModeHier(prog, code, mode, mem.NewHierarchy())
}

// runModeHier is runMode on the given (fresh) cache hierarchy.
func runModeHier(prog *asm.Program, code *vm.Code, mode string, hier *mem.Hierarchy) (*runOutcome, error) {
	cfg := pentium.DefaultConfig()
	model := pentium.New(cfg)
	model.Bind(prog)
	col := profile.NewCollector(prog, model)
	hasher := &eventHasher{next: col}

	cpu := vm.New(prog)
	if code != nil {
		cpu = vm.NewWithCode(code)
	}
	switch mode {
	case "generic":
		cpu.Generic = true
		cpu.Obs = hasher
	case "block":
		cpu.Obs = col
	case "trace":
		cpu.Obs = col
		cpu.Traces = true
	default:
		return nil, fmt.Errorf("unknown mode %q", mode)
	}
	cpu.Hier = hier
	if err := cpu.Run(1 << 31); err != nil {
		return nil, fmt.Errorf("run (%s): %v", mode, err)
	}

	out := &runOutcome{
		executed:  cpu.Executed(),
		report:    col.Report(prog.Name),
		eventHash: hasher.sum,
		events:    hasher.n,
		traces:    cpu.TraceStats(),
	}
	for i := 0; i < 8; i++ {
		out.gpr[i] = cpu.GPR(isa.EAX + isa.Reg(i))
		out.mm[i] = uint64(cpu.MM(isa.MM0 + isa.Reg(i)))
		out.fp[i] = cpu.FPReg(isa.FP0 + isa.Reg(i))
	}
	out.report.CacheAccesses = cpu.Hier.Stats.Accesses
	out.report.L1Misses = cpu.Hier.Stats.L1Misses
	out.report.L2Misses = cpu.Hier.Stats.L2Misses
	out.mem = append([]byte(nil), cpu.Mem.Bytes()...)
	return out, nil
}

// compareOutcomes fails the test wherever two interpreter paths disagree.
// Event-stream hashes are only compared when both paths collected one (the
// block path retires bodies in bulk and records no per-event stream).
func compareOutcomes(t *testing.T, aName string, a *runOutcome, bName string, b *runOutcome) {
	t.Helper()
	if a.gpr != b.gpr {
		t.Errorf("GPRs differ:\n %s %v\n %s %v", aName, a.gpr, bName, b.gpr)
	}
	if a.mm != b.mm {
		t.Errorf("MM registers differ:\n %s %v\n %s %v", aName, a.mm, bName, b.mm)
	}
	if a.fp != b.fp {
		t.Errorf("FP registers differ:\n %s %v\n %s %v", aName, a.fp, bName, b.fp)
	}
	if a.executed != b.executed {
		t.Errorf("executed: %s %d, %s %d", aName, a.executed, bName, b.executed)
	}
	if a.events != 0 && b.events != 0 &&
		(a.events != b.events || a.eventHash != b.eventHash) {
		t.Errorf("event streams differ: %s %d events hash %#x, %s %d events hash %#x",
			aName, a.events, a.eventHash, bName, b.events, b.eventHash)
	}
	if !bytes.Equal(a.mem, b.mem) {
		for i := range a.mem {
			if a.mem[i] != b.mem[i] {
				t.Errorf("memory images differ first at %#x: %s %#x, %s %#x",
					i, aName, a.mem[i], bName, b.mem[i])
				break
			}
		}
	}
	if !reflect.DeepEqual(a.report, b.report) {
		t.Errorf("reports differ:\n %s %+v\n %s %+v", aName, a.report, bName, b.report)
	}
}

// TestDispatchModesAgree is the three-way differential over the whole
// benchmark suite: generic, block and trace dispatch must be
// observationally identical.
func TestDispatchModesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite differential run is slow; skipped with -short")
	}
	for _, b := range suite.All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			prog, err := b.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			gen := runPath(t, prog, "generic")
			blk := runPath(t, prog, "block")
			trc := runPath(t, prog, "trace")

			compareOutcomes(t, "generic", gen, "block", blk)
			compareOutcomes(t, "block", blk, "trace", trc)
		})
	}
}

// TestPredecodedFaultsMatchGeneric checks that the out-of-program control
// transfer fault is identical under both interpreters.
func TestPredecodedFaultsMatchGeneric(t *testing.T) {
	build := func() *asm.Program {
		b := asm.NewBuilder("fallthrough")
		b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(1))
		return b.MustLink()
	}
	g := vm.New(build())
	g.Generic = true
	errG := g.Run(100)
	p := vm.New(build())
	errP := p.Run(100)
	if errG == nil || errP == nil {
		t.Fatal("both paths must fault on running off the end")
	}
	if errG.Error() != errP.Error() {
		t.Errorf("fault text differs:\n generic: %v\n dispatch: %v", errG, errP)
	}
}
