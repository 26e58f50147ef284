package pentium_test

// Dispatch-mode fuzz: random-but-valid linked programs — nested
// counted loops over random integer/MMX/memory bodies, wrapped in a
// measured profon/profoff region — run through the per-instruction loop and
// the dispatch loop with trace formation off (block) and on (trace), with
// the full timing pipeline (bound model, collector, cache hierarchy). Every event-visible outcome must be
// identical: registers, memory image, executed count, cycle totals and the
// entire profiling report. This lives in an external test package because
// the profile package imports pentium.

import (
	"bytes"
	"reflect"
	"testing"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/mem"
	"mmxdsp/internal/pentium"
	"mmxdsp/internal/profile"
	"mmxdsp/internal/suite"
	"mmxdsp/internal/synth"
	"mmxdsp/internal/vm"
)

// buildRandomProgram links a terminating random program: an outer pass loop
// around an inner loop whose body mixes ALU, shift, multiply, MMX and
// memory instructions drawn from the seed. ECX/EDX/ESI are reserved for
// loop control and the data pointer; bodies use the remaining registers.
func buildRandomProgram(seed uint64) (*asm.Program, error) {
	r := synth.NewRand(seed)
	b := asm.NewBuilder("fuzz3w")
	// One seed in seven flips a flag-controlled branch in the loop body
	// halfway through the passes: the path a trace recorded goes cold for
	// the rest of the run while its head stays hot, so the formed trace
	// stays live, is entered on every pass and leaves at that guard. Keyed
	// on the seed, like pendingU below, so the other seeds keep their
	// programs. The flag sits below the data the body's stores walk past.
	phase := seed%7 == 5
	if phase {
		b.Dwords("phase", []int32{0})
	}
	data := make([]int32, 64)
	for i := range data {
		data[i] = int32(r.Intn(1 << 16))
	}
	b.Dwords("data", data)

	gprs := []isa.Reg{isa.EAX, isa.EBX, isa.EDI}
	mms := []isa.Reg{isa.MM0, isa.MM1, isa.MM2, isa.MM3}
	regOps := []isa.Op{isa.MOV, isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
		isa.CMP, isa.TEST, isa.IMUL}
	mmxOps := []isa.Op{isa.PADDW, isa.PSUBW, isa.PMADDWD, isa.PMULLW,
		isa.PAND, isa.PXOR, isa.MOVQ}

	emitBody := func() {
		switch r.Intn(6) {
		case 0: // load
			b.I(isa.MOV, asm.R(gprs[r.Intn(len(gprs))]), asm.MemD(isa.ESI, int32(4*r.Intn(16))))
		case 1: // store
			b.I(isa.MOV, asm.MemD(isa.ESI, int32(4*r.Intn(16))), asm.R(gprs[r.Intn(len(gprs))]))
		case 2: // read-modify-write
			b.I(isa.ADD, asm.MemD(isa.ESI, int32(4*r.Intn(16))), asm.Imm(int64(r.Intn(100))))
		case 3: // MMX register op
			op := mmxOps[r.Intn(len(mmxOps))]
			b.I(op, asm.R(mms[r.Intn(len(mms))]), asm.R(mms[r.Intn(len(mms))]))
		case 4: // shift by immediate
			b.I(isa.SHL, asm.R(gprs[r.Intn(len(gprs))]), asm.Imm(int64(r.Intn(31))))
		default: // ALU register op
			op := regOps[r.Intn(len(regOps))]
			b.I(op, asm.R(gprs[r.Intn(len(gprs))]), asm.R(gprs[r.Intn(len(gprs))]))
		}
	}

	// A quarter of the seeds run hot enough (hundreds of inner iterations)
	// for the trace tier to form superblocks and, with a biased branch in
	// the body, grow trace-tree child paths.
	passes, trips := 2+r.Intn(3), 4+r.Intn(12)
	if r.Intn(4) == 0 {
		passes, trips = 6+r.Intn(6), 24+r.Intn(41)
	}
	b.I(isa.PROFON)
	b.I(isa.MOV, asm.R(isa.EDX), asm.Imm(int64(passes)))
	b.Label("pass")
	if phase {
		b.I(isa.CMP, asm.R(isa.EDX), asm.Imm(int64(passes/2)))
		b.J(isa.JNE, "phasekeep")
		b.I(isa.MOV, asm.Sym(isa.SizeD, "phase", 0), asm.Imm(1))
		b.Label("phasekeep")
	}
	b.I(isa.MOV, asm.R(isa.ESI), asm.ImmSym("data", 0))
	b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(int64(trips)))
	// One seed in five ends the loop's fall-through preheader with a U-only
	// shift and opens the loop with an independent pairable-V add, so every
	// pass enters the loop's trace with a pending U its head pairs behind.
	// The choice is keyed on the seed rather than drawn from r, so the other
	// seeds keep their programs.
	pendingU := seed%5 == 2
	if pendingU {
		b.I(isa.SHL, asm.R(isa.EDI), asm.Imm(1))
	}
	b.Label("loop")
	if pendingU {
		b.I(isa.ADD, asm.R(isa.EAX), asm.R(isa.EBX))
	}
	for n := 4 + r.Intn(9); n > 0; n-- {
		emitBody()
	}
	if phase {
		b.I(isa.MOV, asm.R(isa.EAX), asm.Sym(isa.SizeD, "phase", 0))
		b.I(isa.CMP, asm.R(isa.EAX), asm.Imm(0))
		b.J(isa.JNE, "phasealt")
		b.I(isa.ADD, asm.MemD(isa.ESI, 0), asm.Imm(1))
		b.J(isa.JMP, "phasejoin")
		b.Label("phasealt")
		b.I(isa.ADD, asm.MemD(isa.ESI, 4), asm.Imm(2))
		b.Label("phasejoin")
	}
	// Half the seeds add a counter-keyed biased branch: the rare arm runs
	// every 2nd/4th/8th iteration, the shape that makes a superblock guard
	// fail persistently (trace-tree growth).
	if r.Intn(2) == 0 {
		mask := int64(1<<(1+r.Intn(3))) - 1
		b.I(isa.MOV, asm.R(isa.EAX), asm.R(isa.ECX))
		b.I(isa.AND, asm.R(isa.EAX), asm.Imm(mask))
		b.J(isa.JNE, "biasjoin")
		b.I(isa.ADD, asm.MemD(isa.ESI, int32(4*r.Intn(16))), asm.Imm(int64(r.Intn(100))))
		b.Label("biasjoin")
	}
	b.I(isa.ADD, asm.R(isa.ESI), asm.Imm(4))
	b.I(isa.SUB, asm.R(isa.ECX), asm.Imm(1))
	b.J(isa.JNE, "loop")
	b.I(isa.SUB, asm.R(isa.EDX), asm.Imm(1))
	b.J(isa.JNE, "pass")
	b.I(isa.PROFOFF)
	b.I(isa.HALT)
	return b.Link()
}

// threeWayOutcome is everything one path produces that the others must
// reproduce.
type threeWayOutcome struct {
	gpr      [8]uint32
	mm       [8]uint64
	mem      []byte
	executed int64
	cycles   uint64
	report   *profile.Report
	cache    mem.HierarchyStats
}

func runDispatch(t *testing.T, prog *asm.Program, mode string) *threeWayOutcome {
	t.Helper()
	model := pentium.New(pentium.DefaultConfig())
	model.Bind(prog)
	col := profile.NewCollector(prog, model)
	cpu := vm.New(prog)
	cpu.Obs = col
	switch mode {
	case "generic":
		cpu.Generic = true
	case "block":
	case "trace":
		cpu.Traces = true
		// A low threshold makes the short fuzz loops actually form traces.
		cpu.TraceThreshold = 4
	default:
		t.Fatalf("unknown mode %q", mode)
	}
	cpu.Hier = mem.NewHierarchy()
	if err := cpu.Run(1 << 24); err != nil {
		t.Fatalf("run (%s): %v", mode, err)
	}
	out := &threeWayOutcome{
		executed: cpu.Executed(),
		cycles:   model.Cycles(),
		report:   col.Report(prog.Name),
		cache:    cpu.Hier.Stats,
	}
	for i := 0; i < 8; i++ {
		out.gpr[i] = cpu.GPR(isa.EAX + isa.Reg(i))
		out.mm[i] = uint64(cpu.MM(isa.MM0 + isa.Reg(i)))
	}
	out.mem = append([]byte(nil), cpu.Mem.Bytes()...)
	return out
}

func checkThreeWay(t *testing.T, seed uint64) {
	t.Helper()
	prog, err := buildRandomProgram(seed)
	if err != nil {
		t.Fatalf("seed %d: link: %v", seed, err)
	}
	gen := runDispatch(t, prog, "generic")
	for _, mode := range []string{"block", "trace"} {
		got := runDispatch(t, prog, mode)
		if got.gpr != gen.gpr {
			t.Errorf("seed %d: %s GPRs %v, generic %v", seed, mode, got.gpr, gen.gpr)
		}
		if got.mm != gen.mm {
			t.Errorf("seed %d: %s MM %v, generic %v", seed, mode, got.mm, gen.mm)
		}
		if got.executed != gen.executed {
			t.Errorf("seed %d: %s executed %d, generic %d", seed, mode, got.executed, gen.executed)
		}
		if got.cycles != gen.cycles {
			t.Errorf("seed %d: %s cycles %d, generic %d", seed, mode, got.cycles, gen.cycles)
		}
		if got.cache != gen.cache {
			t.Errorf("seed %d: %s cache %+v, generic %+v", seed, mode, got.cache, gen.cache)
		}
		if !bytes.Equal(got.mem, gen.mem) {
			t.Errorf("seed %d: %s memory image differs from generic", seed, mode)
		}
		if !reflect.DeepEqual(got.report, gen.report) {
			t.Errorf("seed %d: %s report differs:\n %s %+v\n generic %+v",
				seed, mode, mode, got.report, gen.report)
		}
	}
}

// TestDispatchThreeWayRandomPrograms sweeps a fixed seed range so ordinary
// `go test` runs exercise the differential without the fuzz engine.
func TestDispatchThreeWayRandomPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		checkThreeWay(t, seed)
	}
}

// FuzzDispatchThreeWay lets `go test -fuzz` explore program shapes beyond
// the fixed sweep.
func FuzzDispatchThreeWay(f *testing.F) {
	// 18, 31, 51 and 74 generate hot biased-branch loops that demonstrably
	// grow trace trees (child paths attached, iterations completing through
	// them); 107 is a hot pending-U seed (seed%5 == 2) whose chains are
	// entered behind a pending U about a hundred times; 33 is a hot
	// phase-flip seed (seed%7 == 5) whose first trace goes cold halfway and
	// stays entered once per pass; the rest cover the short cold shapes.
	for _, seed := range []uint64{1, 7, 42, 12345, 1 << 40, 18, 31, 51, 74, 107, 33} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkThreeWay(t, seed)
	})
}

// TestDispatchThreeWaySuitePrograms repeats the differential on two real
// suite programs whose hot blocks exercise the penalty-signature memo
// (streaming kernels that miss L1 on nearly every iteration).
func TestDispatchThreeWaySuitePrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("suite programs are slow; skipped with -short")
	}
	want := map[string]bool{"matvec.mmx": true, "image.mmx": true}
	for _, bench := range suite.All() {
		if !want[bench.Name()] {
			continue
		}
		bench := bench
		t.Run(bench.Name(), func(t *testing.T) {
			t.Parallel()
			prog, err := bench.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			gen := runDispatch(t, prog, "generic")
			for _, mode := range []string{"block", "trace"} {
				got := runDispatch(t, prog, mode)
				if got.cycles != gen.cycles {
					t.Errorf("%s cycles %d, generic %d", mode, got.cycles, gen.cycles)
				}
				if !reflect.DeepEqual(got.report, gen.report) {
					t.Errorf("reports differ:\n %s %+v\n generic %+v", mode, got.report, gen.report)
				}
			}
		})
	}
}
