package vm_test

// Fault-state differential: for every family of faulting micro-op, a
// fault must leave the same machine behind on the per-instruction loop and
// on the dispatch loop with trace formation off (block micro-ops) and on
// (trace micro-ops) — the same fault text, the same Executed() count
// (every instruction through the faulting one), registers, memory and
// cache statistics (the faulting region's references are charged too).

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/mem"
	"mmxdsp/internal/pentium"
	"mmxdsp/internal/profile"
	"mmxdsp/internal/vm"
)

// badAddr lies far outside every test program's memory image.
const badAddr = 0x7FFFFF00

// faultCase is one faulting instruction shape. The loop body must fault
// once poison has run, and never before.
type faultCase struct {
	name string
	// want is a substring of the expected fault text, pinning that the
	// intended instruction is the one that faults.
	want string
	// body is the loop head's work (it must leave ECX alone); poison runs
	// once, at the chosen iteration, and makes the next body fault.
	body, poison func(b *asm.Builder)
}

// poisonESI points the body's memory operands outside memory.
func poisonESI(b *asm.Builder) { b.I(isa.MOV, asm.R(isa.ESI), asm.Imm(badAddr)) }

// poisonESP points the stack outside memory.
func poisonESP(b *asm.Builder) { b.I(isa.MOV, asm.R(isa.ESP), asm.Imm(badAddr)) }

// poisonMMX enters MMX mode, so the next FP instruction faults.
func poisonMMX(b *asm.Builder) { b.I(isa.MOVQ, asm.R(isa.MM0), asm.R(isa.MM1)) }

func one(op isa.Op, ops ...isa.Operand) func(*asm.Builder) {
	return func(b *asm.Builder) { b.I(op, ops...) }
}

var faultCases = []faultCase{
	// Loads, zero- and sign-extending.
	{"load8", "load byte", one(isa.MOV, asm.R(isa.EAX), asm.MemB(isa.ESI, 0)), poisonESI},
	{"load16", "load word", one(isa.MOV, asm.R(isa.EAX), asm.MemW(isa.ESI, 0)), poisonESI},
	{"load32", "load dword", one(isa.MOV, asm.R(isa.EAX), asm.MemD(isa.ESI, 4)), poisonESI},
	{"movzx8", "load byte", one(isa.MOVZXB, asm.R(isa.EAX), asm.MemB(isa.ESI, 1)), poisonESI},
	{"movzx16", "load word", one(isa.MOVZXW, asm.R(isa.EAX), asm.MemW(isa.ESI, 2)), poisonESI},
	{"movsx8", "load byte", one(isa.MOVSXB, asm.R(isa.EAX), asm.MemB(isa.ESI, 3)), poisonESI},
	{"movsx16", "load word", one(isa.MOVSXW, asm.R(isa.EAX), asm.MemW(isa.ESI, 2)), poisonESI},
	// A load in the trace's second block, past a taken forward branch.
	{"load-after-branch", "load dword", func(b *asm.Builder) {
		b.I(isa.TEST, asm.R(isa.ECX), asm.R(isa.ECX))
		b.J(isa.JNE, "second")
		b.Label("second")
		b.I(isa.MOV, asm.R(isa.EAX), asm.MemD(isa.ESI, 4))
	}, poisonESI},
	// Stores from a register and of an immediate.
	{"store8", "store out of range", one(isa.MOV, asm.MemB(isa.ESI, 0), asm.R(isa.ECX)), poisonESI},
	{"store16", "store out of range", one(isa.MOV, asm.MemW(isa.ESI, 0), asm.R(isa.ECX)), poisonESI},
	{"store32", "store out of range", one(isa.MOV, asm.MemD(isa.ESI, 0), asm.R(isa.ECX)), poisonESI},
	{"store8imm", "store out of range", one(isa.MOV, asm.MemB(isa.ESI, 0), asm.Imm(7)), poisonESI},
	{"store16imm", "store out of range", one(isa.MOV, asm.MemW(isa.ESI, 0), asm.Imm(7)), poisonESI},
	{"store32imm", "store out of range", one(isa.MOV, asm.MemD(isa.ESI, 0), asm.Imm(7)), poisonESI},
	// ALU with a memory source (dword: one fused micro-op; byte: a load
	// staged through a temporary).
	{"add-rm", "load dword", one(isa.ADD, asm.R(isa.EAX), asm.MemD(isa.ESI, 0)), poisonESI},
	{"cmp-rm", "load dword", one(isa.CMP, asm.R(isa.EAX), asm.MemD(isa.ESI, 0)), poisonESI},
	{"imul-rm", "load dword", one(isa.IMUL, asm.R(isa.EAX), asm.MemD(isa.ESI, 0)), poisonESI},
	{"add-rm8", "load byte", one(isa.ADD, asm.R(isa.EAX), asm.MemB(isa.ESI, 0)), poisonESI},
	// Read-modify-write.
	{"rmw-reg", "load dword", one(isa.ADD, asm.MemD(isa.ESI, 0), asm.R(isa.ECX)), poisonESI},
	{"rmw-imm16", "load word", one(isa.SUB, asm.MemW(isa.ESI, 0), asm.Imm(3)), poisonESI},
	{"rmw-cmp8", "load byte", one(isa.CMP, asm.MemB(isa.ESI, 0), asm.Imm(3)), poisonESI},
	// Push and pop.
	{"push-reg", "stack overflow", func(b *asm.Builder) {
		b.I(isa.PUSH, asm.R(isa.ECX))
		b.I(isa.POP, asm.R(isa.EAX))
	}, poisonESP},
	{"push-imm", "stack overflow", func(b *asm.Builder) {
		b.I(isa.PUSH, asm.Imm(5))
		b.I(isa.POP, asm.R(isa.EAX))
	}, poisonESP},
	{"push-mem", "load dword", func(b *asm.Builder) {
		b.I(isa.PUSH, asm.MemD(isa.ESI, 0))
		b.I(isa.POP, asm.R(isa.EAX))
	}, poisonESI},
	{"pop", "stack underflow", func(b *asm.Builder) {
		b.I(isa.POP, asm.R(isa.EAX))
		b.I(isa.PUSH, asm.R(isa.EAX))
	}, poisonESP},
	// Call and return (inlined into the trace).
	{"call", "stack overflow", func(b *asm.Builder) { b.Call("leaf") }, poisonESP},
	{"ret", "stack underflow", func(b *asm.Builder) { b.Call("leaf") }, func(b *asm.Builder) {
		b.I(isa.MOV, asm.R(isa.EBP), asm.Imm(badAddr))
	}},
	// movd/movq loads and stores.
	{"movd-load", "load dword", one(isa.MOVD, asm.R(isa.MM2), asm.MemD(isa.ESI, 0)), poisonESI},
	{"movd-store", "store out of range", one(isa.MOVD, asm.MemD(isa.ESI, 0), asm.R(isa.MM2)), poisonESI},
	{"movq-load64", "mmx qword load", one(isa.MOVQ, asm.R(isa.MM2), asm.MemQ(isa.ESI, 0)), poisonESI},
	{"movq-store", "movq store", one(isa.MOVQ, asm.MemQ(isa.ESI, 0), asm.R(isa.MM2)), poisonESI},
	// MMX binary operations with a memory source.
	{"paddw-m64", "mmx qword load", one(isa.PADDW, asm.R(isa.MM3), asm.MemQ(isa.ESI, 0)), poisonESI},
	{"pmaddwd-m32", "mmx dword load", one(isa.PMADDWD, asm.R(isa.MM3), asm.MemD(isa.ESI, 0)), poisonESI},
	{"psllw-m64", "mmx qword load", one(isa.PSLLW, asm.R(isa.MM3), asm.MemQ(isa.ESI, 0)), poisonESI},
	// FP loads, arithmetic and compares on m32/m64.
	{"fld-m32", "float load", one(isa.FLD, asm.R(isa.FP0), asm.MemD(isa.ESI, 0)), poisonESI},
	{"fld-m64", "double load", one(isa.FLD, asm.R(isa.FP0), asm.MemQ(isa.ESI, 0)), poisonESI},
	{"fadd-m32", "float load", one(isa.FADD, asm.R(isa.FP1), asm.MemD(isa.ESI, 0)), poisonESI},
	{"fmul-m64", "double load", one(isa.FMUL, asm.R(isa.FP1), asm.MemQ(isa.ESI, 0)), poisonESI},
	{"fcom-m32", "float load", one(isa.FCOM, asm.R(isa.FP1), asm.MemD(isa.ESI, 0)), poisonESI},
	{"fcom-m64", "double load", one(isa.FCOM, asm.R(isa.FP1), asm.MemQ(isa.ESI, 0)), poisonESI},
	{"fild", "fild out of range", one(isa.FILD, asm.R(isa.FP2), asm.MemW(isa.ESI, 0)), poisonESI},
	{"fst", "fst out of range", one(isa.FST, asm.MemQ(isa.ESI, 8), asm.R(isa.FP1)), poisonESI},
	{"fst-m32", "fst out of range", one(isa.FST, asm.MemD(isa.ESI, 4), asm.R(isa.FP1)), poisonESI},
	// FP while MMX state is active: native and generic FP shapes.
	{"fp-mmx-rr", "missing emms", one(isa.FADD, asm.R(isa.FP1), asm.R(isa.FP0)), poisonMMX},
	{"fp-mmx-const", "missing emms", one(isa.FLDC, asm.R(isa.FP3), asm.Imm(int64(math.Float64bits(0.5)))), poisonMMX},
	{"fp-mmx-fchs", "missing emms", one(isa.FCHS, asm.R(isa.FP1)), poisonMMX},
	{"fp-mmx-fst", "missing emms", one(isa.FST, asm.MemQ(isa.ESI, 8), asm.R(isa.FP1)), poisonMMX},
	{"fp-mmx-fst-m32", "missing emms", one(isa.FST, asm.MemD(isa.ESI, 0), asm.R(isa.FP1)), poisonMMX},
}

// faultIters is the loop trip count; the cold variant poisons on the first
// iteration, the hot one after the loop has long been a resident trace.
const faultIters = 200

// buildFaultProg wraps a case in a counted loop that poisons itself when
// ECX reaches poisonAt:
//
//	loop: body; cmp ecx, poisonAt; jne skip; poison
//	skip: sub ecx, 1; jne loop
func buildFaultProg(fc faultCase, poisonAt int) *asm.Program {
	b := asm.NewBuilder("fault-" + fc.name)
	b.Doubles("buf", []float64{1.5, 2.5, 3.5, 4.5})
	b.Proc("main")
	b.I(isa.MOV, asm.R(isa.ESI), asm.ImmSym("buf", 0))
	b.I(isa.MOV, asm.R(isa.EBP), asm.Imm(0))
	b.I(isa.PUSH, asm.Imm(11)) // a stack word for the pop case
	b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(faultIters))
	b.Label("loop")
	fc.body(b)
	b.I(isa.CMP, asm.R(isa.ECX), asm.Imm(int64(poisonAt)))
	b.J(isa.JNE, "skip")
	fc.poison(b)
	b.Label("skip")
	b.I(isa.SUB, asm.R(isa.ECX), asm.Imm(1))
	b.J(isa.JNE, "loop")
	b.I(isa.HALT)
	// leaf moves the stack by EBP (0 until the ret case poisons it)
	// before returning.
	b.Proc("leaf")
	b.I(isa.ADD, asm.R(isa.ESP), asm.R(isa.EBP))
	b.Ret()
	return b.MustLink()
}

// faultRun is the machine a faulted run leaves behind.
type faultRun struct {
	err      string
	executed int64
	gpr      [8]uint32
	mm       [8]uint64
	fp       [8]uint64
	mem      []byte
	cache    mem.HierarchyStats
	formed   int
}

func runFault(t *testing.T, prog *asm.Program, code *vm.Code, mode string) faultRun {
	t.Helper()
	model := pentium.New(pentium.DefaultConfig())
	model.Bind(prog)
	cpu := vm.NewWithCode(code)
	cpu.Obs = profile.NewCollector(prog, model)
	cpu.Hier = mem.NewHierarchy()
	cpu.Generic = mode == "generic"
	cpu.Traces = mode == "trace"
	err := cpu.Run(1 << 20)
	if err == nil {
		t.Fatalf("%s: run did not fault", mode)
	}
	r := faultRun{
		err:      err.Error(),
		executed: cpu.Executed(),
		mem:      append([]byte(nil), cpu.Mem.Bytes()...),
		cache:    cpu.Hier.Stats,
		formed:   cpu.TraceStats().Formed,
	}
	for i := 0; i < 8; i++ {
		r.gpr[i] = cpu.GPR(isa.EAX + isa.Reg(i))
		r.mm[i] = uint64(cpu.MM(isa.MM0 + isa.Reg(i)))
		r.fp[i] = math.Float64bits(cpu.FPReg(isa.FP0 + isa.Reg(i)))
	}
	return r
}

func TestFaultStateMatchesAcrossPaths(t *testing.T) {
	for _, fc := range faultCases {
		for _, v := range []struct {
			name     string
			poisonAt int
		}{
			{"cold", faultIters},      // faults on the second iteration
			{"trace", faultIters / 4}, // faults deep in trace residency
		} {
			fc, v := fc, v
			t.Run(fc.name+"/"+v.name, func(t *testing.T) {
				prog := buildFaultProg(fc, v.poisonAt)
				code := vm.Compile(prog)
				gen := runFault(t, prog, code, "generic")
				if !strings.Contains(gen.err, fc.want) {
					t.Fatalf("generic fault %q, want %q", gen.err, fc.want)
				}
				for _, mode := range []string{"block", "trace"} {
					got := runFault(t, prog, code, mode)
					if got.err != gen.err {
						t.Errorf("%s fault text:\n got  %s\n want %s", mode, got.err, gen.err)
					}
					if got.executed != gen.executed {
						t.Errorf("%s Executed() = %d, generic %d", mode, got.executed, gen.executed)
					}
					if got.gpr != gen.gpr {
						t.Errorf("%s GPRs %v, generic %v", mode, got.gpr, gen.gpr)
					}
					if got.mm != gen.mm {
						t.Errorf("%s MM registers %x, generic %x", mode, got.mm, gen.mm)
					}
					if got.fp != gen.fp {
						t.Errorf("%s FP registers %x, generic %x", mode, got.fp, gen.fp)
					}
					if !bytes.Equal(got.mem, gen.mem) {
						t.Errorf("%s memory image differs from generic", mode)
					}
					if got.cache != gen.cache {
						t.Errorf("%s cache stats %+v, generic %+v", mode, got.cache, gen.cache)
					}
					if mode != "trace" {
						continue
					}
					if v.name == "trace" && got.formed < 1 {
						t.Errorf("no trace formed before the fault")
					}
					if v.name == "cold" && got.formed != 0 {
						t.Errorf("cold fault ran after %d traces formed", got.formed)
					}
				}
			})
		}
	}
}
