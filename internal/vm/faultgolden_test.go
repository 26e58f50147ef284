package vm_test

// The fault-text golden table: every fault a parsed listing can reach, with
// its exact text, on the per-instruction, block and trace paths. Static
// shapes (an operand the opcode does not accept) fault on first execution;
// the dynamic ones (range, stack, idiv, fp after MMX) also run in a loop
// that is a resident trace by the time it faults.

import (
	"strings"
	"testing"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/vm"
)

// goldenFault is one listing and the full text of the fault it must raise.
type goldenFault struct {
	name, src, want string
}

// goldenHead gives every listing a data area ("buf") and a pointer to it
// in esi; ebp holds an address far outside memory.
const goldenHead = `.dwords buf 1,2,3,4,5,6,7,8
mov esi, buf
mov ebp, 0x7fffff00
`

// goldenLoop runs body 200 times with ecx counting down from 200; body
// must fault on the iteration the test arranges and never before.
func goldenLoop(body string) string {
	return "mov ecx, 200\nloop:\n" + body + "\nsub ecx, 1\njne loop\nhalt\n"
}

// goldenPoison leaves eax 0 on every iteration but the 151st, where it is
// an offset that takes esi far outside memory; it does so without a branch,
// so the faulting access runs inside the resident trace.
const goldenPoison = "mov eax, ecx\nsub eax, 50\nneg eax\nsbb eax, eax\nnot eax\nand eax, 0x40000000\n"

var goldenFaults = []goldenFault{
	// Control and budget.
	{"fall-off-end", "mov eax, 1", "vm(g) pc=3 [?]: control transferred outside program (pc=3)"},
	{"ret-outside", "push 999999\nret", "vm(g) pc=999999 [?]: control transferred outside program (pc=999999)"},
	{"budget", "spin:\njmp spin", "vm(g) pc=2 [jmp spin]: budget of 5000 instructions: instruction budget exhausted"},

	// Integer operand shapes.
	{"read-non-gpr", "mov eax, mm0", "vm(g) pc=2 [mov eax, mm0]: integer read of non-GPR mm0"},
	{"read-non-gpr-fp", "add eax, fp1", "vm(g) pc=2 [add eax, fp1]: integer read of non-GPR fp1"},
	{"write-non-gpr", "mov mm0, eax", "vm(g) pc=2 [mov mm0, eax]: integer write to non-GPR mm0"},
	{"missing-source", "mov eax", "vm(g) pc=2 [mov eax]: missing operand"},
	{"missing-push", "push", "vm(g) pc=2 [push]: missing operand"},
	{"missing-idiv", "idiv", "vm(g) pc=2 [idiv]: missing operand"},
	{"imm-destination", "mov 5, eax", "vm(g) pc=2 [mov 5, eax]: bad destination operand"},
	{"pop-imm", "pop 5", "vm(g) pc=2 [pop 5]: bad destination operand"},
	{"pop-none", "pop", "vm(g) pc=2 [pop]: bad destination operand"},
	{"pop-mm", "pop mm0", "vm(g) pc=2 [pop mm0]: integer write to non-GPR mm0"},
	{"not-imm", "not 7", "vm(g) pc=2 [not 7]: bad destination operand"},
	{"load-qword", "mov eax, qword [esi]", "vm(g) pc=2 [mov eax, qword [esi]]: bad load size qword"},
	{"store-qword", "mov qword [esi], eax", "vm(g) pc=2 [mov qword [esi], eax]: bad store size qword"},
	{"lea-register", "lea eax, ebx", "vm(g) pc=2 [lea eax, ebx]: lea needs a memory operand"},
	{"xchg-memory", "xchg eax, dword [esi]", "vm(g) pc=2 [xchg eax, dword [esi]]: xchg supports register operands only"},
	{"xchg-mm", "xchg mm0, mm1", "vm(g) pc=2 [xchg mm0, mm1]: integer read of non-GPR mm0"},
	{"xchg-fp", "xchg eax, fp7", "vm(g) pc=2 [xchg eax, fp7]: integer read of non-GPR fp7"},
	{"movzx-mm", "movzx.b eax, mm0", "vm(g) pc=2 [movzx.b eax, mm0]: integer read of non-GPR mm0"},
	{"movsx-fp", "movsx.w eax, fp1", "vm(g) pc=2 [movsx.w eax, fp1]: integer read of non-GPR fp1"},

	// Integer ranges and stack.
	{"load-byte", "mov eax, byte [ebp]", "vm(g) pc=2 [mov eax, byte [ebp]]: load byte out of range at 0x7fffff00"},
	{"load-word", "movsx.w eax, word [ebp+2]", "vm(g) pc=2 [movsx.w eax, word [ebp+2]]: load word out of range at 0x7fffff02"},
	{"load-dword", "add eax, dword [ebp+4]", "vm(g) pc=2 [add eax, dword [ebp+4]]: load dword out of range at 0x7fffff04"},
	{"store", "mov word [ebp], eax", "vm(g) pc=2 [mov word [ebp], eax]: store out of range at 0x7fffff00"},
	{"push-overflow", "mov esp, ebp\npush eax", "vm(g) pc=3 [push eax]: stack overflow at 0x7ffffefc"},
	{"call-overflow", "mov esp, ebp\ncall f\nf:\nret", "vm(g) pc=3 [call f]: stack overflow at 0x7ffffefc"},
	{"pop-underflow", "mov esp, ebp\npop eax", "vm(g) pc=3 [pop eax]: stack underflow at 0x7fffff00"},
	{"ret-underflow", "mov esp, ebp\nret", "vm(g) pc=3 [ret]: stack underflow at 0x7fffff00"},
	{"idiv-zero", "mov ebx, 0\nidiv ebx", "vm(g) pc=3 [idiv ebx]: integer divide by zero"},
	{"idiv-overflow", "mov edx, 256\nmov eax, 0\nmov ebx, 2\nidiv ebx", "vm(g) pc=5 [idiv ebx]: idiv overflow (1099511627776 / 2)"},

	// Floating point.
	{"fp-after-mmx", "movq mm0, mm1\nfadd fp0, fp1", "vm(g) pc=3 [fadd fp0, fp1]: floating-point instruction while MMX state active (missing emms)"},
	{"fp-after-mmx-static", "movq mm0, mm1\nfchs eax", "vm(g) pc=3 [fchs eax]: floating-point instruction while MMX state active (missing emms)"},
	{"fldc-register", "fldc fp0, fp1", "vm(g) pc=2 [fldc fp0, fp1]: fldc needs an immediate"},
	{"fst-word", "fst word [esi], fp0", "vm(g) pc=2 [fst word [esi], fp0]: fst needs dword or qword destination"},
	{"fst-imm", "fst 5, fp0", "vm(g) pc=2 [fst 5, fp0]: fst needs dword or qword destination"},
	{"fst-range", "fst qword [ebp], fp0", "vm(g) pc=2 [fst qword [ebp], fp0]: fst out of range at 0x7fffff00"},
	{"fild-register", "fild fp0, eax", "vm(g) pc=2 [fild fp0, eax]: fild needs a memory source"},
	{"fild-qword", "fild fp0, qword [esi]", "vm(g) pc=2 [fild fp0, qword [esi]]: fild needs word or dword source"},
	{"fild-range", "fild fp0, dword [ebp]", "vm(g) pc=2 [fild fp0, dword [ebp]]: fild out of range at 0x7fffff00"},
	{"fist-register", "fist eax, fp0", "vm(g) pc=2 [fist eax, fp0]: fist needs a memory destination"},
	{"fist-qword", "fist qword [esi], fp0", "vm(g) pc=2 [fist qword [esi], fp0]: fist needs word or dword destination"},
	{"fist-range", "fist word [ebp], fp0", "vm(g) pc=2 [fist word [ebp], fp0]: fist out of range at 0x7fffff00"},
	{"fist-gpr-source", "fist dword [esi], eax", "vm(g) pc=2 [fist dword [esi], eax]: expected FP register, have eax"},
	{"fp-expected", "fadd eax, fp0", "vm(g) pc=2 [fadd eax, fp0]: expected FP register, have eax"},
	{"fp-expected-none", "fchs", "vm(g) pc=2 [fchs]: expected FP register, have "},
	{"fp-destination", "fld eax, fp0", "vm(g) pc=2 [fld eax, fp0]: expected FP register destination, have eax"},
	{"fp-destination-load", "fild eax, word [esi]", "vm(g) pc=2 [fild eax, word [esi]]: expected FP register destination, have eax"},
	{"fst-register-destination", "fst eax, fp0", "vm(g) pc=2 [fst eax, fp0]: expected FP register destination, have eax"},
	{"float-load", "fld fp0, dword [ebp]", "vm(g) pc=2 [fld fp0, dword [ebp]]: float load out of range at 0x7fffff00"},
	{"double-load", "fmul fp0, qword [ebp]", "vm(g) pc=2 [fmul fp0, qword [ebp]]: double load out of range at 0x7fffff00"},
	{"float-size", "fcom fp0, word [esi]", "vm(g) pc=2 [fcom fp0, word [esi]]: float operand needs dword or qword size"},
	{"float-imm", "fld fp0, 5", "vm(g) pc=2 [fld fp0, 5]: bad float operand 5"},

	// MMX.
	{"movq-destination", "movq eax, mm0", "vm(g) pc=2 [movq eax, mm0]: movq destination must be mm register or memory"},
	{"movq-store", "movq qword [ebp], mm0", "vm(g) pc=2 [movq qword [ebp], mm0]: movq store out of range at 0x7fffff00"},
	{"mm-expected", "paddw eax, mm0", "vm(g) pc=2 [paddw eax, mm0]: expected mm register, have eax"},
	{"movd-gpr-gpr", "movd eax, ebx", "vm(g) pc=2 [movd eax, ebx]: expected mm register, have ebx"},
	{"mmx-dword-load", "pmaddwd mm0, dword [ebp]", "vm(g) pc=2 [pmaddwd mm0, dword [ebp]]: mmx dword load out of range at 0x7fffff00"},
	{"mmx-qword-load", "psraw mm0, qword [ebp]", "vm(g) pc=2 [psraw mm0, qword [ebp]]: mmx qword load out of range at 0x7fffff00"},
	{"mmx-imm", "paddw mm0, 5", "vm(g) pc=2 [paddw mm0, 5]: bad mmx operand 5"},
	{"mmx-none", "psllq mm0", "vm(g) pc=2 [psllq mm0]: bad mmx operand "},

	// Dynamic faults deep in a resident trace: the 151st iteration
	// divides by zero, overflows, or walks off memory.
	{"loop-idiv-zero", goldenLoop("mov eax, ecx\ncdq\nmov ebx, ecx\nsub ebx, 50\nidiv ebx"),
		"vm(g) pc=7 [idiv ebx]: integer divide by zero"},
	{"loop-idiv-overflow", goldenLoop("mov ebx, ecx\nadd ebx, ecx\nsub ebx, 101\nmov eax, 0x80000000\ncdq\nidiv ebx"),
		"vm(g) pc=8 [idiv ebx]: idiv overflow (-2147483648 / -1)"},
	{"loop-load", goldenLoop(goldenPoison + "mov ebx, dword [esi+eax]"),
		"vm(g) pc=9 [mov ebx, dword [esi+eax*1]]: load dword out of range at 0x40010000"},
	{"loop-fild", goldenLoop(goldenPoison + "fild fp0, word [esi+eax]"),
		"vm(g) pc=9 [fild fp0, word [esi+eax*1]]: fild out of range at 0x40010000"},
	{"loop-fp-after-mmx", goldenLoop("cmp ecx, 50\njne ok\nmovq mm0, mm1\nok:\nfsin fp0"),
		"vm(g) pc=6 [fsin fp0]: floating-point instruction while MMX state active (missing emms)"},
}

// TestFaultTextsGolden pins every fault text on every path.
func TestFaultTextsGolden(t *testing.T) {
	for _, gf := range goldenFaults {
		t.Run(gf.name, func(t *testing.T) {
			prog, err := asm.ParseSource("g", goldenHead+gf.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			code := vm.Compile(prog)
			for _, mode := range []string{"generic", "block", "trace"} {
				cpu := vm.NewWithCode(code)
				cpu.Generic = mode == "generic"
				cpu.Traces = mode == "trace"
				err := cpu.Run(5000)
				if err == nil {
					t.Fatalf("%s: ran without fault", mode)
				}
				if got := err.Error(); got != gf.want {
					t.Errorf("%s:\n got  %s\n want %s", mode, got, gf.want)
				}
				if mode == "trace" && strings.HasPrefix(gf.name, "loop-") && cpu.TraceStats().Formed == 0 {
					t.Errorf("no trace formed before the fault")
				}
			}
		})
	}
}
