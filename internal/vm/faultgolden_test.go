package vm_test

// The fault-text golden table: every fault a parsed listing can reach, with
// its exact text, on the per-instruction, block and trace paths; the
// dynamic ones (range, stack, idiv, fp after MMX) also run in a loop that
// is a resident trace by the time it faults. A listing whose operand shapes
// the opcode does not accept never runs: its row holds the build error,
// with the line and column of the operand at fault.

import (
	"strings"
	"testing"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/vm"
)

// goldenFault is one listing and the full text of the fault it must raise,
// or of the build error ("asm(g): line ...") that rejects it.
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
	{"read-non-gpr", "mov eax, mm0", "asm(g): line 4:10: mov: operand 2 mm0 is not accepted"},
	{"read-non-gpr-fp", "add eax, fp1", "asm(g): line 4:10: add: operand 2 fp1 is not accepted"},
	{"write-non-gpr", "mov mm0, eax", "asm(g): line 4:5: mov: operand 1 mm0 is not accepted"},
	{"missing-source", "mov eax", "asm(g): line 4:1: mov: operand 2 is missing"},
	{"missing-push", "push", "asm(g): line 4:1: push: operand 1 is missing"},
	{"missing-idiv", "idiv", "asm(g): line 4:1: idiv: operand 1 is missing"},
	{"imm-destination", "mov 5, eax", "asm(g): line 4:5: mov: operand 1 5 is not accepted"},
	{"pop-imm", "pop 5", "asm(g): line 4:5: pop: operand 1 5 is not accepted"},
	{"pop-none", "pop", "asm(g): line 4:1: pop: operand 1 is missing"},
	{"pop-mm", "pop mm0", "asm(g): line 4:5: pop: operand 1 mm0 is not accepted"},
	{"not-imm", "not 7", "asm(g): line 4:5: not: operand 1 7 is not accepted"},
	{"load-qword", "mov eax, qword [esi]", "asm(g): line 4:10: mov: operand 2 qword [esi] is not accepted"},
	{"store-qword", "mov qword [esi], eax", "asm(g): line 4:5: mov: operand 1 qword [esi] is not accepted"},
	{"lea-register", "lea eax, ebx", "asm(g): line 4:10: lea: operand 2 ebx is not accepted"},
	{"xchg-memory", "xchg eax, dword [esi]", "asm(g): line 4:11: xchg: operand 2 dword [esi] is not accepted"},
	{"xchg-mm", "xchg mm0, mm1", "asm(g): line 4:6: xchg: operand 1 mm0 is not accepted"},
	{"xchg-fp", "xchg eax, fp7", "asm(g): line 4:11: xchg: operand 2 fp7 is not accepted"},
	{"movzx-mm", "movzx.b eax, mm0", "asm(g): line 4:14: movzx.b: operand 2 mm0 is not accepted"},
	{"movsx-fp", "movsx.w eax, fp1", "asm(g): line 4:14: movsx.w: operand 2 fp1 is not accepted"},

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
	{"fp-after-mmx-static", "movq mm0, mm1\nfchs eax", "asm(g): line 5:6: fchs: operand 1 eax is not accepted"},
	{"fldc-register", "fldc fp0, fp1", "asm(g): line 4:11: fldc: operand 2 fp1 is not accepted"},
	{"fst-word", "fst word [esi], fp0", "asm(g): line 4:5: fst: operand 1 word [esi] is not accepted"},
	{"fst-imm", "fst 5, fp0", "asm(g): line 4:5: fst: operand 1 5 is not accepted"},
	{"fst-range", "fst qword [ebp], fp0", "vm(g) pc=2 [fst qword [ebp], fp0]: fst out of range at 0x7fffff00"},
	{"fild-register", "fild fp0, eax", "asm(g): line 4:11: fild: operand 2 eax is not accepted"},
	{"fild-qword", "fild fp0, qword [esi]", "asm(g): line 4:11: fild: operand 2 qword [esi] is not accepted"},
	{"fild-range", "fild fp0, dword [ebp]", "vm(g) pc=2 [fild fp0, dword [ebp]]: fild out of range at 0x7fffff00"},
	{"fist-register", "fist eax, fp0", "asm(g): line 4:6: fist: operand 1 eax is not accepted"},
	{"fist-qword", "fist qword [esi], fp0", "asm(g): line 4:6: fist: operand 1 qword [esi] is not accepted"},
	{"fist-range", "fist word [ebp], fp0", "vm(g) pc=2 [fist word [ebp], fp0]: fist out of range at 0x7fffff00"},
	{"fist-gpr-source", "fist dword [esi], eax", "asm(g): line 4:19: fist: operand 2 eax is not accepted"},
	{"fp-expected", "fadd eax, fp0", "asm(g): line 4:6: fadd: operand 1 eax is not accepted"},
	{"fp-expected-none", "fchs", "asm(g): line 4:1: fchs: operand 1 is missing"},
	{"fp-destination", "fld eax, fp0", "asm(g): line 4:5: fld: operand 1 eax is not accepted"},
	{"fp-destination-load", "fild eax, word [esi]", "asm(g): line 4:6: fild: operand 1 eax is not accepted"},
	{"fst-register-destination", "fst eax, fp0", "asm(g): line 4:5: fst: operand 1 eax is not accepted"},
	{"float-load", "fld fp0, dword [ebp]", "vm(g) pc=2 [fld fp0, dword [ebp]]: float load out of range at 0x7fffff00"},
	{"double-load", "fmul fp0, qword [ebp]", "vm(g) pc=2 [fmul fp0, qword [ebp]]: double load out of range at 0x7fffff00"},
	{"float-size", "fcom fp0, word [esi]", "asm(g): line 4:11: fcom: operand 2 word [esi] is not accepted"},
	{"float-imm", "fld fp0, 5", "asm(g): line 4:10: fld: operand 2 5 is not accepted"},

	// MMX.
	{"movq-destination", "movq eax, mm0", "asm(g): line 4:6: movq: operand 1 eax is not accepted"},
	{"movq-store", "movq qword [ebp], mm0", "vm(g) pc=2 [movq qword [ebp], mm0]: movq store out of range at 0x7fffff00"},
	{"mm-expected", "paddw eax, mm0", "asm(g): line 4:7: paddw: operand 1 eax is not accepted"},
	{"movd-gpr-gpr", "movd eax, ebx", "asm(g): line 4:11: movd: operand 2 ebx is not accepted"},
	{"mmx-dword-load", "pmaddwd mm0, dword [ebp]", "vm(g) pc=2 [pmaddwd mm0, dword [ebp]]: mmx dword load out of range at 0x7fffff00"},
	{"mmx-qword-load", "psraw mm0, qword [ebp]", "vm(g) pc=2 [psraw mm0, qword [ebp]]: mmx qword load out of range at 0x7fffff00"},
	{"mmx-imm", "paddw mm0, 5", "asm(g): line 4:12: paddw: operand 2 5 is not accepted"},
	{"mmx-none", "psllq mm0", "asm(g): line 4:1: psllq: operand 2 is missing"},

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
			if rejected := strings.HasPrefix(gf.want, "asm(g): line "); err != nil || rejected {
				if err == nil || err.Error() != gf.want {
					t.Errorf("parse:\n got  %v\n want %s", err, gf.want)
				}
				return
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
