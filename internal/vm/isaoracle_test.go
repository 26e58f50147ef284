package vm_test

// The ISA oracle differential: generated programs draw every opcode in
// every operand shape — byte/word/dword/qword memory operands, immediates,
// shifts by ecx, idiv by zero and past 32 bits, fild/fist at both widths,
// call/ret/jcc, and the shapes that fault — and every execution path
// (per-instruction, block dispatch, trace dispatch) must leave exactly the
// registers, memory, Executed() count and fault the independent reference
// interpreter of internal/isaref predicts. Run again with profiling on
// from the first instruction, every path must also give the same report.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/isaref"
	"mmxdsp/internal/mem"
	"mmxdsp/internal/pentium"
	"mmxdsp/internal/profile"
	"mmxdsp/internal/vm"
)

// oracleBuf is the size of the data buffer every integer and MMX memory
// operand addresses through esi; ebp is a loop-derived index (0-7) into
// it. FP loads and stores use fbuf, oracleFSlots doubles, instead: the bits
// they see are always floats some FP instruction wrote, so a NaN can only
// come from FP arithmetic. FP registers and memory compare by their bits,
// NaNs included: both sides pick a NaN result by the x87 rule.
const (
	oracleBuf    = 512
	oracleFSlots = 32
)

// oracleGen emits a random program as assembler source.
type oracleGen struct {
	r      *rand.Rand
	lines  []string
	labels int
	// shapes records every shape name emitted, for the coverage check.
	shapes map[string]bool
}

func (g *oracleGen) emit(format string, args ...any) {
	g.lines = append(g.lines, fmt.Sprintf(format, args...))
}

func (g *oracleGen) label() string {
	g.labels++
	return fmt.Sprintf("l%d", g.labels)
}

// wr is a GPR the body may write; rd any GPR it may read.
func (g *oracleGen) wr() string { return []string{"eax", "ebx", "edx", "edi"}[g.r.Intn(4)] }
func (g *oracleGen) rd() string {
	return []string{"eax", "ebx", "ecx", "edx", "esi", "edi", "ebp", "esp"}[g.r.Intn(8)]
}
func (g *oracleGen) mm() string { return fmt.Sprintf("mm%d", g.r.Intn(8)) }
func (g *oracleGen) fp() string { return fmt.Sprintf("fp%d", g.r.Intn(8)) }

// imm draws an immediate, half the time a boundary value.
func (g *oracleGen) imm() int64 {
	if g.r.Intn(2) == 0 {
		return []int64{0, 1, 2, 7, 31, 32, 33, -1, -2, 0x7FFFFFFF, -0x80000000, 0xFFFF, 0x8000}[g.r.Intn(13)]
	}
	return int64(int32(g.r.Uint32()))
}

// m renders a memory operand of the given width prefix ("" for none) inside
// the buffer, with or without the ebp index.
func (g *oracleGen) m(size string) string {
	d := g.r.Intn(oracleBuf - 8*8 - 8)
	addr := fmt.Sprintf("[esi+%d]", d)
	if g.r.Intn(2) == 0 {
		addr = fmt.Sprintf("[esi+ebp*%d+%d]", []int{1, 2, 4, 8}[g.r.Intn(4)], d)
	}
	if size == "" {
		return addr
	}
	return size + " " + addr
}

// fm renders a float32 ("dword") or float64 ("qword") operand in fbuf,
// the region only FP loads and stores touch, at an 8-byte slot.
func (g *oracleGen) fm(size string) string {
	d := 8 * g.r.Intn(oracleFSlots-8)
	if g.r.Intn(2) == 0 {
		return fmt.Sprintf("%s [fbuf+ebp*8+%d]", size, d)
	}
	return fmt.Sprintf("%s [fbuf+%d]", size, d)
}

// fmAny draws a float32 or float64 operand in fbuf.
func (g *oracleGen) fmAny() string { return g.fm(pick(g.r, []string{"dword", "qword"})) }

// msz draws an integer memory width, "" (dword) included.
func (g *oracleGen) msz() string { return []string{"byte", "word", "dword", ""}[g.r.Intn(4)] }

// oracleShape is one instruction shape: a name (for coverage) and its
// emitter.
type oracleShape struct {
	name string
	emit func(g *oracleGen)
}

var aluOps = []string{"add", "adc", "sub", "sbb", "and", "or", "xor"}

func pick(r *rand.Rand, s []string) string { return s[r.Intn(len(s))] }

// intShapes are the integer and control shapes; they may run in any mode.
var intShapes = []oracleShape{
	{"mov r,r", func(g *oracleGen) { g.emit("mov %s, %s", g.wr(), g.rd()) }},
	{"mov r,i", func(g *oracleGen) { g.emit("mov %s, %d", g.wr(), g.imm()) }},
	{"mov r,m", func(g *oracleGen) { g.emit("mov %s, %s", g.wr(), g.m(g.msz())) }},
	{"mov m,r", func(g *oracleGen) { g.emit("mov %s, %s", g.m(g.msz()), g.rd()) }},
	{"mov m,i", func(g *oracleGen) { g.emit("mov %s, %d", g.m(g.msz()), g.imm()) }},
	{"mov m,m", func(g *oracleGen) { g.emit("mov %s, %s", g.m(g.msz()), g.m(g.msz())) }},
	{"movx r,r", func(g *oracleGen) {
		g.emit("%s %s, %s", pick(g.r, []string{"movzx.b", "movzx.w", "movsx.b", "movsx.w"}), g.wr(), g.rd())
	}},
	{"movx r,m", func(g *oracleGen) {
		g.emit("%s %s, %s", pick(g.r, []string{"movzx.b", "movzx.w", "movsx.b", "movsx.w"}), g.wr(), g.m(pick(g.r, []string{"byte", "word", "dword", "qword", ""})))
	}},
	// A non-register movzx/movsx source is read at its address fields: an
	// immediate reads address 0.
	{"movx r,i", func(g *oracleGen) {
		g.emit("%s %s, %d", pick(g.r, []string{"movzx.b", "movzx.w", "movsx.b", "movsx.w"}), g.wr(), g.imm())
	}},
	{"movx m,r", func(g *oracleGen) { g.emit("movzx.w %s, %s", g.m(g.msz()), g.rd()) }},
	{"lea r,m", func(g *oracleGen) { g.emit("lea %s, %s", g.wr(), g.m("")) }},
	{"lea m,m", func(g *oracleGen) { g.emit("lea %s, %s", g.m(g.msz()), g.m("")) }},
	{"xchg r,r", func(g *oracleGen) { g.emit("xchg %s, %s", g.wr(), g.wr()) }},
	{"push/pop", func(g *oracleGen) {
		src := pick(g.r, []string{g.rd(), fmt.Sprint(g.imm()), g.m(pick(g.r, []string{"byte", "word", "dword", ""}))})
		dst := g.wr()
		if g.r.Intn(3) == 0 {
			dst = g.m(g.msz())
		}
		g.emit("push %s", src)
		g.emit("pop %s", dst)
	}},
	{"alu r,r", func(g *oracleGen) { g.emit("%s %s, %s", pick(g.r, aluOps), g.wr(), g.rd()) }},
	{"alu r,i", func(g *oracleGen) { g.emit("%s %s, %d", pick(g.r, aluOps), g.wr(), g.imm()) }},
	{"alu r,m", func(g *oracleGen) { g.emit("%s %s, %s", pick(g.r, aluOps), g.wr(), g.m(g.msz())) }},
	{"alu m,r", func(g *oracleGen) { g.emit("%s %s, %s", pick(g.r, aluOps), g.m(g.msz()), g.rd()) }},
	{"alu m,i", func(g *oracleGen) { g.emit("%s %s, %d", pick(g.r, aluOps), g.m(g.msz()), g.imm()) }},
	{"alu m,m", func(g *oracleGen) { g.emit("%s %s, %s", pick(g.r, aluOps), g.m(g.msz()), g.m(g.msz())) }},
	{"cmp/test", func(g *oracleGen) {
		a := pick(g.r, []string{g.rd(), g.m(g.msz()), fmt.Sprint(g.imm())})
		b := pick(g.r, []string{g.rd(), g.m(g.msz()), fmt.Sprint(g.imm())})
		g.emit("%s %s, %s", pick(g.r, []string{"cmp", "test"}), a, b)
	}},
	{"imul", func(g *oracleGen) {
		dst := g.wr()
		if g.r.Intn(4) == 0 {
			dst = g.m(g.msz())
		}
		g.emit("imul %s, %s", dst, pick(g.r, []string{g.rd(), g.m(g.msz()), fmt.Sprint(g.imm())}))
	}},
	{"unary", func(g *oracleGen) {
		dst := g.wr()
		if g.r.Intn(3) == 0 {
			dst = g.m(g.msz())
		}
		g.emit("%s %s", pick(g.r, []string{"not", "neg", "inc", "dec"}), dst)
	}},
	{"shift r,i", func(g *oracleGen) {
		g.emit("%s %s, %d", pick(g.r, []string{"shl", "shr", "sar"}), g.wr(), g.imm())
	}},
	{"shift r,cl", func(g *oracleGen) {
		g.emit("%s %s, ecx", pick(g.r, []string{"shl", "shr", "sar"}), g.wr())
	}},
	{"shift r,m", func(g *oracleGen) {
		g.emit("%s %s, %s", pick(g.r, []string{"shl", "shr", "sar"}), g.wr(), g.m(g.msz()))
	}},
	{"shift m,i/cl", func(g *oracleGen) {
		g.emit("%s %s, %s", pick(g.r, []string{"shl", "shr", "sar"}), g.m(g.msz()), pick(g.r, []string{"ecx", fmt.Sprint(g.imm())}))
	}},
	{"idiv", func(g *oracleGen) {
		// cdq first keeps the quotient in range unless the dividend is
		// -2^31 and the divisor -1; a zero divisor faults.
		g.emit("mov eax, %d", g.imm())
		g.emit("cdq")
		g.emit("mov ebx, %d", []int64{g.imm(), 3, -7, 1000}[g.r.Intn(4)])
		if g.r.Intn(2) == 0 {
			g.emit("idiv ebx")
		} else {
			g.emit("mov dword [esi+%d], ebx", 8*g.r.Intn(8))
			g.emit("idiv dword [esi+%d]", 8*g.r.Intn(8))
		}
	}},
	{"idiv-wide", func(g *oracleGen) {
		// A random edx usually overflows the 32-bit quotient.
		g.emit("mov edx, %d", []int64{g.imm(), 0, -1}[g.r.Intn(3)])
		g.emit("mov eax, %d", g.imm())
		g.emit("mov edi, %d", g.imm())
		g.emit("idiv edi")
	}},
	{"jcc", func(g *oracleGen) {
		l := g.label()
		g.emit("%s %s, %s", pick(g.r, []string{"cmp", "test"}), g.wr(), pick(g.r, []string{g.rd(), fmt.Sprint(g.imm())}))
		g.emit("%s %s", pick(g.r, []string{"je", "jne", "jl", "jle", "jg", "jge", "jb", "jbe", "ja", "jae", "js", "jns"}), l)
		g.emit("add %s, %d", g.wr(), g.imm())
		g.emit("%s:", l)
	}},
	{"jmp", func(g *oracleGen) {
		l := g.label()
		g.emit("jmp %s", l)
		g.emit("mov %s, 5", g.wr())
		g.emit("%s:", l)
	}},
	{"call", func(g *oracleGen) { g.emit("call leaf") }},
	{"nop", func(g *oracleGen) { g.emit("nop") }},
}

// mmxShapes run with MMX state active; the section ends in emms.
var mmxShapes = []oracleShape{
	{"movd mm,r/i/m", func(g *oracleGen) {
		g.emit("movd %s, %s", g.mm(), pick(g.r, []string{g.rd(), fmt.Sprint(g.imm()), g.m(g.msz())}))
	}},
	{"movd r/m,mm", func(g *oracleGen) {
		g.emit("movd %s, %s", pick(g.r, []string{g.wr(), g.m(g.msz())}), g.mm())
	}},
	{"movd r/m,m", func(g *oracleGen) {
		g.emit("movd %s, %s", pick(g.r, []string{g.wr(), g.m(g.msz())}), g.m(pick(g.r, []string{"dword", "qword", ""})))
	}},
	{"movq mm,mm/m", func(g *oracleGen) {
		g.emit("movq %s, %s", g.mm(), pick(g.r, []string{g.mm(), g.m("qword"), g.m("dword"), g.m("")}))
	}},
	{"movq m,mm/m", func(g *oracleGen) {
		g.emit("movq %s, %s", g.m("qword"), pick(g.r, []string{g.mm(), g.m("qword"), g.m("dword")}))
	}},
	{"mmx binary", func(g *oracleGen) {
		g.emit("%s %s, %s", pick(g.r, mmxBinaryNames), g.mm(), pick(g.r, []string{g.mm(), g.m("qword"), g.m("dword"), g.m("")}))
	}},
	{"mmx shift", func(g *oracleGen) {
		n := []int64{0, 1, 7, 15, 16, 31, 32, 63, 64, 70, -1}[g.r.Intn(11)]
		g.emit("%s %s, %s", pick(g.r, mmxShiftNames), g.mm(), pick(g.r, []string{fmt.Sprint(n), g.mm(), g.m("qword"), g.m("dword")}))
	}},
}

// fpShapes run with MMX state off.
var fpShapes = []oracleShape{
	{"fld", func(g *oracleGen) {
		g.emit("fld %s, %s", g.fp(), pick(g.r, []string{g.fp(), g.fmAny()}))
	}},
	{"fldc", func(g *oracleGen) {
		g.emit("fldc %s, %d", g.fp(), int64(math.Float64bits(g.r.NormFloat64()*1e4)))
	}},
	{"fst", func(g *oracleGen) {
		g.emit("fst %s, %s", pick(g.r, []string{g.fp(), g.fmAny()}), g.fp())
	}},
	{"fild", func(g *oracleGen) { g.emit("fild %s, %s", g.fp(), g.m(pick(g.r, []string{"word", "dword"}))) }},
	{"fist", func(g *oracleGen) { g.emit("fist %s, %s", g.m(pick(g.r, []string{"word", "dword"})), g.fp()) }},
	{"farith", func(g *oracleGen) {
		g.emit("%s %s, %s", pick(g.r, []string{"fadd", "fsub", "fsubr", "fmul", "fdiv"}), g.fp(), pick(g.r, []string{g.fp(), g.fmAny()}))
	}},
	{"funary", func(g *oracleGen) {
		g.emit("%s %s", pick(g.r, []string{"fchs", "fabs", "fsqrt", "fsin", "fcos"}), g.fp())
	}},
	{"fcom", func(g *oracleGen) {
		l := g.label()
		g.emit("fcom %s, %s", g.fp(), pick(g.r, []string{g.fp(), g.fmAny()}))
		g.emit("%s %s", pick(g.r, []string{"je", "jne", "jb", "jbe", "ja", "jae"}), l)
		g.emit("fchs %s", g.fp())
		g.emit("%s:", l)
	}},
}

var mmxBinaryNames, mmxShiftNames []string

func init() {
	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		switch op.Class() {
		case isa.ClassMMXPack, isa.ClassMMXArith, isa.ClassMMXMul:
			mmxBinaryNames = append(mmxBinaryNames, op.Name())
		case isa.ClassMMXShift:
			mmxShiftNames = append(mmxShiftNames, op.Name())
		}
	}
}

// faultShapes fault once reached; section says where they may go ("int",
// "mmx" or "fp"). Each runs behind a guard so that it faults on one
// chosen iteration.
var faultShapes = []struct {
	section, src string
}{
	{"int", "mov eax, mm0"}, {"int", "add eax, fp1"}, {"int", "mov mm0, eax"},
	{"int", "mov eax"}, {"int", "push"}, {"int", "idiv"}, {"int", "mov 5, eax"},
	{"int", "pop 5"}, {"int", "pop"}, {"int", "pop mm0"}, {"int", "not 7"},
	{"int", "mov eax, qword [esi]"}, {"int", "mov qword [esi], eax"},
	{"int", "add eax, qword [esi+8]"}, {"int", "push qword [esi]"},
	{"int", "lea eax, ebx"}, {"int", "xchg eax, dword [esi]"},
	{"int", "xchg mm0, mm1"}, {"int", "xchg eax, fp7"}, {"int", "movzx.b eax, mm0"}, {"int", "movsx.w eax, fp1"},
	{"int", "add 5, eax"}, {"int", "shl 5, ecx"}, {"int", "shr 7, 0"}, {"int", "sar 7, dword [esi+8]"},
	{"int", "mov eax, byte [esi+0x7fff0000]"}, {"int", "mov word [esi+0x7fff0000], eax"},
	{"int", "add dword [esi+0x7fff0000], 3"}, {"int", "shl word [esi+0x7fff0000], ecx"},
	{"int", "mov ebx, 0\nidiv ebx"}, {"int", "mov edx, 256\nmov eax, 0\nmov ebx, 2\nidiv ebx"},
	{"int", "mov esp, 0x7fffff00\npush eax"}, {"int", "mov esp, 0x7fffff00\npop eax"},
	{"int", "mov esp, 0x7fffff00\ncall leaf"}, {"int", "mov esp, 0x7fffff00\nret"},
	{"int", "push 999999\nret"},
	{"mmx", "movq eax, mm0"}, {"mmx", "movq qword [esi+0x7fff0000], mm0"},
	{"mmx", "paddw eax, mm0"}, {"mmx", "movd eax, ebx"}, {"mmx", "pmaddwd mm0, dword [esi+0x7fff0000]"},
	{"mmx", "psraw mm0, qword [esi+0x7fff0000]"}, {"mmx", "paddw mm0, 5"}, {"mmx", "psllq mm0"},
	{"mmx", "movd mm1, qword [esi]"}, {"mmx", "movd qword [esi], mm1"},
	{"mmx", "fadd fp0, fp1"}, {"mmx", "fchs eax"},
	{"fp", "fldc fp0, fp1"}, {"fp", "fst word [esi], fp0"}, {"fp", "fst 5, fp0"},
	{"fp", "fst qword [esi+0x7fff0000], fp0"}, {"fp", "fild fp0, eax"}, {"fp", "fild fp0, qword [esi]"},
	{"fp", "fild fp0, dword [esi+0x7fff0000]"}, {"fp", "fist eax, fp0"}, {"fp", "fist qword [esi], fp0"},
	{"fp", "fist word [esi+0x7fff0000], fp0"}, {"fp", "fist dword [esi], eax"}, {"fp", "fadd eax, fp0"},
	{"fp", "fchs"}, {"fp", "fld eax, fp0"}, {"fp", "fild eax, word [esi]"}, {"fp", "fld eax, dword [esi]"},
	{"fp", "fst eax, fp0"}, {"fp", "fld fp0, dword [esi+0x7fff0000]"}, {"fp", "fmul fp0, qword [esi+0x7fff0000]"},
	{"fp", "fcom fp0, word [esi]"}, {"fp", "fld fp0, 5"},
}

// forcedOp is the opcode seed places before its loop.
func forcedOp(seed int64) isa.Op { return isa.Op(1 + seed%int64(isa.NumOps-1)) }

// forcedLines returns source that retires op once. Seed i places the lines
// of opcode 1 + i mod (NumOps-1) before its loop, at most 16 instructions
// in: ahead of every fault guard and within the smallest budget, so a sweep
// of NumOps-1 seeds retires every opcode whatever its random draws. They
// draw nothing from the generator's random stream, so the rest of each
// program is what the seed would give without them. halt closes every
// program; profon and profoff are not required.
func forcedLines(g *oracleGen, op isa.Op) []string {
	n := op.Name()
	switch op {
	case isa.HALT, isa.PROFON, isa.PROFOFF, isa.FLDC:
		return nil
	case isa.MOVD:
		return []string{"movd mm0, eax", "emms"}
	case isa.MOVQ:
		return []string{"movq mm0, mm1", "emms"}
	case isa.EMMS, isa.NOP:
		return []string{n}
	case isa.LEA:
		return []string{"lea eax, [esi+8]"}
	case isa.PUSH, isa.POP:
		return []string{"push ebx", "pop eax"}
	case isa.CDQ, isa.IDIV:
		return []string{"mov ebx, 3", "cdq", "idiv ebx"}
	case isa.NOT, isa.NEG, isa.INC, isa.DEC:
		return []string{n + " eax"}
	case isa.SHL, isa.SHR, isa.SAR:
		return []string{n + " eax, 3"}
	case isa.CALL, isa.RET:
		return []string{"call leaf"}
	case isa.JMP:
		l := g.label()
		return []string{"jmp " + l, l + ":"}
	case isa.FLD:
		return []string{"fld fp0, fp1"}
	case isa.FST:
		return []string{"fst fp1, fp0"}
	case isa.FILD:
		return []string{"fild fp0, dword [esi]"}
	case isa.FIST:
		return []string{"fist dword [esi+8], fp0"}
	case isa.FCHS, isa.FABS, isa.FSQRT, isa.FSIN, isa.FCOS:
		return []string{n + " fp0"}
	}
	switch op.Class() {
	case isa.ClassBranch:
		l := g.label()
		return []string{"cmp eax, ebx", n + " " + l, l + ":"}
	case isa.ClassFPArith, isa.ClassFPDiv:
		return []string{n + " fp0, fp1"}
	case isa.ClassMMXPack, isa.ClassMMXArith, isa.ClassMMXMul:
		return []string{n + " mm0, mm1", "emms"}
	case isa.ClassMMXShift:
		return []string{n + " mm0, 3", "emms"}
	}
	// mov, movzx/movsx, xchg, the two-operand ALU ops and imul.
	return []string{n + " eax, ebx"}
}

// oracleProgram generates the program for seed. It is a loop of iters
// iterations over an integer section, an MMX section closed by emms, an FP
// section and a second integer section; leaf is a called procedure. Every
// shape of each list appears in some seed: seed picks one of each
// deterministically, the rest are random. Every opcode appears in some
// seed too: the seed's forcedLines run before the loop. Even seeds also
// place a fault shape, which faults on one iteration (or never, when the
// guard never fires).
func oracleProgram(seed int64) (string, map[string]bool) {
	r := rand.New(rand.NewSource(seed))
	g := &oracleGen{r: r, shapes: map[string]bool{}}
	data := make([]string, oracleBuf/4)
	for i := range data {
		data[i] = fmt.Sprint(int32(g.imm()))
	}
	g.emit(".dwords buf %s", strings.Join(data, ","))
	fdata := make([]string, 2*oracleFSlots)
	for i := 0; i < oracleFSlots; i++ {
		v := math.Float64bits(r.NormFloat64() * 100)
		fdata[2*i], fdata[2*i+1] = fmt.Sprint(int32(v)), fmt.Sprint(int32(v>>32))
	}
	g.emit(".dwords fbuf %s", strings.Join(fdata, ","))
	iters := 3 + r.Intn(12)
	if r.Intn(3) == 0 {
		iters = 40 + r.Intn(80)
	}
	g.emit("mov esi, buf")
	for i := 0; i < 8; i++ {
		g.emit("fldc fp%d, %d", i, int64(math.Float64bits(r.NormFloat64()*100)))
	}
	for _, reg := range []string{"eax", "ebx", "edx", "edi"} {
		g.emit("mov %s, %d", reg, g.imm())
	}
	for _, l := range forcedLines(g, forcedOp(seed)) {
		g.emit("%s", l)
	}
	g.emit("mov ecx, %d", iters)
	g.emit("loop:")
	g.emit("mov ebp, ecx")
	g.emit("and ebp, 7")

	body := func(list []oracleShape, n int, fixed int) {
		idx := []int{fixed % len(list)}
		for i := 1; i < n; i++ {
			idx = append(idx, r.Intn(len(list)))
		}
		for _, i := range idx {
			g.shapes[list[i].name] = true
			list[i].emit(g)
		}
	}
	fault := -1
	if seed%2 == 0 {
		fault = int(seed/2) % len(faultShapes)
	}
	faultAt := 1 + r.Intn(iters+1) // iters+1 never fires
	guarded := func(section string) {
		if fault < 0 || faultShapes[fault].section != section {
			return
		}
		l := g.label()
		g.emit("cmp ecx, %d", faultAt)
		g.emit("jne %s", l)
		g.emit("%s", faultShapes[fault].src)
		g.emit("%s:", l)
		g.shapes["fault: "+faultShapes[fault].src] = true
	}
	body(intShapes, 2+r.Intn(10), int(seed))
	guarded("int")
	body(mmxShapes, 1+r.Intn(6), int(seed))
	guarded("mmx")
	g.emit("emms")
	body(fpShapes, 1+r.Intn(6), int(seed))
	guarded("fp")
	body(intShapes, 1+r.Intn(6), int(seed)/len(intShapes))
	g.emit("sub ecx, 1")
	g.emit("jne loop")
	g.emit("halt")
	g.emit(".proc leaf")
	g.emit("add %s, %s", g.wr(), g.rd())
	g.emit("ret")
	return strings.Join(g.lines, "\n") + "\n", g.shapes
}

// oraclePrograms is how many seeds TestISAOracle sweeps.
func oraclePrograms() int {
	if testing.Short() {
		return 150
	}
	return 400
}

// oracleBudget draws the instruction budget of a seed's run: usually
// ample, sometimes cut short inside the loop.
func oracleBudget(seed int64) int64 {
	if seed%4 == 3 {
		return 20 + seed*7%300
	}
	return 1 << 20
}

// checkISAOracle runs one seed's program on isaref and on every path.
func checkISAOracle(t *testing.T, seed int64) (*isaref.Machine, map[string]bool) {
	t.Helper()
	src, shapes := oracleProgram(seed)
	prog, err := asm.ParseSource(fmt.Sprintf("isa%d", seed), src)
	if err != nil {
		t.Fatalf("seed %d: parse: %v\n%s", seed, err, src)
	}
	budget := oracleBudget(seed)
	ref := isaref.New(prog)
	want := ref.Run(budget)
	code := vm.Compile(prog)
	var first *vm.CPU
	var firstCache mem.HierarchyStats
	for _, mode := range []string{"generic", "block", "trace"} {
		cpu := vm.NewWithCode(code)
		model := pentium.New(pentium.DefaultConfig())
		model.Bind(prog)
		cpu.Obs = profile.NewCollector(prog, model)
		cpu.Hier = mem.NewHierarchy()
		cpu.Generic = mode == "generic"
		cpu.Traces = mode == "trace"
		cpu.TraceThreshold = 4
		err := cpu.Run(budget)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d, %s: %s\n%s", seed, mode, fmt.Sprintf(format, args...), src)
		}
		switch {
		case want == nil && err != nil:
			fail("fault %v, isaref halts", err)
		case want != nil && err == nil:
			fail("halts, isaref faults at pc=%d: %s", want.PC, want.Msg)
		case want != nil && (!strings.HasSuffix(err.Error(), ": "+want.Msg) ||
			!strings.Contains(err.Error(), fmt.Sprintf(" pc=%d ", want.PC))):
			fail("fault %q, isaref pc=%d: %s", err, want.PC, want.Msg)
		}
		if got := cpu.Executed(); got != ref.Executed {
			fail("Executed() = %d, isaref %d", got, ref.Executed)
		}
		for i := 0; i < 8; i++ {
			if g, w := cpu.GPR(isa.EAX+isa.Reg(i)), ref.GPR[i]; g != w {
				fail("%s = %#x, isaref %#x", isa.EAX+isa.Reg(i), g, w)
			}
			if g, w := uint64(cpu.MM(isa.MM0+isa.Reg(i))), ref.MM[i]; g != w {
				fail("mm%d = %#x, isaref %#x", i, g, w)
			}
			if g, w := cpu.FPReg(isa.FP0+isa.Reg(i)), ref.FP[i]; math.Float64bits(g) != math.Float64bits(w) {
				fail("fp%d = %#x, isaref %#x", i, math.Float64bits(g), math.Float64bits(w))
			}
		}
		if got := cpu.Mem.Bytes(); !bytes.Equal(got, ref.Mem) {
			i := 0
			for got[i] == ref.Mem[i] {
				i++
			}
			fail("memory differs first at %#x: %#x, isaref %#x", i, got[i], ref.Mem[i])
		}
		// The cache model sees the same references on every path.
		if first == nil {
			first, firstCache = cpu, cpu.Hier.Stats
		} else if cpu.Hier.Stats != firstCache {
			fail("cache stats %+v, per-instruction path %+v", cpu.Hier.Stats, firstCache)
		}
	}
	checkISAReports(t, seed, src, budget)
	return ref, shapes
}

// checkISAReports runs seed's program with profon as its first instruction
// on every path and, for runs that halt or stop at their budget, requires
// byte-equal reports: the per-instruction loop and the region pricing of
// block and trace dispatch must count, time and charge memory references
// alike. A run that faults has no report; the checks above already hold
// every path to the same fault.
func checkISAReports(t *testing.T, seed int64, src string, budget int64) {
	t.Helper()
	prog, err := asm.ParseSource(fmt.Sprintf("isa%d", seed), "profon\n"+src)
	if err != nil {
		t.Fatalf("seed %d: parse with profon: %v", seed, err)
	}
	code := vm.Compile(prog)
	var first []byte
	for _, mode := range []string{"generic", "block", "trace"} {
		cpu := vm.NewWithCode(code)
		model := pentium.New(pentium.DefaultConfig())
		model.Bind(prog)
		col := profile.NewCollector(prog, model)
		cpu.Obs = col
		cpu.Hier = mem.NewHierarchy()
		cpu.Generic = mode == "generic"
		cpu.Traces = mode == "trace"
		cpu.TraceThreshold = 4
		if err := cpu.Run(budget); err != nil && !errors.Is(err, vm.ErrBudget) {
			return
		}
		rep := col.Report(prog.Name)
		rep.CacheAccesses = cpu.Hier.Stats.Accesses
		rep.L1Misses = cpu.Hier.Stats.L1Misses
		rep.L2Misses = cpu.Hier.Stats.L2Misses
		got, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Fatalf("seed %d, %s: report with profon first differs from the per-instruction path:\n%s\nper-instruction:\n%s\n%s",
				seed, mode, got, first, src)
		}
	}
}

// TestISAOracle sweeps seeds and checks, besides each program, that the
// sweep as a whole retired every opcode and emitted every shape.
func TestISAOracle(t *testing.T) {
	shapes := map[string]bool{}
	var retired [isa.NumOps]int64
	for seed := int64(0); seed < int64(oraclePrograms()); seed++ {
		ref, s := checkISAOracle(t, seed)
		if op := forcedOp(seed); ref.Retired[op] == 0 && forcedLines(&oracleGen{}, op) != nil {
			t.Errorf("seed %d did not retire its forced %s", seed, op)
		}
		for k := range s {
			shapes[k] = true
		}
		for op, n := range ref.Retired {
			retired[op] += n
		}
	}
	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		if retired[op] == 0 && op != isa.PROFON && op != isa.PROFOFF {
			t.Errorf("no program retired %s", op)
		}
	}
	for _, list := range [][]oracleShape{intShapes, mmxShapes, fpShapes} {
		for _, s := range list {
			if !shapes[s.name] {
				t.Errorf("no program emitted shape %q", s.name)
			}
		}
	}
	for _, f := range faultShapes {
		if !shapes["fault: "+f.src] {
			t.Errorf("no program emitted fault shape %q", f.src)
		}
	}
}

// FuzzISAOracle lets `go test -fuzz` explore seeds beyond the sweep.
func FuzzISAOracle(f *testing.F) {
	for _, seed := range []int64{0, 7, 41, 1000, 123456} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if seed < 0 {
			seed = -(seed + 1)
		}
		checkISAOracle(t, seed)
	})
}
