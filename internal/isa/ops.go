package isa

import "fmt"

// Op is an opcode.
type Op uint16

// Integer, control, FP, MMX and pseudo opcodes.
const (
	BAD Op = iota

	// Integer data movement.
	MOV    // mov dst, src (reg/imm/mem)
	MOVZXB // movzx r32, byte src
	MOVZXW // movzx r32, word src
	MOVSXB // movsx r32, byte src
	MOVSXW // movsx r32, word src
	LEA    // lea r32, mem
	PUSH
	POP
	XCHG

	// Integer ALU.
	ADD
	ADC
	SUB
	SBB
	AND
	OR
	XOR
	NOT
	NEG
	INC
	DEC
	CMP
	TEST
	SHL
	SHR
	SAR
	IMUL // imul r32, src : dst = dst*src (10 cycles on Pentium, per the paper)
	IDIV // idiv src : eax = eax/src, edx = eax%src (simplified from edx:eax)
	CDQ  // sign-extend eax into edx

	// Control transfer.
	JMP
	JE
	JNE
	JL
	JLE
	JG
	JGE
	JB
	JBE
	JA
	JAE
	JS
	JNS
	CALL
	RET
	HALT // stop the machine (substitute for OS exit)

	// Floating point (flat register file; see package comment in regs.go).
	FLD   // fld fp, mem (Size selects float32/float64) or fp, fp
	FST   // fst mem, fp (Size selects float32/float64) or fp, fp
	FLDC  // load immediate constant (bits of a float64) into fp reg
	FILD  // load integer memory (SizeW/SizeD) into fp reg, converting
	FIST  // store fp reg to integer memory (SizeW/SizeD), round-to-nearest
	FADD  // fadd fp, src(fp|mem)
	FSUB  // fsub fp, src
	FSUBR // fsubr fp, src : dst = src - dst
	FMUL  // fmul fp, src
	FDIV  // fdiv fp, src
	FCHS
	FABS
	FSQRT
	FSIN
	FCOS
	FCOM // compare fp regs, set integer flags (simplified from fcom+fnstsw)

	// MMX data movement.
	MOVD // movd mm, r32/m32 (zero-extends) or r32/m32, mm (low dword)
	MOVQ // movq mm, mm/m64 or m64, mm

	// MMX pack/unpack.
	PACKSSWB
	PACKSSDW
	PACKUSWB
	PUNPCKLBW
	PUNPCKHBW
	PUNPCKLWD
	PUNPCKHWD
	PUNPCKLDQ
	PUNPCKHDQ

	// MMX arithmetic.
	PADDB
	PADDW
	PADDD
	PADDSB
	PADDSW
	PADDUSB
	PADDUSW
	PSUBB
	PSUBW
	PSUBD
	PSUBSB
	PSUBSW
	PSUBUSB
	PSUBUSW
	PMADDWD // 3 cycles for two 16x16 multiplies, per the paper
	PMULHW
	PMULLW

	// MMX compare.
	PCMPEQB
	PCMPEQW
	PCMPEQD
	PCMPGTB
	PCMPGTW
	PCMPGTD

	// MMX logical.
	PAND
	PANDN
	POR
	PXOR

	// MMX shift (by immediate or by mm register count).
	PSLLW
	PSLLD
	PSLLQ
	PSRLW
	PSRLD
	PSRLQ
	PSRAW
	PSRAD

	EMMS // empty MMX state: switch back to FP mode (up to 50-cycle penalty)

	// Pseudo instructions (zero cost, not counted by the profiler).
	NOP
	PROFON  // begin measured region
	PROFOFF // end measured region

	opCount
)

// NumOps is the number of opcodes including BAD.
const NumOps = int(opCount)

// Class buckets opcodes for instruction-mix reporting, pairing rules and
// micro-op decomposition.
type Class uint8

// Instruction classes.
const (
	ClassBad Class = iota
	ClassMove
	ClassALU
	ClassShift
	ClassMul
	ClassDiv
	ClassStack
	ClassBranch
	ClassJump
	ClassCall
	ClassRet
	ClassFPMove
	ClassFPArith
	ClassFPDiv
	ClassFPTrans // transcendental / sqrt
	ClassMMXMove
	ClassMMXPack  // pack and unpack
	ClassMMXArith // add/sub/compare/logical
	ClassMMXMul   // pmullw/pmulhw/pmaddwd
	ClassMMXShift //
	ClassEMMS     //
	ClassPseudo   // nop/profon/profoff/halt
	classCount
)

// NumClasses is the number of instruction classes including ClassBad.
const NumClasses = int(classCount)

var classNames = [...]string{
	ClassBad: "bad", ClassMove: "move", ClassALU: "alu", ClassShift: "shift",
	ClassMul: "mul", ClassDiv: "div", ClassStack: "stack",
	ClassBranch: "branch", ClassJump: "jump", ClassCall: "call", ClassRet: "ret",
	ClassFPMove: "fpmove", ClassFPArith: "fparith", ClassFPDiv: "fpdiv",
	ClassFPTrans: "fptrans",
	ClassMMXMove: "mmxmove", ClassMMXPack: "mmxpack", ClassMMXArith: "mmxarith",
	ClassMMXMul: "mmxmul", ClassMMXShift: "mmxshift", ClassEMMS: "emms",
	ClassPseudo: "pseudo",
}

// String returns the class name.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "class?"
}

// MMXCategory is the paper's Figure 1(a) bucketing of MMX instructions.
type MMXCategory uint8

// MMX instruction categories from the paper.
const (
	NotMMX MMXCategory = iota
	MMXPackUnpack
	MMXArithmetic // arithmetic, compares, logicals, shifts
	MMXMove       // movd / movq
	MMXEmms
)

// String returns the category label used in Figure 1(a).
func (c MMXCategory) String() string {
	switch c {
	case MMXPackUnpack:
		return "pack/unpack"
	case MMXArithmetic:
		return "mmx arith"
	case MMXMove:
		return "mmx mov"
	case MMXEmms:
		return "emms"
	default:
		return "non-mmx"
	}
}

// opInfo is the static metadata for one opcode.
type opInfo struct {
	name  string
	class Class
	// lat is the base execution latency in cycles on the Pentium-with-MMX
	// model, excluding cache and branch penalties.
	lat int
	// pairV reports whether the instruction may issue in the V pipe
	// (i.e. as the second instruction of a pair).
	pairV bool
	// pairU reports whether another instruction may pair behind this one
	// (set for "simple" one-cycle instructions).
	pairU bool
	// uops is the Pentium II micro-op count for the register form;
	// memory forms add uopLoad/uopStore (see UopCount).
	uops int
}

var opTable = [NumOps]opInfo{
	BAD: {"bad", ClassBad, 1, false, false, 1},

	MOV:    {"mov", ClassMove, 1, true, true, 1},
	MOVZXB: {"movzx.b", ClassMove, 1, true, true, 1},
	MOVZXW: {"movzx.w", ClassMove, 1, true, true, 1},
	MOVSXB: {"movsx.b", ClassMove, 1, true, true, 1},
	MOVSXW: {"movsx.w", ClassMove, 1, true, true, 1},
	LEA:    {"lea", ClassALU, 1, true, true, 1},
	PUSH:   {"push", ClassStack, 1, true, true, 3},
	POP:    {"pop", ClassStack, 1, true, true, 2},
	XCHG:   {"xchg", ClassMove, 2, false, false, 3},

	ADD:  {"add", ClassALU, 1, true, true, 1},
	ADC:  {"adc", ClassALU, 1, false, true, 2},
	SUB:  {"sub", ClassALU, 1, true, true, 1},
	SBB:  {"sbb", ClassALU, 1, false, true, 2},
	AND:  {"and", ClassALU, 1, true, true, 1},
	OR:   {"or", ClassALU, 1, true, true, 1},
	XOR:  {"xor", ClassALU, 1, true, true, 1},
	NOT:  {"not", ClassALU, 1, true, true, 1},
	NEG:  {"neg", ClassALU, 1, true, true, 1},
	INC:  {"inc", ClassALU, 1, true, true, 1},
	DEC:  {"dec", ClassALU, 1, true, true, 1},
	CMP:  {"cmp", ClassALU, 1, true, true, 1},
	TEST: {"test", ClassALU, 1, true, true, 1},
	// Shifts issue only in the U pipe on the Pentium.
	SHL: {"shl", ClassShift, 1, false, true, 1},
	SHR: {"shr", ClassShift, 1, false, true, 1},
	SAR: {"sar", ClassShift, 1, false, true, 1},
	// The paper: "the imul instruction ... does integer multiplication in
	// 10 cycles".
	IMUL: {"imul", ClassMul, 10, false, false, 1},
	IDIV: {"idiv", ClassDiv, 46, false, false, 4},
	CDQ:  {"cdq", ClassALU, 2, false, false, 1},

	// Branches pair only in the V pipe (issue as the second of a pair).
	JMP: {"jmp", ClassJump, 1, true, false, 1},
	JE:  {"je", ClassBranch, 1, true, false, 1},
	JNE: {"jne", ClassBranch, 1, true, false, 1},
	JL:  {"jl", ClassBranch, 1, true, false, 1},
	JLE: {"jle", ClassBranch, 1, true, false, 1},
	JG:  {"jg", ClassBranch, 1, true, false, 1},
	JGE: {"jge", ClassBranch, 1, true, false, 1},
	JB:  {"jb", ClassBranch, 1, true, false, 1},
	JBE: {"jbe", ClassBranch, 1, true, false, 1},
	JA:  {"ja", ClassBranch, 1, true, false, 1},
	JAE: {"jae", ClassBranch, 1, true, false, 1},
	JS:  {"js", ClassBranch, 1, true, false, 1},
	JNS: {"jns", ClassBranch, 1, true, false, 1},
	// Near call/ret cost a few cycles each for the stack update and the
	// return-address traffic; the paper leans on this overhead heavily
	// (23.88% of radar.mmx cycles in call+ret).
	CALL: {"call", ClassCall, 3, false, false, 4},
	RET:  {"ret", ClassRet, 3, false, false, 4},
	HALT: {"halt", ClassPseudo, 1, false, false, 1},

	FLD:   {"fld", ClassFPMove, 1, false, true, 1},
	FST:   {"fst", ClassFPMove, 2, false, true, 1},
	FLDC:  {"fldc", ClassFPMove, 1, false, true, 1},
	FILD:  {"fild", ClassFPMove, 3, false, false, 3},
	FIST:  {"fist", ClassFPMove, 6, false, false, 4},
	FADD:  {"fadd", ClassFPArith, 3, false, false, 1},
	FSUB:  {"fsub", ClassFPArith, 3, false, false, 1},
	FSUBR: {"fsubr", ClassFPArith, 3, false, false, 1},
	FMUL:  {"fmul", ClassFPArith, 3, false, false, 1},
	FDIV:  {"fdiv", ClassFPDiv, 39, false, false, 1},
	FCHS:  {"fchs", ClassFPArith, 1, false, true, 1},
	FABS:  {"fabs", ClassFPArith, 1, false, true, 1},
	FSQRT: {"fsqrt", ClassFPTrans, 70, false, false, 1},
	FSIN:  {"fsin", ClassFPTrans, 65, false, false, 8},
	FCOS:  {"fcos", ClassFPTrans, 65, false, false, 8},
	FCOM:  {"fcom", ClassFPArith, 4, false, false, 2},

	MOVD: {"movd", ClassMMXMove, 1, true, true, 1},
	MOVQ: {"movq", ClassMMXMove, 1, true, true, 1},

	PACKSSWB:  {"packsswb", ClassMMXPack, 1, true, true, 1},
	PACKSSDW:  {"packssdw", ClassMMXPack, 1, true, true, 1},
	PACKUSWB:  {"packuswb", ClassMMXPack, 1, true, true, 1},
	PUNPCKLBW: {"punpcklbw", ClassMMXPack, 1, true, true, 1},
	PUNPCKHBW: {"punpckhbw", ClassMMXPack, 1, true, true, 1},
	PUNPCKLWD: {"punpcklwd", ClassMMXPack, 1, true, true, 1},
	PUNPCKHWD: {"punpckhwd", ClassMMXPack, 1, true, true, 1},
	PUNPCKLDQ: {"punpckldq", ClassMMXPack, 1, true, true, 1},
	PUNPCKHDQ: {"punpckhdq", ClassMMXPack, 1, true, true, 1},

	PADDB:   {"paddb", ClassMMXArith, 1, true, true, 1},
	PADDW:   {"paddw", ClassMMXArith, 1, true, true, 1},
	PADDD:   {"paddd", ClassMMXArith, 1, true, true, 1},
	PADDSB:  {"paddsb", ClassMMXArith, 1, true, true, 1},
	PADDSW:  {"paddsw", ClassMMXArith, 1, true, true, 1},
	PADDUSB: {"paddusb", ClassMMXArith, 1, true, true, 1},
	PADDUSW: {"paddusw", ClassMMXArith, 1, true, true, 1},
	PSUBB:   {"psubb", ClassMMXArith, 1, true, true, 1},
	PSUBW:   {"psubw", ClassMMXArith, 1, true, true, 1},
	PSUBD:   {"psubd", ClassMMXArith, 1, true, true, 1},
	PSUBSB:  {"psubsb", ClassMMXArith, 1, true, true, 1},
	PSUBSW:  {"psubsw", ClassMMXArith, 1, true, true, 1},
	PSUBUSB: {"psubusb", ClassMMXArith, 1, true, true, 1},
	PSUBUSW: {"psubusw", ClassMMXArith, 1, true, true, 1},
	// The MMX multiplier is pipelined with a 3-cycle latency and lives in
	// the U pipe only. The paper: "the pmaddwd MMX instruction ... can
	// perform two multiplications in 3 cycles".
	PMADDWD: {"pmaddwd", ClassMMXMul, 3, false, true, 1},
	PMULHW:  {"pmulhw", ClassMMXMul, 3, false, true, 1},
	PMULLW:  {"pmullw", ClassMMXMul, 3, false, true, 1},

	PCMPEQB: {"pcmpeqb", ClassMMXArith, 1, true, true, 1},
	PCMPEQW: {"pcmpeqw", ClassMMXArith, 1, true, true, 1},
	PCMPEQD: {"pcmpeqd", ClassMMXArith, 1, true, true, 1},
	PCMPGTB: {"pcmpgtb", ClassMMXArith, 1, true, true, 1},
	PCMPGTW: {"pcmpgtw", ClassMMXArith, 1, true, true, 1},
	PCMPGTD: {"pcmpgtd", ClassMMXArith, 1, true, true, 1},

	PAND:  {"pand", ClassMMXArith, 1, true, true, 1},
	PANDN: {"pandn", ClassMMXArith, 1, true, true, 1},
	POR:   {"por", ClassMMXArith, 1, true, true, 1},
	PXOR:  {"pxor", ClassMMXArith, 1, true, true, 1},

	// The MMX shifter lives in the U pipe only.
	PSLLW: {"psllw", ClassMMXShift, 1, false, true, 1},
	PSLLD: {"pslld", ClassMMXShift, 1, false, true, 1},
	PSLLQ: {"psllq", ClassMMXShift, 1, false, true, 1},
	PSRLW: {"psrlw", ClassMMXShift, 1, false, true, 1},
	PSRLD: {"psrld", ClassMMXShift, 1, false, true, 1},
	PSRLQ: {"psrlq", ClassMMXShift, 1, false, true, 1},
	PSRAW: {"psraw", ClassMMXShift, 1, false, true, 1},
	PSRAD: {"psrad", ClassMMXShift, 1, false, true, 1},

	// "The emms ... instruction that switches from MMX to floating-point
	// mode can incur up to a 50-cycle penalty."
	EMMS: {"emms", ClassEMMS, 50, false, false, 11},

	NOP:     {"nop", ClassPseudo, 0, true, true, 0},
	PROFON:  {"profon", ClassPseudo, 0, false, false, 0},
	PROFOFF: {"profoff", ClassPseudo, 0, false, false, 0},
}

// Name returns the assembler mnemonic for the opcode.
func (op Op) Name() string {
	if int(op) < NumOps {
		return opTable[op].name
	}
	return fmt.Sprintf("op(%d)", uint16(op))
}

// String implements fmt.Stringer.
func (op Op) String() string { return op.Name() }

// Class returns the instruction class of the opcode.
func (op Op) Class() Class {
	if int(op) < NumOps {
		return opTable[op].class
	}
	return ClassBad
}

// Latency returns the base execution latency in cycles, excluding cache and
// branch penalties.
func (op Op) Latency() int { return opTable[op].lat }

// PairableV reports whether the instruction may issue as the second
// instruction of a U/V pair.
func (op Op) PairableV() bool { return opTable[op].pairV }

// PairableU reports whether another instruction may pair behind this one.
func (op Op) PairableU() bool { return opTable[op].pairU }

// BaseUops returns the Pentium II micro-op count of the register form.
func (op Op) BaseUops() int { return opTable[op].uops }

// IsMMX reports whether the opcode belongs to the MMX extension
// (including movd/movq and emms, as the paper counts them).
func (op Op) IsMMX() bool {
	switch op.Class() {
	case ClassMMXMove, ClassMMXPack, ClassMMXArith, ClassMMXMul, ClassMMXShift, ClassEMMS:
		return true
	}
	return false
}

// IsFP reports whether the opcode is a floating-point instruction.
func (op Op) IsFP() bool {
	switch op.Class() {
	case ClassFPMove, ClassFPArith, ClassFPDiv, ClassFPTrans:
		return true
	}
	return false
}

// IsBranch reports whether the opcode is a conditional branch.
func (op Op) IsBranch() bool { return op.Class() == ClassBranch }

// IsPseudo reports whether the opcode is a zero-cost pseudo instruction
// that the profiler must not count.
func (op Op) IsPseudo() bool { return op.Class() == ClassPseudo }

// EmitsEvent reports whether a retired instance of the opcode produces a VM
// retirement event. NOP and the profiling markers manage interpreter state
// but are invisible to observers.
func (op Op) EmitsEvent() bool {
	switch op {
	case NOP, PROFON, PROFOFF:
		return false
	}
	return true
}

// Category returns the paper's Figure 1(a) MMX bucket for the opcode.
func (op Op) Category() MMXCategory {
	switch op.Class() {
	case ClassMMXPack:
		return MMXPackUnpack
	case ClassMMXArith, ClassMMXMul, ClassMMXShift:
		return MMXArithmetic
	case ClassMMXMove:
		return MMXMove
	case ClassEMMS:
		return MMXEmms
	default:
		return NotMMX
	}
}

// MMXOpcodeCount is the number of MMX opcodes this ISA implements. Intel
// counts 57 MMX instructions at the encoding level (e.g. register and
// immediate shift forms count separately); at the mnemonic level this ISA
// provides the complete packed operation set.
func MMXOpcodeCount() int {
	n := 0
	for op := Op(0); op < opCount; op++ {
		if op.IsMMX() {
			n++
		}
	}
	return n
}
