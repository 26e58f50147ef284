package isa

import (
	"strings"
	"testing"
)

func TestEveryOpcodeHasMetadata(t *testing.T) {
	for op := Op(1); op < opCount; op++ {
		if op.Name() == "" || strings.HasPrefix(op.Name(), "op(") {
			t.Errorf("opcode %d has no name", op)
		}
		if op.Class() == ClassBad {
			t.Errorf("opcode %s has no class", op)
		}
		if op.Latency() < 0 {
			t.Errorf("opcode %s has negative latency", op)
		}
		if !op.IsPseudo() && op.Latency() == 0 {
			t.Errorf("opcode %s has zero latency but is not pseudo", op)
		}
	}
}

func TestRegisterNamesAndPredicates(t *testing.T) {
	if EAX.String() != "eax" || MM3.String() != "mm3" || FP7.String() != "fp7" {
		t.Error("register names wrong")
	}
	if !EAX.IsGPR() || EAX.IsMMX() || EAX.IsFP() {
		t.Error("EAX predicates wrong")
	}
	if !MM0.IsMMX() || MM0.IsGPR() {
		t.Error("MM0 predicates wrong")
	}
	if !FP2.IsFP() || FP2.IsMMX() {
		t.Error("FP2 predicates wrong")
	}
	if MM5.MMXIndex() != 5 || FP4.FPIndex() != 4 || EDX.GPRIndex() != 3 {
		t.Error("register indices wrong")
	}
}

func TestMMXOpcodeCoverage(t *testing.T) {
	// All packed operation families must be present: moves(2) + pack(3) +
	// unpack(6) + add(7) + sub(7) + mul(3) + cmp(6) + logical(4) +
	// shift(8) + emms(1) = 47 distinct mnemonics (Intel's count of 57 is
	// at the encoding level, counting shift-by-imm and shift-by-reg forms
	// and both movd/movq directions separately).
	if got := MMXOpcodeCount(); got != 47 {
		t.Errorf("MMXOpcodeCount = %d, want 47", got)
	}
}

func TestMMXCategoryBuckets(t *testing.T) {
	cases := []struct {
		op   Op
		want MMXCategory
	}{
		{PACKSSWB, MMXPackUnpack}, {PUNPCKHBW, MMXPackUnpack},
		{PADDW, MMXArithmetic}, {PMADDWD, MMXArithmetic},
		{PAND, MMXArithmetic}, {PSRAW, MMXArithmetic}, {PCMPGTW, MMXArithmetic},
		{MOVQ, MMXMove}, {MOVD, MMXMove},
		{EMMS, MMXEmms},
		{MOV, NotMMX}, {IMUL, NotMMX}, {FADD, NotMMX},
	}
	for _, c := range cases {
		if got := c.op.Category(); got != c.want {
			t.Errorf("%s category = %v, want %v", c.op, got, c.want)
		}
	}
}

func TestPaperLatencies(t *testing.T) {
	// These specific values are quoted by the paper and drive its analysis.
	if IMUL.Latency() != 10 {
		t.Errorf("imul latency = %d, want 10 (paper §4.1)", IMUL.Latency())
	}
	if PMADDWD.Latency() != 3 {
		t.Errorf("pmaddwd latency = %d, want 3 (paper §4.1)", PMADDWD.Latency())
	}
	if EMMS.Latency() != 50 {
		t.Errorf("emms latency = %d, want 50 (paper §3.1)", EMMS.Latency())
	}
}

func TestReferencesMemory(t *testing.T) {
	mem := Operand{Kind: KindMem, Reg: ESI, Size: SizeD}
	reg := Operand{Kind: KindReg, Reg: EAX}
	cases := []struct {
		in   Inst
		want bool
	}{
		{Inst{Op: MOV, A: reg, B: mem}, true},
		{Inst{Op: MOV, A: mem, B: reg}, true},
		{Inst{Op: MOV, A: reg, B: Operand{Kind: KindReg, Reg: EBX}}, false},
		{Inst{Op: LEA, A: reg, B: mem}, false},
		{Inst{Op: MOVSXW, A: reg, B: mem}, true},
		{Inst{Op: MOVZXW, A: reg, B: Operand{Kind: KindReg, Reg: EBX}}, false},
		{Inst{Op: PUSH, A: reg}, true},
		{Inst{Op: POP, A: reg}, true},
		{Inst{Op: CALL}, true},
		{Inst{Op: RET}, true},
		{Inst{Op: PADDW, A: Operand{Kind: KindReg, Reg: MM0}, B: Operand{Kind: KindMem, Reg: ESI, Size: SizeQ}}, true},
	}
	for _, c := range cases {
		if got := c.in.ReferencesMemory(); got != c.want {
			t.Errorf("%s ReferencesMemory = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestLoadStoreClassification(t *testing.T) {
	mem := Operand{Kind: KindMem, Reg: ESI, Size: SizeD}
	reg := Operand{Kind: KindReg, Reg: EAX}
	load := Inst{Op: MOV, A: reg, B: mem}
	if !load.IsLoad() || load.IsStore() {
		t.Error("mov reg, mem must be a load, not a store")
	}
	store := Inst{Op: MOV, A: mem, B: reg}
	if store.IsLoad() || !store.IsStore() {
		t.Error("mov mem, reg must be a store, not a load")
	}
	rmw := Inst{Op: ADD, A: mem, B: reg}
	if !rmw.IsLoad() || !rmw.IsStore() {
		t.Error("add mem, reg must be both load and store")
	}
	cmpm := Inst{Op: CMP, A: mem, B: reg}
	if cmpm.IsStore() {
		t.Error("cmp mem, reg must not be a store")
	}
}

func TestUopCounts(t *testing.T) {
	mem := Operand{Kind: KindMem, Reg: ESI, Size: SizeD}
	reg := Operand{Kind: KindReg, Reg: EAX}
	regB := Operand{Kind: KindReg, Reg: EBX}
	cases := []struct {
		in   Inst
		want int
	}{
		{Inst{Op: ADD, A: reg, B: regB}, 1},
		{Inst{Op: ADD, A: reg, B: mem}, 2},  // load + alu
		{Inst{Op: ADD, A: mem, B: regB}, 4}, // load + alu + sta + std
		{Inst{Op: MOV, A: reg, B: mem}, 2},  // mov base 1 + load... see below
		{Inst{Op: MOV, A: mem, B: regB}, 3}, // mov 1 + sta + std
		{Inst{Op: PUSH, A: reg}, 3},
		{Inst{Op: POP, A: reg}, 2},
		{Inst{Op: RET}, 4},
		{Inst{Op: PADDW, A: Operand{Kind: KindReg, Reg: MM0}, B: Operand{Kind: KindMem, Reg: ESI, Size: SizeQ}}, 2},
		{Inst{Op: NOP}, 0},
	}
	for _, c := range cases {
		if got := c.in.UopCount(); got != c.want {
			t.Errorf("%s UopCount = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestRegsReadWritten(t *testing.T) {
	in := Inst{
		Op: ADD,
		A:  Operand{Kind: KindReg, Reg: EAX},
		B:  Operand{Kind: KindMem, Reg: ESI, Index: ECX, Scale: 2},
	}
	reads := in.RegsRead(nil)
	if !containsReg(reads, ESI) || !containsReg(reads, ECX) || !containsReg(reads, EAX) {
		t.Errorf("RegsRead = %v, want esi, ecx, eax", reads)
	}
	writes := in.RegsWritten(nil)
	if !containsReg(writes, EAX) || len(writes) != 1 {
		t.Errorf("RegsWritten = %v, want [eax]", writes)
	}

	mov := Inst{Op: MOV, A: Operand{Kind: KindReg, Reg: EAX}, B: Operand{Kind: KindReg, Reg: EBX}}
	if containsReg(mov.RegsRead(nil), EAX) {
		t.Error("mov must not read its destination")
	}

	div := Inst{Op: IDIV, A: Operand{Kind: KindReg, Reg: EBX}}
	w := div.RegsWritten(nil)
	if !containsReg(w, EAX) || !containsReg(w, EDX) {
		t.Errorf("idiv writes = %v, want eax and edx", w)
	}
}

func TestPairingAttributes(t *testing.T) {
	if !ADD.PairableV() || !ADD.PairableU() {
		t.Error("add must pair in both pipes")
	}
	if SHL.PairableV() {
		t.Error("shifts issue only in U")
	}
	if PMADDWD.PairableV() {
		t.Error("MMX multiply issues only in U")
	}
	if IMUL.PairableU() || IMUL.PairableV() {
		t.Error("imul does not pair")
	}
	if !JNE.PairableV() || JNE.PairableU() {
		t.Error("branches pair only in V")
	}
}

func TestInstString(t *testing.T) {
	in := Inst{
		Op: MOV,
		A:  Operand{Kind: KindReg, Reg: EAX},
		B:  Operand{Kind: KindMem, Reg: ESI, Index: ECX, Scale: 4, Disp: 8, Size: SizeD},
	}
	if got := in.String(); got != "mov eax, dword [esi+ecx*4+8]" {
		t.Errorf("String = %q", got)
	}
	j := Inst{Op: JNE, TargetSym: "loop"}
	if got := j.String(); got != "jne loop" {
		t.Errorf("String = %q", got)
	}
}

func containsReg(s []Reg, r Reg) bool {
	for _, x := range s {
		if x == r {
			return true
		}
	}
	return false
}
