// Package emit provides shared code-generation helpers used by the
// assembly libraries (internal/mmxlib, internal/fplib) and the benchmark
// programs: the cdecl-style calling convention and common idioms like
// broadcasting a word across an MMX register.
//
// Calling convention (all library routines follow it):
//   - arguments are pushed right to left, so the first argument is at
//     [esp+4] on entry;
//   - the caller pops its arguments after the call (add esp, 4*n);
//   - results return in EAX;
//   - every register is caller-saved: routines may clobber all GPRs and
//     the entire MMX/FP state.
//
// The explicit pushes, pops and stack traffic are the point: the paper's
// application-level results hinge on exactly this per-call overhead.
package emit

import (
	"mmxdsp/internal/asm"
	"mmxdsp/internal/isa"
)

// Call pushes args right-to-left, calls the procedure, and pops the
// arguments. Results are in EAX (and MMX/FP state) per the convention.
func Call(b *asm.Builder, proc string, args ...isa.Operand) {
	for i := len(args) - 1; i >= 0; i-- {
		b.I(isa.PUSH, args[i])
	}
	b.Call(proc)
	if n := len(args); n > 0 {
		b.I(isa.ADD, asm.R(isa.ESP), asm.Imm(int64(4*n)))
	}
}

// Arg returns the operand for the i-th (0-based) dword argument inside a
// callee that has not pushed anything since entry.
func Arg(i int) isa.Operand {
	return asm.MemD(isa.ESP, int32(4+4*i))
}

// LoadArg emits a load of the i-th argument into a register.
func LoadArg(b *asm.Builder, r isa.Reg, i int) {
	b.I(isa.MOV, asm.R(r), Arg(i))
}

// BroadcastW fills all four word lanes of mm with the low 16 bits of gpr.
func BroadcastW(b *asm.Builder, mm, gpr isa.Reg) {
	b.I(isa.MOVD, asm.R(mm), asm.R(gpr))
	b.I(isa.PUNPCKLWD, asm.R(mm), asm.R(mm))
	b.I(isa.PUNPCKLDQ, asm.R(mm), asm.R(mm))
}

// HSumD folds the two dword lanes of mm into its low lane, using scratch.
func HSumD(b *asm.Builder, mm, scratch isa.Reg) {
	b.I(isa.MOVQ, asm.R(scratch), asm.R(mm))
	b.I(isa.PSRLQ, asm.R(scratch), asm.Imm(32))
	b.I(isa.PADDD, asm.R(mm), asm.R(scratch))
}
