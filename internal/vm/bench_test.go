package vm

import (
	"testing"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/isa"
)

// benchProg is a tight integer/memory loop — load, ALU, RMW store, compare
// and branch, the shape of the suite's kernel inner loops — repeated enough
// (~100k retired instructions) that steady-state interpretation dominates
// the per-run CPU construction cost.
func benchProg() *asm.Program {
	b := asm.NewBuilder("bench")
	b.Dwords("data", make([]int32, 64))
	b.I(isa.MOV, asm.R(isa.EDX), asm.Imm(256))
	b.Label("outer")
	b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(64))
	b.I(isa.MOV, asm.R(isa.ESI), asm.ImmSym("data", 0))
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(0))
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

// BenchmarkStep compares the interpreter loops on the same program: the
// generic loop, and the dispatch loop with trace formation off and on. The
// metric of interest is ns per retired instruction.
func BenchmarkStep(b *testing.B) {
	prog := benchProg()
	run := func(b *testing.B, mk func() *CPU) {
		b.Helper()
		n := int64(0)
		for i := 0; i < b.N; i++ {
			c := mk()
			if err := c.Run(1 << 20); err != nil {
				b.Fatal(err)
			}
			n += c.Executed()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/instr")
	}
	b.Run("generic", func(b *testing.B) {
		run(b, func() *CPU {
			c := New(prog)
			c.Generic = true
			return c
		})
	})
	b.Run("block", func(b *testing.B) {
		code := Compile(prog)
		run(b, func() *CPU { return NewWithCode(code) })
	})
	b.Run("trace", func(b *testing.B) {
		code := Compile(prog)
		run(b, func() *CPU {
			c := NewWithCode(code)
			c.Traces = true
			return c
		})
	})
}

// BenchmarkTraceStep measures the trace-dispatch loop alone (no observer:
// superblocks with registers cached in locals). scripts/check.sh runs it
// for one iteration as a smoke test.
func BenchmarkTraceStep(b *testing.B) {
	prog := benchProg()
	code := Compile(prog)
	n := int64(0)
	for i := 0; i < b.N; i++ {
		c := NewWithCode(code)
		c.Traces = true
		if err := c.Run(1 << 20); err != nil {
			b.Fatal(err)
		}
		n += c.Executed()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/instr")
}

// BenchmarkCompile measures the one-time predecode cost itself.
func BenchmarkCompile(b *testing.B) {
	prog := benchProg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compile(prog)
	}
}
