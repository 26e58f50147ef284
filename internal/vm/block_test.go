package vm_test

// Tests for block dispatch (the dispatch loop with trace formation off) and
// the cache hierarchy: memory-bearing blocks collect per-reference
// penalties from mem.Hierarchy, and whether an execution is priced through
// a block schedule or replayed per-event, the cache statistics and the
// profiling report must match the per-instruction loop exactly.

import (
	"reflect"
	"testing"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/mem"
	"mmxdsp/internal/pentium"
	"mmxdsp/internal/profile"
	"mmxdsp/internal/vm"
)

// buildStreamProg walks a buffer much larger than the L1 cache with a
// line-sized stride, so the measured loop's memory-bearing block sees a
// mix of L1 misses (first pass, capacity misses) and hits.
func buildStreamProg(t *testing.T) *asm.Program {
	t.Helper()
	const bufBytes = 1 << 16
	b := asm.NewBuilder("stream")
	b.Reserve("buf", bufBytes)
	b.I(isa.PROFON)
	b.I(isa.MOV, asm.R(isa.EDX), asm.Imm(4))
	b.Label("pass")
	b.I(isa.MOV, asm.R(isa.ESI), asm.ImmSym("buf", 0))
	b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(bufBytes/32))
	b.Label("loop")
	b.I(isa.MOV, asm.R(isa.EAX), asm.MemD(isa.ESI, 0))
	b.I(isa.ADD, asm.R(isa.EAX), asm.Imm(7))
	b.I(isa.MOV, asm.MemD(isa.ESI, 0), asm.R(isa.EAX))
	b.I(isa.ADD, asm.R(isa.ESI), asm.Imm(32))
	b.I(isa.SUB, asm.R(isa.ECX), asm.Imm(1))
	b.J(isa.JNE, "loop")
	b.I(isa.SUB, asm.R(isa.EDX), asm.Imm(1))
	b.J(isa.JNE, "pass")
	b.I(isa.PROFOFF)
	b.I(isa.HALT)
	return b.MustLink()
}

// runHier runs prog with the full timing pipeline and a cache hierarchy on
// the per-instruction loop or at block dispatch.
func runHier(t *testing.T, prog *asm.Program, generic bool) (*profile.Report, *profile.Collector, mem.HierarchyStats) {
	t.Helper()
	model := pentium.New(pentium.DefaultConfig())
	model.Bind(prog)
	col := profile.NewCollector(prog, model)
	cpu := vm.New(prog)
	cpu.Obs = col
	cpu.Generic = generic
	cpu.Hier = mem.NewHierarchy()
	if err := cpu.Run(1 << 30); err != nil {
		t.Fatalf("run (generic=%v): %v", generic, err)
	}
	return col.Report(prog.Name), col, cpu.Hier.Stats
}

func TestBlockPathCacheCountersMatchGeneric(t *testing.T) {
	prog := buildStreamProg(t)

	genRep, _, genStats := runHier(t, prog, true)
	blkRep, blkCol, blkStats := runHier(t, prog, false)

	if genStats.L1Misses == 0 {
		t.Fatal("stream program produced no L1 misses; the test is vacuous")
	}
	if blkStats != genStats {
		t.Errorf("cache statistics differ:\n generic %+v\n block %+v", genStats, blkStats)
	}
	if !reflect.DeepEqual(genRep, blkRep) {
		t.Errorf("reports differ:\n generic %+v\n block %+v", genRep, blkRep)
	}

	// The block run must have exercised both observer paths: block
	// schedule applications and per-event retirement (at least the loop
	// terminators).
	fast, perEvent := blkCol.BlockStats()
	if fast == 0 {
		t.Error("block run applied no block schedules")
	}
	if perEvent == 0 {
		t.Error("block run retired no events per-event (terminators should)")
	}
}

// TestBlockPathPerfectCacheMatches covers the no-hierarchy configuration:
// with no cache model attached there are no penalties, and the two paths
// must still agree on the report.
func TestBlockPathPerfectCacheMatches(t *testing.T) {
	prog := buildStreamProg(t)

	run := func(generic bool) *profile.Report {
		model := pentium.New(pentium.DefaultConfig())
		model.Bind(prog)
		col := profile.NewCollector(prog, model)
		cpu := vm.New(prog)
		cpu.Obs = col
		cpu.Generic = generic
		if err := cpu.Run(1 << 30); err != nil {
			t.Fatalf("run (generic=%v): %v", generic, err)
		}
		return col.Report(prog.Name)
	}
	gen, blk := run(true), run(false)
	if !reflect.DeepEqual(gen, blk) {
		t.Errorf("reports differ:\n generic %+v\n block %+v", gen, blk)
	}
}
