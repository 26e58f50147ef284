package pentium

import (
	"testing"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/vm"
)

// retireProgram builds a representative instruction mix (ALU, load, RMW,
// branch) and the event stream one loop iteration produces.
func retireProgram() (*asm.Program, []vm.Event) {
	b := asm.NewBuilder("retire-bench")
	b.I(isa.MOV, asm.R(isa.EBX), asm.MemD(isa.ESI, 0))
	b.I(isa.ADD, asm.R(isa.EAX), asm.R(isa.EBX))
	b.I(isa.ADD, asm.MemD(isa.ESI, 0), asm.Imm(3))
	b.I(isa.ADD, asm.R(isa.ESI), asm.Imm(4))
	b.I(isa.SUB, asm.R(isa.ECX), asm.Imm(1))
	b.J(isa.JNE, "top")
	b.Label("top")
	b.I(isa.HALT)
	prog := b.MustLink()
	evs := make([]vm.Event, 0, len(prog.Insts))
	for pc := range prog.Insts {
		evs = append(evs, vm.Event{
			PC:       pc,
			Inst:     &prog.Insts[pc],
			Measured: true,
			Target:   pc + 1,
		})
	}
	return prog, evs
}

// BenchmarkRetire compares the bound (per-PC timing table) path against the
// unbound per-event derivation fallback.
func BenchmarkRetire(b *testing.B) {
	prog, evs := retireProgram()
	bench := func(b *testing.B, bind bool) {
		b.Helper()
		b.ReportAllocs()
		m := New(DefaultConfig())
		if bind {
			m.Bind(prog)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, ev := range evs {
				m.Retire(ev)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
	}
	b.Run("bound", func(b *testing.B) { bench(b, true) })
	b.Run("fallback", func(b *testing.B) { bench(b, false) })
}

// chainBenchProgram links four fall-through block bodies with the same
// pairable-V head, load, read-modify-write and pointer bump. Blocks 0 and 1
// end with a U-only shift, which leaves a U pending that the next entry's
// head pairs behind; blocks 2 and 3 end with imul, which leaves none.
func chainBenchProgram() *asm.Program {
	b := asm.NewBuilder("chain-bench")
	for i, label := range []string{"a", "b", "c", "d"} {
		b.Label(label)
		b.I(isa.ADD, asm.R(isa.EBX), asm.R(isa.EAX))
		b.I(isa.MOV, asm.R(isa.EAX), asm.MemD(isa.ESI, 0))
		b.I(isa.ADD, asm.MemD(isa.ESI, 4), asm.Imm(3))
		b.I(isa.ADD, asm.R(isa.ESI), asm.Imm(4))
		if i < 2 {
			b.I(isa.SHL, asm.R(isa.EDI), asm.Imm(1))
		} else {
			b.I(isa.IMUL, asm.R(isa.EDI), asm.R(isa.EAX))
		}
	}
	b.J(isa.JMP, "a")
	b.J(isa.JMP, "b")
	b.J(isa.JMP, "c")
	b.J(isa.JMP, "d")
	b.I(isa.HALT)
	return b.MustLink()
}

// BenchmarkRetireChain prices block bodies through RetireChain. steady
// re-applies one chain back to back, so after the proof every call takes
// the steady-state fast path; rotate alternates two chains, so no call is
// steady and every call matches its entry state in place against its
// chain's last variant; search alternates one chain's penalties between
// two variants, so every call misses its last variant, builds the full
// entry signature and finds it in the variant table. pendingU runs the
// bodies that enter behind a pending U (the signature's pending-U byte is
// non-zero), noU the ones that do not.
func BenchmarkRetireChain(b *testing.B) {
	prog := chainBenchProgram()
	zero := [][]int32{{0, 0}}
	bench := func(b *testing.B, blocks []int32, penalties [][]int32, wantSteady bool) {
		b.Helper()
		b.ReportAllocs()
		m := New(DefaultConfig())
		m.Bind(prog)
		var cts []*ChainTiming
		for _, bi := range blocks {
			cts = append(cts, m.NewChain([]int32{bi}, []ChainTerm{{PC: -1}}))
		}
		retire := func() {
			for _, ct := range cts {
				for _, pen := range penalties {
					if m.RetireChain(ct, pen) == nil {
						b.Fatal("RetireChain declined")
					}
				}
			}
		}
		for i := 0; i < 8; i++ {
			retire()
		}
		if steady := cts[0].steady >= 0; steady != wantSteady {
			b.Fatalf("steady state %v, want %v", steady, wantSteady)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			retire()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cts)*len(penalties)), "ns/chain")
	}
	b.Run("steady/pendingU", func(b *testing.B) { bench(b, []int32{0}, zero, true) })
	b.Run("steady/noU", func(b *testing.B) { bench(b, []int32{2}, zero, true) })
	b.Run("rotate/pendingU", func(b *testing.B) { bench(b, []int32{0, 1}, zero, false) })
	b.Run("rotate/noU", func(b *testing.B) { bench(b, []int32{2, 3}, zero, false) })
	search := [][]int32{{0, 0}, {3, 0}}
	b.Run("search/pendingU", func(b *testing.B) { bench(b, []int32{0}, search, false) })
	b.Run("search/noU", func(b *testing.B) { bench(b, []int32{2}, search, false) })
}
