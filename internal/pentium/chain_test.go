package pentium

import (
	"testing"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/vm"
)

// pendingUProgram links a fall-through block holding one U-pairable
// instruction, followed by the loop block `head: <head>; add ecx, 1;
// <tail...>; jmp head`. Block 0 is the U host, block 1 the chain.
func pendingUProgram(u, head isa.Inst, tail ...isa.Inst) *asm.Program {
	b := asm.NewBuilder("pending-u")
	b.I(u.Op, u.A, u.B)
	b.Label("head")
	b.I(head.Op, head.A, head.B)
	b.I(isa.ADD, asm.R(isa.ECX), asm.Imm(1))
	for _, in := range tail {
		b.I(in.Op, in.A, in.B)
	}
	b.J(isa.JMP, "head")
	b.I(isa.HALT)
	return b.MustLink()
}

// retireTwin retires ct's events per event on twin with the given
// penalties (one per memory-referencing event) and returns the costs.
func retireTwin(twin *Model, ct *ChainTiming, penalties []int32) []uint32 {
	var costs []uint32
	k := 0
	for i, pc := range ct.pcs {
		ev := vm.Event{PC: int(pc), Taken: ct.evTaken[i]}
		if twin.pcT[pc].refsMem {
			ev.MemPenalty = int(penalties[k])
			k++
		}
		costs = append(costs, uint32(twin.Retire(ev)))
	}
	return costs
}

// checkTwin retires one chain iteration on m through RetireChain and on
// twin per event, and requires a schedule that leaves both models in the
// same state. It returns the per-event costs.
func checkTwin(t *testing.T, m, twin *Model, ct *ChainTiming, penalties []int32) []uint32 {
	t.Helper()
	got := m.RetireChain(ct, penalties)
	if got == nil {
		t.Fatalf("RetireChain declined (haveU=%v, now−uIssue=%d)", m.haveU, m.now-m.uIssue)
	}
	want := retireTwin(twin, ct, penalties)
	if len(got) != len(want) {
		t.Fatalf("costs %v, per event %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("costs %v, per event %v", got, want)
		}
	}
	if m.Cycles() != twin.Cycles() || m.Pairs() != twin.Pairs() {
		t.Fatalf("clock/pairs %d/%d, per event %d/%d", m.Cycles(), m.Pairs(), twin.Cycles(), twin.Pairs())
	}
	if m.readyAt != twin.readyAt {
		t.Fatalf("scoreboard %v, per event %v", m.readyAt, twin.readyAt)
	}
	if m.haveU != twin.haveU || (m.haveU && m.uIssue != twin.uIssue) {
		t.Fatalf("exit U %v@%d, per event %v@%d", m.haveU, m.uIssue, twin.haveU, twin.uIssue)
	}
	return got
}

// TestChainEntryBehindPendingU enters a chain whose first event is
// pairable-V right after a U-pairable instruction retired per event. The
// pending U is part of the entry signature, so RetireChain must price the
// entry from a schedule, whether the pair is taken or blocked.
func TestChainEntryBehindPendingU(t *testing.T) {
	mulLat := DefaultConfig()
	mulLat.MMXMulLatency = 10
	cases := []struct {
		name      string
		cfg       Config
		u, head   isa.Inst
		paired    bool
		lag       uint64
		penalties []int32
	}{
		{"pair taken", DefaultConfig(),
			isa.Inst{Op: isa.SHL, A: reg(isa.EDI), B: asm.Imm(1)},
			isa.Inst{Op: isa.ADD, A: reg(isa.EBX), B: reg(isa.EAX)}, true, 1, nil},
		{"dependency blocks", DefaultConfig(),
			isa.Inst{Op: isa.SHL, A: reg(isa.EDI), B: asm.Imm(1)},
			isa.Inst{Op: isa.ADD, A: reg(isa.EBX), B: reg(isa.EDI)}, false, 1, nil},
		{"two memory references block", DefaultConfig(),
			isa.Inst{Op: isa.MOV, A: reg(isa.EAX), B: asm.MemD(isa.ESI, 0)},
			isa.Inst{Op: isa.MOV, A: reg(isa.EBX), B: asm.MemD(isa.ESI, 4)}, false, 1, []int32{0}},
		// Under the unpipelined-multiplier ablation pmullw occupies the U
		// pipe for 10 cycles; a store (no register result) still pairs.
		{"multi-cycle lag", mulLat,
			isa.Inst{Op: isa.PMULLW, A: reg(isa.MM0), B: reg(isa.MM1)},
			isa.Inst{Op: isa.MOV, A: asm.MemD(isa.ESI, 0), B: reg(isa.EBX)}, true, 10, []int32{0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := pendingUProgram(tc.u, tc.head)
			m, twin := New(tc.cfg), New(tc.cfg)
			m.Bind(prog)
			twin.Bind(prog)
			ct := m.NewChain([]int32{1}, []ChainTerm{{PC: 3, Taken: true}})
			if ct == nil || !ct.pairHead {
				t.Fatalf("chain %+v: want a pairable-V head", ct)
			}
			m.Retire(vm.Event{PC: 0})
			twin.Retire(vm.Event{PC: 0})
			if !m.haveU || m.now-m.uIssue != tc.lag {
				t.Fatalf("U pending %v at lag %d, want lag %d", m.haveU, m.now-m.uIssue, tc.lag)
			}
			costs := checkTwin(t, m, twin, ct, tc.penalties)
			if (costs[0] == 0) != tc.paired {
				t.Errorf("head cost %d, paired want %v", costs[0], tc.paired)
			}
			// A second entry behind the same U reuses the memoized variant.
			m.Retire(vm.Event{PC: 0})
			twin.Retire(vm.Event{PC: 0})
			n := len(ct.variants)
			checkTwin(t, m, twin, ct, tc.penalties)
			if len(ct.variants) != n {
				t.Errorf("re-entry resolved a new variant (%d → %d)", n, len(ct.variants))
			}
		})
	}
}

// TestChainEntryResultBeforeEntryDeclines covers the one pending-U entry a
// schedule cannot express: under the multiplier ablation a paired head
// whose result latency is shorter than the U's occupancy would be ready
// before the chain's entry clock. RetireChain declines it, changing
// nothing, and the per-event path prices it.
func TestChainEntryResultBeforeEntryDeclines(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MMXMulLatency = 10
	prog := pendingUProgram(isa.Inst{Op: isa.PMULLW, A: reg(isa.MM0), B: reg(isa.MM1)},
		isa.Inst{Op: isa.MOVQ, A: reg(isa.MM2), B: reg(isa.MM3)})
	m := New(cfg)
	m.Bind(prog)
	ct := m.NewChain([]int32{1}, []ChainTerm{{PC: 3, Taken: true}})
	m.Retire(vm.Event{PC: 0})
	now, seq, ready := m.now, m.seq, m.readyAt
	if m.RetireChain(ct, nil) != nil {
		t.Fatal("RetireChain priced a write before the entry clock")
	}
	if m.now != now || m.seq != seq || m.readyAt != ready || !m.haveU || len(ct.variants) != 0 {
		t.Fatal("declined RetireChain changed the model")
	}
}

// TestChainLoopBehindPendingU re-enters one body chain back to back. Its
// last event leaves a U pending and its first event pairs behind it, so
// every entry carries a pending U; the loop must still reach steady state
// and agree with per-event retirement on every iteration, including
// iterations whose penalties break and then re-prove steady state.
func TestChainLoopBehindPendingU(t *testing.T) {
	prog := pendingUProgram(isa.Inst{Op: isa.SHL, A: reg(isa.EDI), B: asm.Imm(1)},
		isa.Inst{Op: isa.ADD, A: reg(isa.EBX), B: reg(isa.EAX)},
		isa.Inst{Op: isa.MOV, A: asm.MemD(isa.ESI, 0), B: reg(isa.EBX)},
		isa.Inst{Op: isa.SHL, A: reg(isa.EDI), B: asm.Imm(1)})
	m, twin := New(DefaultConfig()), New(DefaultConfig())
	m.Bind(prog)
	twin.Bind(prog)
	ct := m.NewChain([]int32{1}, []ChainTerm{{PC: -1}})
	m.Retire(vm.Event{PC: 0})
	twin.Retire(vm.Event{PC: 0})
	wasSteady := false
	for i := 0; i < 40; i++ {
		pen := []int32{0}
		if i == 20 {
			pen[0] = 7
		}
		if !m.haveU {
			t.Fatalf("iteration %d entered with no U pending", i)
		}
		checkTwin(t, m, twin, ct, pen)
		if i == 19 {
			wasSteady = ct.steady >= 0
		}
	}
	if !wasSteady || ct.steady < 0 {
		t.Errorf("loop never reached steady state behind a pending U (steady at 19: %v, at end: %v)", wasSteady, ct.steady >= 0)
	}
	if m.Pairs() == 0 {
		t.Error("no entry paired behind the pending U")
	}
}
