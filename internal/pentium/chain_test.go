package pentium

import (
	"fmt"
	"math/rand"
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

// randomChainProgram links six labelled blocks of one to five instructions
// drawn from ALU, load, store, read-modify-write, U-only shift, imul and
// MMX forms, each ending in a conditional branch, a jump or a fall-through.
func randomChainProgram(rng *rand.Rand) *asm.Program {
	gprs := []isa.Reg{isa.EAX, isa.EBX, isa.EDI, isa.EBP}
	mms := []isa.Reg{isa.MM0, isa.MM1, isa.MM2, isa.MM3}
	gpr := func() isa.Operand { return reg(gprs[rng.Intn(len(gprs))]) }
	mm := func() isa.Operand { return reg(mms[rng.Intn(len(mms))]) }
	mem := func() isa.Operand { return asm.MemD(isa.ESI, int32(4*rng.Intn(8))) }
	b := asm.NewBuilder("random-chains")
	const blocks = 6
	for bi := 0; bi < blocks; bi++ {
		b.Label(fmt.Sprintf("b%d", bi))
		for n := 1 + rng.Intn(5); n > 0; n-- {
			switch rng.Intn(8) {
			case 0:
				b.I(isa.ADD, gpr(), gpr())
			case 1:
				b.I(isa.MOV, gpr(), mem())
			case 2:
				b.I(isa.MOV, mem(), gpr())
			case 3:
				b.I(isa.ADD, mem(), asm.Imm(3))
			case 4:
				b.I(isa.SHL, gpr(), asm.Imm(1))
			case 5:
				b.I(isa.IMUL, gpr(), gpr())
			case 6:
				b.I(isa.PADDW, mm(), mm())
			default:
				b.I(isa.PMULLW, mm(), mm())
			}
		}
		target := fmt.Sprintf("b%d", rng.Intn(blocks))
		switch rng.Intn(3) {
		case 0:
			b.J(isa.JNE, target)
		case 1:
			b.J(isa.JMP, target)
		}
	}
	b.I(isa.HALT)
	return b.MustLink()
}

// randomizeEntry puts m in a random entry state: a clock, register ready
// times from long past to beyond maxSigEntry cycles ahead, BTB slots owned
// or foreign-tagged at every counter value, and a pending U issued up to
// beyond maxSigEntry cycles back, or none.
func randomizeEntry(m *Model, rng *rand.Rand) {
	m.now = 1000 + uint64(rng.Intn(1000))
	ahead := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return uint64(rng.Intn(12))
		case 1:
			return maxSigEntry - 2 + uint64(rng.Intn(5))
		case 2:
			return 2*maxSigEntry + uint64(rng.Intn(600))
		}
		return 0
	}
	for r := range m.readyAt {
		if rng.Intn(3) == 0 {
			m.readyAt[r] = m.now - uint64(rng.Intn(50))
		} else {
			m.readyAt[r] = m.now + ahead()
		}
	}
	for pc := range m.pcT {
		i := pc & 255
		m.btb.valid[i] = rng.Intn(4) != 0
		m.btb.tags[i] = int32(pc)
		if rng.Intn(4) == 0 {
			m.btb.tags[i] += 256 // same slot, another branch
		}
		m.btb.ctr[i] = uint8(rng.Intn(4))
	}
	m.haveU = rng.Intn(3) != 0
	m.uT = &m.pcT[rng.Intn(len(m.pcT))]
	m.uIssue = m.now - ahead()
}

// truncatedSig is ct's entry signature with every value cut to a byte
// instead of declined: the bytes an in-place match that ignores
// maxSigEntry would compare.
func truncatedSig(m *Model, ct *ChainTiming, penalties []int32) []uint8 {
	var sig []uint8
	for _, r := range ct.guards {
		lag := uint64(0)
		if m.readyAt[r] > m.now {
			lag = m.readyAt[r] - m.now
		}
		sig = append(sig, uint8(lag))
	}
	for _, p := range penalties {
		sig = append(sig, uint8(p))
	}
	for i, pc := range ct.branchPCs {
		sig = append(sig, m.slotSig(pc, ct.branchFine[i]))
	}
	if ct.pairHead {
		u := uint8(0)
		if m.haveU && m.canPairAsV(&m.pcT[ct.pcs[0]]) {
			u = uint8(1 + m.now - m.uIssue)
		}
		sig = append(sig, u)
	}
	return sig
}

// TestEntryMatchesChainSig holds RetireChain's in-place match of a
// recorded signature to the signature chainSig builds: over random chains
// of a random program and random entry states, entryMatches(sig) must be
// true exactly when chainSig succeeds and returns sig, for the state's own
// signature, for it with any one byte changed, for its bytes truncated
// rather than declined, and for the previous state's signature.
func TestEntryMatchesChainSig(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	penaltyValues := []int32{0, 0, 0, 3, 11, 26, maxSigEntry, maxSigEntry + 1, 300, -1}
	var matched, declined, checked int
	for prog := 0; prog < 20; prog++ {
		p := randomChainProgram(rng)
		blocks := p.Blocks()
		for _, cfg := range []Config{DefaultConfig(), {DisableBTB: true}} {
			m := New(cfg)
			m.Bind(p)
			for c := 0; c < 10; c++ {
				var bis []int32
				var terms []ChainTerm
				for n := 1 + rng.Intn(4); n > 0; n-- {
					bi := rng.Intn(len(blocks))
					bis = append(bis, int32(bi))
					terms = append(terms, ChainTerm{PC: int32(blocks[bi].Term), Taken: rng.Intn(2) == 0})
				}
				ct := m.NewChain(bis, terms)
				if ct == nil {
					continue
				}
				var prev []uint8
				for s := 0; s < 40; s++ {
					randomizeEntry(m, rng)
					penalties := make([]int32, ct.memN)
					for i := range penalties {
						penalties[i] = penaltyValues[rng.Intn(len(penaltyValues))]
					}
					sig, ok := m.chainSig(ct, penalties)
					sig = append([]uint8(nil), sig...)
					cands := [][]uint8{truncatedSig(m, ct, penalties)}
					if ok {
						cands = append(cands, sig)
						for i := range sig {
							c := append([]uint8(nil), sig...)
							c[i] += uint8(1 + rng.Intn(255))
							cands = append(cands, c)
						}
					} else {
						declined++
					}
					if prev != nil {
						cands = append(cands, prev)
					}
					for _, cand := range cands {
						want := ok && sigEqual(sig, cand)
						if got := m.entryMatches(ct, penalties, cand); got != want {
							t.Fatalf("chain %v: entryMatches(%v) = %v, chainSig %v, %v", ct.pcs, cand, got, sig, ok)
						}
						if want {
							matched++
						}
						checked++
					}
					if ok {
						prev = sig
					}
				}
			}
		}
	}
	if matched == 0 || declined == 0 || matched == checked {
		t.Errorf("%d candidates, %d matched, %d states declined: too little variety", checked, matched, declined)
	}
}
