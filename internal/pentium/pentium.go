// Package pentium models Pentium-with-MMX cycle timing for a retired
// instruction stream: dual-issue U/V pipe pairing, a register scoreboard
// that charges dependency stalls against each unit's result latency
// (pipelined FP adder/multiplier and MMX multiplier: one issue per cycle,
// three-cycle results), blocking microcoded operations (imul, idiv, fdiv,
// transcendentals, emms), a branch-target-buffer predictor, and the
// data-cache penalties the VM's cache model (vm.CPU.Hier) prices from each
// event's effective addresses: on the observer's goroutine for a streamed
// run, like the rest of this model, and on the interpreter's otherwise.
//
// This is the methodology the paper's measurement tool used: "Clock cycles
// are calculated from the known latency of each assembly instruction and
// known latency of each penalty on the Pentium, e.g., cache misses and
// branch target buffer misses."
package pentium

import (
	"mmxdsp/internal/asm"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/vm"
)

// Config tunes the timing model; the zero value of each field selects the
// documented default. Ablation benchmarks override individual fields.
type Config struct {
	// MispredictPenalty is the cycles charged when the BTB prediction is
	// wrong (default 4).
	MispredictPenalty int
	// DisablePairing turns off dual issue (ablation).
	DisablePairing bool
	// DisableBTB makes every conditional branch pay the penalty when
	// taken, modeling a machine without branch prediction (ablation).
	DisableBTB bool
	// EmmsLatency overrides the emms cost if non-negative; -1 keeps the
	// ISA table value. Use 0 to ablate the MMX-FP switch penalty.
	EmmsLatency int
	// MMXMulLatency overrides pmullw/pmulhw/pmaddwd if positive
	// (ablation for the matvec superlinearity analysis).
	MMXMulLatency int
}

// DefaultConfig returns the standard Pentium-with-MMX configuration.
func DefaultConfig() Config {
	return Config{MispredictPenalty: 4, EmmsLatency: -1}
}

// instTiming is the fully resolved, configuration-applied timing record of
// one static instruction: everything Retire needs that does not depend on
// dynamic state. Bound models index a per-PC table of these instead of
// re-deriving latencies, occupancies and register sets per retired event.
type instTiming struct {
	lat, occ     int
	reads        []isa.Reg
	writes       []isa.Reg
	refsMem      bool
	branch       bool
	pairU, pairV bool
}

// scratchTiming is one reusable timing slot for the unbound (event-at-a-
// time) path, with persistent register-set buffers to avoid allocation.
type scratchTiming struct {
	t         instTiming
	readsBuf  []isa.Reg
	writesBuf []isa.Reg
}

// Model accumulates cycles for a retired instruction stream.
type Model struct {
	cfg Config

	now uint64
	// readyAt[r] is the cycle at which register r's latest value becomes
	// available to consumers.
	readyAt [isa.NumRegs]uint64

	// Pairing state: whether the previous instruction can still host a
	// V-pipe partner, the issue cycle it would share, and its timing.
	haveU  bool
	uIssue uint64
	uT     *instTiming

	paired   uint64
	branches uint64
	mispred  uint64

	// seq counts state-mutating operations (per-event retires and chain
	// applies). Chain steady-state detection (chain.go) compares it
	// across calls to prove nothing else touched the model between two
	// applications of the same chain variant.
	seq uint64

	btb btb

	// pcT is the per-PC timing table installed by Bind; nil models derive
	// timing from each event's Inst on the fly.
	pcT []instTiming
	// bodies lists, per basic block of the bound program, the
	// event-emitting body instructions NewChain strings together; nil
	// models decline every chain. sim is the lazily allocated scratch
	// model chain replays run on, simSched the schedule they resolve into
	// before it is installed as a variant, sigBuf the reusable signature
	// buffer RetireChain builds lookups in.
	bodies   [][]int32
	sim      *Model
	simSched chainSched
	sigBuf   []uint8
	// scratch holds two alternating slots for the unbound path: the
	// current instruction's timing plus the pending U instruction's (which
	// survives exactly one event, so two slots suffice).
	scratch [2]scratchTiming
	si      int
}

// New builds a timing model with the given configuration.
func New(cfg Config) *Model {
	if cfg.MispredictPenalty == 0 {
		cfg.MispredictPenalty = 4
	}
	m := &Model{cfg: cfg}
	m.btb.reset()
	return m
}

// Bind installs the per-PC timing table for a linked program, applying the
// model's configuration overrides once per static instruction, and records
// each basic block's event-emitting body for NewChain. A bound
// model must only be fed events produced by running that program (event PC
// indexes the table); events whose PC falls outside the program — as in
// synthetic streams — fall back to per-event derivation.
func (m *Model) Bind(prog *asm.Program) {
	meta := prog.InstMeta()
	m.pcT = make([]instTiming, len(meta))
	for i := range meta {
		m.fillTiming(&m.pcT[i], prog.Insts[i].Op, &meta[i])
	}
	blocks := prog.Blocks()
	m.bodies = make([][]int32, len(blocks))
	for bi := range blocks {
		start, bodyEnd := blocks[bi].Body()
		for pc := start; pc < bodyEnd; pc++ {
			if prog.Insts[pc].Op.EmitsEvent() {
				m.bodies[bi] = append(m.bodies[bi], int32(pc))
			}
		}
	}
}

// fillTiming resolves one instruction's timing under the configuration.
func (m *Model) fillTiming(t *instTiming, op isa.Op, md *isa.InstMeta) {
	lat := md.Latency
	switch {
	case op == isa.EMMS && m.cfg.EmmsLatency >= 0:
		lat = m.cfg.EmmsLatency
	case md.Class == isa.ClassMMXMul && m.cfg.MMXMulLatency > 0:
		lat = m.cfg.MMXMulLatency
	}
	occ := occupancy(op, lat)
	if md.Class == isa.ClassMMXMul && m.cfg.MMXMulLatency > 0 {
		// The ablation models an unpipelined multiplier like imul's.
		occ = lat
	}
	t.lat = lat
	t.occ = occ
	t.reads = md.Reads
	t.writes = md.Writes
	t.refsMem = md.RefsMem
	t.branch = md.Branch
	t.pairU = md.PairU
	t.pairV = md.PairV
}

// fallbackTiming derives timing for one event without a bound table,
// alternating between two scratch slots so the pending U instruction's
// record stays valid while the next event's is built.
func (m *Model) fallbackTiming(in *isa.Inst) *instTiming {
	s := &m.scratch[m.si]
	m.si ^= 1
	op := in.Op
	md := isa.InstMeta{
		Class:   op.Class(),
		Latency: op.Latency(),
		PairU:   op.PairableU(),
		PairV:   op.PairableV(),
		RefsMem: in.ReferencesMemory(),
		Branch:  op.IsBranch(),
	}
	s.readsBuf = in.RegsRead(s.readsBuf[:0])
	s.writesBuf = in.RegsWritten(s.writesBuf[:0])
	md.Reads, md.Writes = s.readsBuf, s.writesBuf
	m.fillTiming(&s.t, op, &md)
	return &s.t
}

// Cycles returns the total cycles charged so far.
func (m *Model) Cycles() uint64 { return m.now }

// Pairs returns how many instruction pairs dual-issued.
func (m *Model) Pairs() uint64 { return m.paired }

// Branches returns the conditional-branch count.
func (m *Model) Branches() uint64 { return m.branches }

// Mispredicts returns the mispredicted-branch count.
func (m *Model) Mispredicts() uint64 { return m.mispred }

// occupancy returns how many cycles the instruction blocks its issue pipe.
// Pipelined units (integer ALU, FP adder/multiplier, all MMX ALUs and the
// MMX multiplier, loads/stores) occupy one cycle; microcoded or
// unpipelined operations block for their full latency.
func occupancy(op isa.Op, lat int) int {
	switch op.Class() {
	case isa.ClassMul, isa.ClassDiv, isa.ClassFPDiv, isa.ClassFPTrans,
		isa.ClassEMMS, isa.ClassCall, isa.ClassRet:
		return lat
	}
	switch op {
	case isa.FILD, isa.FIST, isa.FCOM, isa.XCHG, isa.CDQ:
		return lat
	}
	return 1
}

// Retire processes one event and returns the cycles the clock advanced.
func (m *Model) Retire(ev vm.Event) int {
	m.seq++
	var t *instTiming
	if m.pcT != nil && ev.PC >= 0 && ev.PC < len(m.pcT) {
		t = &m.pcT[ev.PC]
	} else {
		t = m.fallbackTiming(ev.Inst)
	}

	// Dependency stall: wait for every source register.
	start := m.now
	for _, r := range t.reads {
		if rt := m.readyAt[r]; rt > start {
			start = rt
		}
	}

	var penalty int
	if t.branch {
		m.branches++
		var predictTaken bool
		if !m.cfg.DisableBTB {
			predictTaken = m.btb.predict(ev.PC)
		}
		if predictTaken != ev.Taken {
			m.mispred++
			penalty += m.cfg.MispredictPenalty
		}
		if !m.cfg.DisableBTB {
			m.btb.update(ev.PC, ev.Taken)
		}
	}
	penalty += ev.MemPenalty

	before := m.now

	// Dual issue: a stall-free pairable instruction joins the pending
	// U-pipe instruction's cycle.
	if !m.cfg.DisablePairing && m.haveU && start == m.now && penalty == 0 &&
		t.occ == 1 && t.pairV && m.canPairAsV(t) {
		m.paired++
		m.haveU = false
		m.setWrites(t.writes, m.uIssue+uint64(t.lat))
		return 0
	}

	issue := start
	m.now = issue + uint64(t.occ+penalty)
	m.setWrites(t.writes, issue+uint64(t.lat)+uint64(ev.MemPenalty))

	if t.pairU && !ev.Taken && penalty == 0 {
		m.haveU = true
		m.uIssue = issue
		m.uT = t
	} else {
		m.haveU = false
	}
	return int(m.now - before)
}

func (m *Model) setWrites(writes []isa.Reg, ready uint64) {
	for _, r := range writes {
		m.readyAt[r] = ready
	}
}

// canPairAsV reports whether an instruction (already known PairableV) may
// dual-issue in the V pipe behind the pending U instruction.
func (m *Model) canPairAsV(t *instTiming) bool {
	// The Pentium pairs at most one data memory reference per cycle
	// (two only in restricted same-bank cases, conservatively excluded).
	if m.uT.refsMem && t.refsMem {
		return false
	}
	// Register dependencies: V may not read or write anything U writes.
	for _, w := range m.uT.writes {
		for _, r := range t.reads {
			if r == w {
				return false
			}
		}
		for _, w2 := range t.writes {
			if w2 == w {
				return false
			}
		}
	}
	return true
}

// btb is a 256-entry direct-mapped branch target buffer with 2-bit
// saturating counters. Branches absent from the BTB are statically
// predicted not taken, as on the Pentium.
type btb struct {
	tags  [256]int32
	ctr   [256]uint8
	valid [256]bool
}

func (b *btb) reset() {
	for i := range b.valid {
		b.valid[i] = false
		b.tags[i] = 0
		b.ctr[i] = 0
	}
}

func (b *btb) predict(pc int) bool {
	i := pc & 255
	return b.valid[i] && b.tags[i] == int32(pc) && b.ctr[i] >= 2
}

func (b *btb) update(pc int, taken bool) {
	i := pc & 255
	if !b.valid[i] || b.tags[i] != int32(pc) {
		// Allocate on taken, matching BTB fill behavior.
		if taken {
			b.valid[i] = true
			b.tags[i] = int32(pc)
			b.ctr[i] = 2
		}
		return
	}
	if taken {
		if b.ctr[i] < 3 {
			b.ctr[i]++
		}
	} else if b.ctr[i] > 0 {
		b.ctr[i]--
	}
}

// saturated reports whether an update(pc, taken) would leave every future
// prediction unchanged: the slot is pinned at the direction's extreme, or
// the update would be a no-op (not-taken miss, which neither allocates nor
// trains).
func (b *btb) saturated(pc int, taken bool) bool {
	i := pc & 255
	if !b.valid[i] || b.tags[i] != int32(pc) {
		return !taken
	}
	if taken {
		return b.ctr[i] == 3
	}
	return b.ctr[i] == 0
}
