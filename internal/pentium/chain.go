// Region timing: the profile collector prices every retired region — a
// basic-block body, one full on-trace iteration, or a trace side exit — as a
// chain: a fixed sequence of basic blocks, each block's straight-line body
// followed by its terminator with a known direction (a lone block body is a
// one-block chain whose terminator emits no event). The cycle schedule of
// that sequence — dependency stalls, U/V pairing, result latencies, cache
// penalties, branch predictions — is a pure function of the dynamic entry
// state, which a chain reaches through only four inputs:
//
//   - the lag of each live-in register (read before written anywhere in the
//     chain);
//   - the cache penalty charged to each memory reference this iteration;
//   - the BTB slot state each chain branch sees at entry, encoded as 0 when
//     the branch does not own its direct-mapped slot and 2+ctr when it does.
//     The BTB evolves inside the iteration — chains may revisit one branch
//     PC (unrolled loops) or collide two branches on one slot — but a slot
//     not owned by any chain branch behaves identically whether it is empty
//     or foreign-tagged (taken updates retag it, not-taken updates are
//     no-ops), so the per-branch ownership+counter entries fully determine
//     every in-iteration prediction;
//   - the pending U pipe, for chains whose first event could pair into the V
//     pipe (pairable-V with single-cycle occupancy): 0 when no U instruction
//     is pending or the first event cannot pair with it (canPairAsV), and
//     1 + (now − uIssue) otherwise. The pending instruction reaches the
//     schedule only through canPairAsV and its issue cycle, which a pair
//     inherits; the first event's retire clears or replaces it either way.
//
// RetireChain resolves a (lags, penalties, slot states, pending U) signature
// by replaying the whole event sequence once through a scratch model seeded
// to reproduce that entry state, memoizes the schedule in a per-chain MRU
// variant table, and thereafter applies it as one aggregate update: clock
// delta, pair/branch/mispredict counts, scoreboard writes, live BTB updates,
// exit pairing state. DSP loops have a constant carried-dependency lag and a
// periodic streaming-miss pattern, so a handful of variants covers the
// steady state. A loop chain applied back to back settles into a steady
// state that skips the signature altogether; a chain re-entered after other
// activity (tree paths taken in rotation) mostly meets its lastHit variant
// again, which RetireChain compares against the model's state in place
// before it builds a signature to search the table. When no schedule
// applies (oversized lags, penalties or pending-U distance, a churning
// variant table, or a pair whose result would be ready before the chain's
// entry clock), it declines without touching state and the caller retires
// the region per event.
package pentium

import (
	"mmxdsp/internal/isa"
	"mmxdsp/internal/vm"
)

// maxChainSig bounds the signature length (lags + penalties + predictions +
// the pending-U byte); longer chains fall back to per-event retirement.
const maxChainSig = 255

// maxSigEntry bounds the lag, penalty and pending-U values a variant
// signature records; larger values (microcoded latencies, pathological
// misses) fall back to per-event replay.
const maxSigEntry = 255

// maxVariants bounds the per-chain variant table; beyond it, new
// signatures overwrite round-robin.
const maxVariants = 8

// regReady records the ready time of one register written by a chain, as
// an offset from the chain's entry clock.
type regReady struct {
	reg isa.Reg
	off uint64
}

// ChainTerm describes one block terminator inside a chain: its PC (-1 for a
// fall-through block, which emits no event) and the recorded direction the
// chain follows (always true for unconditional jumps).
type ChainTerm struct {
	PC    int32
	Taken bool
}

// chainSched is one resolved schedule of a whole chain iteration under a
// specific entry signature.
type chainSched struct {
	// costs[i] is the clock advance charged by the chain's i-th event (body
	// instructions and terminators interleaved in retirement order; 0 for
	// the V-pipe half of a pair). The profiler uses it for per-PC and
	// per-class cycle attribution; slice identity names the schedule.
	costs []uint32
	delta uint64
	pairs uint64
	brs   uint64 // branch events in the chain (constant, kept per variant)
	mis   uint64 // mispredicts under this signature
	// writes lists every register the chain writes with its final
	// entry-relative ready offset. Offsets of zero are meaningful (e.g. a
	// zero-latency ablated emms), so the set is explicit rather than
	// inferred from non-zero scoreboard entries.
	writes []regReady
	// exitU records the pairing state the chain leaves behind: whether its
	// last instruction is still hosting the U pipe, at which entry-relative
	// issue cycle, and with which timing record.
	exitU bool
	uOff  uint64
	uT    *instTiming
}

// chainVariant is one cached schedule with its entry signature.
type chainVariant struct {
	sig []uint8
	s   chainSched
}

// ChainTiming is the timing record of one trace. Build one per registered
// trace with NewChain; a nil ChainTiming (declined at build time) makes
// RetireChain decline every call.
type ChainTiming struct {
	// pcs lists every event-emitting instruction of one full iteration in
	// retirement order; evTaken carries each event's recorded Taken flag
	// (true for terminators that transfer — Retire's pairU latch reads it
	// even for non-branches); memN counts the memory-referencing ones.
	pcs     []int32
	evTaken []bool
	memN    int
	// guards lists the chain's live-in registers (read before any in-chain
	// write).
	guards []isa.Reg
	// pairHead reports that the chain's first event could pair into the V
	// pipe behind a pending U instruction (pairable-V with single-cycle
	// occupancy); the entry signature then ends with the pending-U byte.
	pairHead bool
	// branchPCs/branchTaken list the conditional-branch events in order with
	// their recorded directions; BTB entries for these complete the entry
	// signature, and taken directions drive the live BTB updates at apply.
	// branchFine marks branches whose direct-mapped slot is shared with
	// another chain branch occurrence (the same PC revisited by an unrolled
	// chain, or two PCs colliding): those encode the full slot state
	// (0 unowned, 2+ctr owned) because in-iteration updates re-read the
	// slot; unshared branches encode just the 1-bit prediction, keeping the
	// variant space coarse.
	branchPCs   []int32
	branchTaken []bool
	branchFine  []bool

	variants []chainVariant
	nextVar  int
	// lastHit is the index of the most recently applied variant, the one
	// RetireChain matches against the model's state in place.
	lastHit int

	// Steady state: a loop chain iterating back to back settles into one
	// variant whose application reproduces its own entry signature — written
	// guards land at a constant lag (off − delta), unwritten guards decay to
	// lag 0, the exit pairing state fixes the pending-U byte, and the chain's
	// BTB counters saturate at their recorded directions. Once RetireChain
	// observes the same variant match on two consecutive calls with nothing
	// else touching the model (Model.seq unchanged) and every chain branch
	// saturated, it records the variant in steady; subsequent calls then skip
	// signature construction, comparison and the (no-op) BTB updates
	// entirely, verifying only that the caller's penalties still match. Any
	// other model activity changes Model.seq and disarms the fast path until
	// steady state is re-proven.
	steady   int // variant index, -1 when not in steady state
	seqAfter uint64

	// Churn governor: a chain whose entry signature keeps flapping past the
	// variant table recycles a slot (and pays a full scratch replay) every
	// call, which is slower than the caller's per-event fallback. Every
	// windowLen recycles, a window that wasn't dominated by variant hits
	// marks the chain dead and RetireChain declines permanently.
	hits  uint32
	churn uint32
	dead  bool
}

// chainChurnWindow is the recycle count per governor window; a window must
// see at least 4 hits per recycle or the chain is retired to the per-event
// fallback.
const chainChurnWindow = 64

// NewChain builds the chain timing record for a region visiting the given
// blocks (by bound-program block index) with the given terminator record per
// block; a basic-block body alone is NewChain([]int32{bi},
// []ChainTerm{{PC: -1}}). It returns nil — and RetireChain will always
// decline — when the model is unbound, a block index is out of range, the
// region emits no events, or the signature would exceed maxChainSig.
func (m *Model) NewChain(blocks []int32, terms []ChainTerm) *ChainTiming {
	if m.bodies == nil || len(blocks) != len(terms) {
		return nil
	}
	ct := &ChainTiming{steady: -1}
	var written, guarded [isa.NumRegs]bool
	addEvent := func(pc int32, taken bool) {
		t := &m.pcT[pc]
		if len(ct.pcs) == 0 {
			ct.pairHead = !m.cfg.DisablePairing && t.pairV && t.occ == 1
		}
		for _, r := range t.reads {
			if !written[r] && !guarded[r] {
				guarded[r] = true
				ct.guards = append(ct.guards, r)
			}
		}
		for _, r := range t.writes {
			written[r] = true
		}
		if t.refsMem {
			ct.memN++
		}
		ct.pcs = append(ct.pcs, pc)
		ct.evTaken = append(ct.evTaken, taken)
	}
	for i, bi := range blocks {
		if bi < 0 || int(bi) >= len(m.bodies) {
			return nil
		}
		for _, pc := range m.bodies[bi] {
			addEvent(pc, false)
		}
		if tpc := terms[i].PC; tpc >= 0 {
			if int(tpc) >= len(m.pcT) {
				return nil
			}
			addEvent(tpc, terms[i].Taken)
			if m.pcT[tpc].branch {
				fine := false
				for j, prev := range ct.branchPCs {
					if prev&255 == tpc&255 {
						fine = true
						ct.branchFine[j] = true
					}
				}
				ct.branchPCs = append(ct.branchPCs, tpc)
				ct.branchTaken = append(ct.branchTaken, terms[i].Taken)
				ct.branchFine = append(ct.branchFine, fine)
			}
		}
	}
	if len(ct.pcs) == 0 {
		return nil
	}
	n := len(ct.guards) + ct.memN + len(ct.branchPCs)
	if ct.pairHead {
		n++
	}
	if n > maxChainSig {
		return nil
	}
	return ct
}

// replayChain resolves one schedule variant by replaying the full event
// sequence through a scratch model seeded from the signature: guard lags,
// per-reference penalties, a BTB pre-loaded with each branch's slot state
// (tag+counter for owned slots; empty otherwise — an empty slot replays
// identically to a foreign-tagged one for every chain branch, since repeated
// PCs of one branch share a single owned entry), and the pending U pipe. A
// pending U issued lag cycles before entry, so the replay clock starts at lag
// (the U at cycle 0) and the schedule is read back relative to it. It
// reports false when a paired first event's result would be ready before
// that entry clock, an offset a schedule cannot express.
func (m *Model) replayChain(ct *ChainTiming, sig []uint8, out *chainSched) bool {
	if m.sim == nil {
		m.sim = &Model{}
	}
	sim := m.sim
	// Reset only the state a bound-model Retire reads or writes: zeroing the
	// whole scratch Model memclears ~2KB (dominated by the BTB arrays) per
	// replay, but replays only ever probe this chain's branch slots, so
	// clearing those — stale tags from other slots read as foreign, which
	// predicts and updates identically to empty — is enough.
	sim.cfg, sim.pcT = m.cfg, m.pcT
	sim.paired, sim.branches, sim.mispred, sim.seq = 0, 0, 0, 0
	sim.haveU, sim.uIssue, sim.uT, sim.si = false, 0, nil, 0
	lag := uint64(0)
	if ct.pairHead {
		if u := sig[len(sig)-1]; u != 0 {
			// The byte is non-zero only when m's pending U can host the
			// first event, so m.uT stands in for every U it matches.
			lag = uint64(u - 1)
			sim.haveU, sim.uT = true, m.uT
		}
	}
	sim.now = lag
	for i := range sim.readyAt {
		sim.readyAt[i] = 0
	}
	for _, pc := range ct.branchPCs {
		slot := int(pc) & 255
		sim.btb.valid[slot] = false
		sim.btb.tags[slot] = 0
		sim.btb.ctr[slot] = 0
	}
	for i, r := range ct.guards {
		sim.readyAt[r] = lag + uint64(sig[i])
	}
	pen := sig[len(ct.guards) : len(ct.guards)+ct.memN]
	slots := sig[len(ct.guards)+ct.memN : len(ct.guards)+ct.memN+len(ct.branchPCs)]
	for i, pc := range ct.branchPCs {
		st := slots[i]
		slot := int(pc) & 255
		switch {
		case ct.branchFine[i]:
			if st >= 2 {
				sim.btb.valid[slot] = true
				sim.btb.tags[slot] = pc
				sim.btb.ctr[slot] = st - 2
			}
		case st != 0:
			// Unshared slot: only the prediction bit matters (nothing else
			// reads the slot this iteration), so seed it strongly taken.
			sim.btb.valid[slot] = true
			sim.btb.tags[slot] = pc
			sim.btb.ctr[slot] = 3
		}
	}
	out.costs = out.costs[:0]
	var ev vm.Event
	k := 0
	for i, pc := range ct.pcs {
		ev.PC = int(pc)
		ev.MemPenalty = 0
		ev.Taken = ct.evTaken[i]
		if m.pcT[pc].refsMem {
			ev.MemPenalty = int(pen[k])
			k++
		}
		out.costs = append(out.costs, uint32(sim.Retire(ev)))
	}
	out.delta = sim.now - lag
	out.pairs = sim.paired
	out.brs = sim.branches
	out.mis = sim.mispred
	out.writes = out.writes[:0]
	var written [isa.NumRegs]bool
	for _, pc := range ct.pcs {
		for _, r := range m.pcT[pc].writes {
			written[r] = true
		}
	}
	for r := range written {
		if written[r] {
			if sim.readyAt[r] < lag {
				return false
			}
			out.writes = append(out.writes, regReady{reg: isa.Reg(r), off: sim.readyAt[r] - lag})
		}
	}
	out.exitU = sim.haveU
	if sim.haveU {
		out.uOff = sim.uIssue - lag
		out.uT = sim.uT
	}
	return true
}

// applyChain commits a resolved schedule: aggregate clock/counter update,
// scoreboard writes, exit pairing state, and — when btb is set — the live
// BTB updates each chain branch would have performed. Steady-state applies
// pass btb false: every chain branch's counter is then saturated at its
// recorded direction, so the updates are no-ops. It records the model's
// seq after the apply (for steady-state proofs) and returns the schedule's
// costs.
func (m *Model) applyChain(ct *ChainTiming, s *chainSched, btb bool) []uint32 {
	m.seq++
	base := m.now
	m.now = base + s.delta
	m.paired += s.pairs
	m.branches += s.brs
	m.mispred += s.mis
	for i := range s.writes {
		w := &s.writes[i]
		m.readyAt[w.reg] = base + w.off
	}
	m.haveU = s.exitU
	if s.exitU {
		m.uIssue = base + s.uOff
		m.uT = s.uT
	}
	if btb && !m.cfg.DisableBTB {
		for i, pc := range ct.branchPCs {
			m.btb.update(int(pc), ct.branchTaken[i])
		}
	}
	ct.seqAfter = m.seq
	return s.costs
}

// penaltiesMatch reports whether this iteration's cache penalties are the
// ones variant v's signature recorded: the only input a steady-state apply
// must still verify.
func (ct *ChainTiming) penaltiesMatch(v *chainVariant, penalties []int32) bool {
	pen := v.sig[len(ct.guards) : len(ct.guards)+ct.memN]
	for i, p := range penalties {
		if uint32(p) > maxSigEntry || uint8(p) != pen[i] {
			return false
		}
	}
	return true
}

// RetireChain applies a precomputed timing schedule for one full on-trace
// iteration of the chain, given the cache penalties charged to the chain's
// memory references this iteration (in retirement order). It returns the
// per-event cycle costs — immutable, with slice identity naming the
// schedule, aligned with the chain's event sequence — or nil, having
// changed nothing, when ct is nil/declined or the entry state matches no
// cacheable schedule; the caller must then retire the region per event.
func (m *Model) RetireChain(ct *ChainTiming, penalties []int32) []uint32 {
	if ct == nil || ct.dead || len(ct.pcs) == 0 || len(penalties) != ct.memN {
		return nil
	}
	if ct.steady >= 0 {
		if m.seq == ct.seqAfter {
			if v := &ct.variants[ct.steady]; ct.penaltiesMatch(v, penalties) {
				ct.hits++
				return m.applyChain(ct, &v.s, false)
			}
		}
		// Another apply or retire intervened, or the penalties diverged this
		// iteration: fall through to the full path, which re-proves or
		// abandons steady state.
		ct.steady = -1
	}
	// A chain re-entered after other activity (a rotation of tree paths,
	// say) most often meets its last variant's entry state again: compare
	// it in place before building a signature.
	if h := ct.lastHit; h < len(ct.variants) && m.entryMatches(ct, penalties, ct.variants[h].sig) {
		v := &ct.variants[h]
		// Same variant as the previous call, same freshly verified
		// signature: if nothing else touched the model in between and the
		// chain's branches are saturated, the application below reproduces
		// this exact entry state and steady state is proven.
		steady := m.seq == ct.seqAfter
		if steady && !m.cfg.DisableBTB {
			for i, pc := range ct.branchPCs {
				if !m.btb.saturated(int(pc), ct.branchTaken[i]) {
					steady = false
					break
				}
			}
		}
		if steady {
			ct.steady = h
		}
		ct.hits++
		return m.applyChain(ct, &v.s, true)
	}
	sig, ok := m.chainSig(ct, penalties)
	if !ok {
		return nil
	}
	for vi := range ct.variants {
		v := &ct.variants[vi]
		if sigEqual(v.sig, sig) {
			ct.hits++
			ct.lastHit = vi
			return m.applyChain(ct, &v.s, true)
		}
	}
	s := &m.simSched
	if !m.replayChain(ct, sig, s) {
		return nil
	}
	var v *chainVariant
	if len(ct.variants) < maxVariants {
		ct.variants = append(ct.variants, chainVariant{})
		ct.lastHit = len(ct.variants) - 1
		v = &ct.variants[ct.lastHit]
	} else {
		ct.lastHit = ct.nextVar
		v = &ct.variants[ct.nextVar]
		ct.nextVar = (ct.nextVar + 1) % maxVariants
		if ct.churn++; ct.churn >= chainChurnWindow {
			if ct.hits < ct.churn*4 {
				ct.dead = true
			}
			ct.churn, ct.hits = 0, 0
		}
	}
	v.sig = append(v.sig[:0], sig...)
	// Never reuse an evicted schedule's costs backing: callers batch
	// applications by cost-slice identity, so a returned slice must stay
	// immutable for the run's lifetime.
	writes := v.s.writes[:0]
	v.s = *s
	v.s.costs = append([]uint32(nil), s.costs...)
	v.s.writes = append(writes, s.writes...)
	return m.applyChain(ct, &v.s, true)
}

// chainSig builds ct's entry signature in m.sigBuf: guard lags, penalties,
// branch slot states and, for a pairHead chain, the pending-U byte. It
// reports false when a value exceeds maxSigEntry.
func (m *Model) chainSig(ct *ChainTiming, penalties []int32) ([]uint8, bool) {
	sig := m.sigBuf[:0]
	for _, r := range ct.guards {
		lag := m.guardLag(r)
		if lag > maxSigEntry {
			return nil, false
		}
		sig = append(sig, uint8(lag))
	}
	for _, p := range penalties {
		if p < 0 || p > maxSigEntry {
			return nil, false
		}
		sig = append(sig, uint8(p))
	}
	for i, pc := range ct.branchPCs {
		sig = append(sig, m.slotSig(pc, ct.branchFine[i]))
	}
	if ct.pairHead {
		u, ok := m.pendingUSig(ct)
		if !ok {
			return nil, false
		}
		sig = append(sig, u)
	}
	m.sigBuf = sig
	return sig, true
}

// entryMatches reports whether ct's entry signature under penalties would
// be sig, one of ct's recorded signatures, comparing each entry as chainSig
// computes it without building the signature. It reports false wherever
// chainSig declines: a recorded entry never exceeds maxSigEntry (255), so
// a lag or penalty out of range matches none.
func (m *Model) entryMatches(ct *ChainTiming, penalties []int32, sig []uint8) bool {
	for i, r := range ct.guards {
		if m.guardLag(r) != uint64(sig[i]) {
			return false
		}
	}
	pen := sig[len(ct.guards):]
	for i, p := range penalties {
		if uint32(p) != uint32(pen[i]) {
			return false
		}
	}
	slots := pen[len(penalties):]
	for i, pc := range ct.branchPCs {
		if m.slotSig(pc, ct.branchFine[i]) != slots[i] {
			return false
		}
	}
	if ct.pairHead {
		u, ok := m.pendingUSig(ct)
		return ok && u == sig[len(sig)-1]
	}
	return true
}

// guardLag is a guard register's signature entry: how many cycles past the
// entry clock its value becomes ready, 0 when it already is.
func (m *Model) guardLag(r isa.Reg) uint64 {
	if rt := m.readyAt[r]; rt > m.now {
		return rt - m.now
	}
	return 0
}

// slotSig is the signature byte of a chain branch at pc. When its slot is
// shared within the chain (fine) it is the slot state: 0 when pc does not
// own its direct-mapped slot (invalid or foreign-tagged, which every chain
// branch treats alike), 2+ctr when it does. Otherwise it is the prediction
// bit, btb.predict's answer. It is 0 with the BTB ablated.
func (m *Model) slotSig(pc int32, fine bool) uint8 {
	i := pc & 255
	if m.cfg.DisableBTB || !m.btb.valid[i] || m.btb.tags[i] != pc {
		return 0
	}
	if fine {
		return 2 + m.btb.ctr[i]
	}
	return m.btb.ctr[i] >> 1
}

// pendingUSig is a pairHead chain's pending-U byte: 0 when no U is pending
// or the chain's first event cannot pair with it, else 1 + (now − uIssue).
// It reports false when that distance reaches maxSigEntry.
func (m *Model) pendingUSig(ct *ChainTiming) (uint8, bool) {
	if !m.haveU || !m.canPairAsV(&m.pcT[ct.pcs[0]]) {
		return 0, true
	}
	d := m.now - m.uIssue
	if d >= maxSigEntry {
		return 0, false
	}
	return uint8(1 + d), true
}

func sigEqual(a, b []uint8) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
