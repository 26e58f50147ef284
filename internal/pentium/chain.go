// Region timing: the profile collector prices every retired region — a
// basic-block body, one full on-trace iteration, or a trace side exit — as a
// chain: a fixed sequence of basic blocks, each block's straight-line body
// followed by its terminator with a known direction (a lone block body is a
// one-block chain whose terminator emits no event). The cycle schedule of
// that sequence — dependency stalls, U/V pairing, result latencies, cache
// penalties, branch predictions — is a pure function of the dynamic entry
// state, which a chain reaches through only three inputs:
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
//     every in-iteration prediction.
//
// RetireChain resolves a (lags, penalties, slot states) signature by
// replaying the whole event sequence once through a scratch model with the
// BTB seeded to reproduce those slot states, memoizes the schedule in a
// per-chain MRU variant table, and thereafter applies it as one aggregate
// update: clock delta, pair/branch/mispredict counts, scoreboard writes,
// live BTB updates, exit pairing state. DSP loops have a constant
// carried-dependency lag and a periodic streaming-miss pattern, so a handful
// of variants covers the steady state, and steady-state loops hit the
// lastHit variant with a single signature comparison. When no schedule
// applies (oversized lags/penalties, entry pairing risk), it declines
// without touching state and the caller retires the region per event.
package pentium

import (
	"mmxdsp/internal/isa"
	"mmxdsp/internal/vm"
)

// maxChainSig bounds the signature length (lags + penalties + predictions);
// longer chains fall back to per-event retirement.
const maxChainSig = 255

// maxSigEntry bounds the lag and penalty values a variant signature
// records; larger values (microcoded latencies, pathological misses) fall
// back to per-event replay.
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
	// pairRisk reports that the chain's first event could pair into the V
	// pipe behind a pending U instruction (pairable-V with single-cycle
	// occupancy); entering with haveU set then invalidates any precomputed
	// schedule.
	pairRisk bool
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
	// lastHit is the index of the most recently applied variant, maintained
	// on every apply path (full, steady, and predecessor-steady).
	lastHit int

	// Steady state: a loop chain iterating back to back settles into one
	// variant whose application reproduces its own entry signature — written
	// guards land at a constant lag (off − delta), unwritten guards decay to
	// lag 0, and the chain's BTB counters saturate at their recorded
	// directions. Once RetireChain observes the same variant match on two
	// consecutive calls with nothing else touching the model (Model.seq
	// unchanged) and every chain branch saturated, it records the variant in
	// steady; subsequent calls then skip signature construction, comparison
	// and the (no-op) BTB updates entirely, verifying only that the caller's
	// penalties still match. Any other model activity changes Model.seq and
	// disarms the fast path until steady state is re-proven.
	steady   int // variant index, -1 when not in steady state
	seqAfter uint64

	// Predecessor-keyed steady state: a trace tree alternates between
	// sibling paths, so a chain is often re-entered after exactly one
	// intervening apply — the sibling path's chain. When two consecutive
	// full-path calls match the same variant with the identical
	// (predecessor chain, predecessor schedule) gap of exactly one apply,
	// and every branch of both chains is saturated at its recorded
	// direction (so neither apply moves the BTB), the entry state is proven
	// to recur and pred/predCosts/predSteady record the keyed variant.
	// Subsequent calls that arrive through the same one-apply gap — checked
	// against Model.lastChain/lastCosts/lastSeq and the schedule's
	// cost-slice identity — skip signature work exactly like steady.
	// candPred/candCosts/candHit track the previous call's gap for the
	// two-consecutive-observations proof.
	pred       *ChainTiming
	predCosts  []uint32
	predSteady int // variant index engaged under the keyed gap, -1 none
	candPred   *ChainTiming
	candCosts  []uint32
	candHit    int

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
	ct := &ChainTiming{steady: -1, predSteady: -1}
	var written, guarded [isa.NumRegs]bool
	addEvent := func(pc int32, taken bool) {
		t := &m.pcT[pc]
		if len(ct.pcs) == 0 {
			ct.pairRisk = !m.cfg.DisablePairing && t.pairV && t.occ == 1
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
	if len(ct.guards)+ct.memN+len(ct.branchPCs) > maxChainSig {
		return nil
	}
	return ct
}

// replayChain resolves one schedule variant by replaying the full event
// sequence through a scratch model seeded from the signature: guard lags,
// per-reference penalties, and a BTB pre-loaded with each branch's slot
// state (tag+counter for owned slots; empty otherwise — an empty slot
// replays identically to a foreign-tagged one for every chain branch, since
// repeated PCs of one branch share a single owned entry and same-PC decline
// is no longer needed).
func (m *Model) replayChain(ct *ChainTiming, sig []uint8, out *chainSched) {
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
	sim.now, sim.paired, sim.branches, sim.mispred, sim.seq = 0, 0, 0, 0, 0
	sim.haveU, sim.uIssue, sim.uT, sim.si = false, 0, nil, 0
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
		sim.readyAt[r] = uint64(sig[i])
	}
	pen := sig[len(ct.guards) : len(ct.guards)+ct.memN]
	slots := sig[len(ct.guards)+ct.memN:]
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
	out.delta = sim.now
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
			out.writes = append(out.writes, regReady{reg: isa.Reg(r), off: sim.readyAt[r]})
		}
	}
	out.exitU = sim.haveU
	if sim.haveU {
		out.uOff = sim.uIssue
		out.uT = sim.uT
	}
}

// applyChain commits a resolved schedule: aggregate clock/counter update,
// scoreboard writes, exit pairing state, and — when btb is set — the live
// BTB updates each chain branch would have performed. Steady-state applies
// pass btb false: every chain branch's counter is then saturated at its
// recorded direction, so the updates are no-ops. It records the apply as
// the model's last one (for steady-state proofs) and returns the
// schedule's costs.
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
	m.lastChain, m.lastCosts, m.lastSeq = ct, s.costs, m.seq
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
	if ct == nil || ct.dead || len(ct.pcs) == 0 {
		return nil
	}
	if m.haveU && ct.pairRisk {
		return nil
	}
	if len(penalties) != ct.memN {
		return nil
	}
	if ct.steady >= 0 {
		if m.seq != ct.seqAfter {
			ct.steady = -1
		} else {
			if v := &ct.variants[ct.steady]; ct.penaltiesMatch(v, penalties) {
				ct.hits++
				return m.applyChain(ct, &v.s, false)
			}
			// Penalties diverged this iteration: fall through to the full
			// path, which re-proves or abandons steady state.
			ct.steady = -1
		}
	}
	// Predecessor-keyed fast path: re-entered after exactly one intervening
	// apply, and it was the proven predecessor schedule following our own
	// proven variant. Both chains' branches were saturated at proof time and
	// neither fast path touches the BTB, so the entry state recurs; only the
	// penalties need verifying.
	if ct.predSteady >= 0 && ct.lastHit == ct.predSteady &&
		m.seq == ct.seqAfter+1 && m.lastSeq == m.seq && m.lastChain == ct.pred &&
		len(m.lastCosts) > 0 && len(ct.predCosts) > 0 && &m.lastCosts[0] == &ct.predCosts[0] {
		if v := &ct.variants[ct.predSteady]; ct.penaltiesMatch(v, penalties) {
			ct.hits++
			return m.applyChain(ct, &v.s, false)
		}
	}
	base := m.now
	sig := m.sigBuf[:0]
	for _, r := range ct.guards {
		lag := uint64(0)
		if rt := m.readyAt[r]; rt > base {
			lag = rt - base
			if lag > maxSigEntry {
				m.sigBuf = sig
				return nil
			}
		}
		sig = append(sig, uint8(lag))
	}
	for _, p := range penalties {
		if p < 0 || p > maxSigEntry {
			m.sigBuf = sig
			return nil
		}
		sig = append(sig, uint8(p))
	}
	for i, pc := range ct.branchPCs {
		st := uint8(0)
		if !m.cfg.DisableBTB {
			if ct.branchFine[i] {
				st = m.btb.slotState(int(pc))
			} else if m.btb.predict(int(pc)) {
				st = 1
			}
		}
		sig = append(sig, st)
	}
	m.sigBuf = sig
	if h := ct.lastHit; h < len(ct.variants) && sigEqual(ct.variants[h].sig, sig) {
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
		ct.steady = -1
		if steady {
			ct.steady = h
		} else if m.seq == ct.seqAfter+1 && m.lastSeq == m.seq &&
			m.lastChain != nil && m.lastChain != ct && len(m.lastCosts) > 0 {
			// Exactly one foreign apply since our last: a predecessor-keyed
			// gap. Prove predSteady on the second consecutive observation of
			// the same (predecessor, schedule, variant) triple, provided no
			// branch of either chain can still move the BTB.
			if ct.candPred == m.lastChain && ct.candHit == h &&
				len(ct.candCosts) > 0 && &ct.candCosts[0] == &m.lastCosts[0] {
				sat := true
				if !m.cfg.DisableBTB {
					for i, pc := range ct.branchPCs {
						if !m.btb.saturated(int(pc), ct.branchTaken[i]) {
							sat = false
							break
						}
					}
					if sat {
						p := m.lastChain
						for i, pc := range p.branchPCs {
							if !m.btb.saturated(int(pc), p.branchTaken[i]) {
								sat = false
								break
							}
						}
					}
				}
				if sat {
					ct.pred, ct.predCosts, ct.predSteady = m.lastChain, m.lastCosts, h
				}
			}
			ct.candPred, ct.candCosts, ct.candHit = m.lastChain, m.lastCosts, h
		} else {
			ct.candPred = nil
		}
		ct.hits++
		return m.applyChain(ct, &v.s, true)
	}
	ct.steady = -1
	ct.candPred = nil
	for vi := range ct.variants {
		v := &ct.variants[vi]
		if sigEqual(v.sig, sig) {
			ct.hits++
			ct.lastHit = vi
			return m.applyChain(ct, &v.s, true)
		}
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
		// Never reuse the evicted schedule's costs backing: callers batch
		// applications by cost-slice identity, so a returned slice must
		// stay immutable for the run's lifetime. A recycled slot also
		// invalidates any keyed steady state or proof candidate pinned to
		// it.
		v.s.costs = nil
		if ct.predSteady == ct.lastHit {
			ct.predSteady = -1
		}
		if ct.candHit == ct.lastHit {
			ct.candPred = nil
		}
		if ct.churn++; ct.churn >= chainChurnWindow {
			if ct.hits < ct.churn*4 {
				ct.dead = true
			}
			ct.churn, ct.hits = 0, 0
		}
	}
	v.sig = append(v.sig[:0], sig...)
	m.replayChain(ct, v.sig, &v.s)
	return m.applyChain(ct, &v.s, true)
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
