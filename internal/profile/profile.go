// Package profile is the VTune analog: it observes the retired instruction
// stream of a VM run, feeds the Pentium timing model, and accumulates the
// metrics the paper reports — dynamic and static instruction counts,
// Pentium II micro-ops, memory references, clock cycles, per-class and
// per-procedure cycle attribution, and the MMX instruction-category
// breakdown of Figure 1(a).
//
// Only instructions retired inside the program's profon/profoff region are
// counted, matching the paper's methodology of measuring the computation
// core while excluding initialization and I/O; cache and branch-predictor
// state still evolves outside the region, as VTune's whole-program
// simulation did.
package profile

import (
	"mmxdsp/internal/asm"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/pentium"
	"mmxdsp/internal/vm"
)

// Collector implements vm.TraceObserver: it prices each event or retired
// region through the timing model and accumulates measured-region
// statistics.
type Collector struct {
	Model *pentium.Model
	Prog  *asm.Program

	// meta is the program's per-PC static metadata (class, uop count,
	// category, memory-reference predicate), computed once at link time and
	// indexed per event instead of re-derived.
	meta []isa.InstMeta

	dyn     uint64
	uops    uint64
	memRefs uint64
	cycles  uint64
	calls   uint64

	// Indexed by PC (program size is known up front).
	pcCounts []uint64
	pcCycles []uint64

	classCounts [isa.NumClasses]uint64
	classCycles [isa.NumClasses]uint64
	mmxCat      [5]uint64 // indexed by isa.MMXCategory
	opCounts    [isa.NumOps]uint64

	// blocks holds the per-block regions for ObserveBlock (see block.go);
	// traces the per-trace records for ObserveTrace (see traceobs.go);
	// fastEvents/perEvents split retired events by path.
	blocks     []region
	traces     []*traceChain
	fastEvents uint64
	perEvents  uint64

	// Run-length batch of per-event retirements: every measured counter
	// update is a pure function of (PC, cycle cost), and with trace
	// formation off consecutive Retire calls are the same loop terminator
	// at the same steady-state cost, so identical consecutive events fold
	// into one count flushed on change (or at Report).
	runPC   int32
	runCost uint32
	runN    uint64
}

// NewCollector builds a collector for one program run. The model should
// already be bound to prog; region-level observation degrades to per-event
// replay otherwise.
func NewCollector(prog *asm.Program, model *pentium.Model) *Collector {
	c := &Collector{
		Model:    model,
		Prog:     prog,
		meta:     prog.InstMeta(),
		pcCounts: make([]uint64, len(prog.Insts)),
		pcCycles: make([]uint64, len(prog.Insts)),
	}
	c.initBlocks()
	return c
}

// Retire implements vm.Observer.
func (c *Collector) Retire(ev vm.Event) {
	c.perEvents++
	cost := c.Model.Retire(ev)
	if !ev.Measured {
		return
	}
	if int32(ev.PC) == c.runPC && uint32(cost) == c.runCost && c.runN != 0 {
		c.runN++
		return
	}
	c.flushRun()
	c.runPC = int32(ev.PC)
	c.runCost = uint32(cost)
	c.runN = 1
}

// flushRun folds the pending run of identical retirements into the
// counters.
func (c *Collector) flushRun() {
	n := c.runN
	if n == 0 {
		return
	}
	c.runN = 0
	c.tally(int(c.runPC), uint64(c.runCost), n)
}

// tally applies n measured retirements of the instruction at pc, each
// charged cost cycles.
func (c *Collector) tally(pc int, cost uint64, n uint64) {
	md := &c.meta[pc]
	c.dyn += n
	c.cycles += cost * n
	c.uops += uint64(md.Uops) * n
	if md.RefsMem {
		c.memRefs += n
	}
	op := c.Prog.Insts[pc].Op
	cl := md.Class
	c.classCounts[cl] += n
	c.classCycles[cl] += cost * n
	c.mmxCat[md.Category] += n
	c.pcCounts[pc] += n
	c.pcCycles[pc] += cost * n
	c.opCounts[op] += n
	if op == isa.CALL {
		c.calls += n
	}
}

// Report summarizes one measured run. All ratios in the paper's tables are
// computed from these fields.
type Report struct {
	Name string

	DynamicInstructions uint64
	StaticInstructions  uint64
	Uops                uint64
	MemoryReferences    uint64
	Cycles              uint64
	Calls               uint64

	// MMX instruction-category counts (Figure 1a buckets).
	MMXPackUnpack uint64
	MMXArithmetic uint64
	MMXMoves      uint64
	MMXEmms       uint64

	// Cycle and count attribution.
	ClassCounts [isa.NumClasses]uint64
	ClassCycles [isa.NumClasses]uint64
	OpCounts    [isa.NumOps]uint64

	// Per-procedure flat (self) profile.
	Procs []ProcProfile

	// Pipeline and memory-system statistics (whole run).
	Pairs         uint64
	Branches      uint64
	Mispredicts   uint64
	CacheAccesses uint64
	L1Misses      uint64
	L2Misses      uint64
}

// ProcProfile is the flat profile of one procedure.
type ProcProfile struct {
	Name         string
	Cycles       uint64
	Instructions uint64
}

// Report builds the final report.
func (c *Collector) Report(name string) *Report {
	c.flushRun()
	c.flushRegions()
	var static uint64
	for _, n := range c.pcCounts {
		if n > 0 {
			static++
		}
	}
	r := &Report{
		Name:                name,
		DynamicInstructions: c.dyn,
		StaticInstructions:  static,
		Uops:                c.uops,
		MemoryReferences:    c.memRefs,
		Cycles:              c.cycles,
		Calls:               c.calls,
		MMXPackUnpack:       c.mmxCat[isa.MMXPackUnpack],
		MMXArithmetic:       c.mmxCat[isa.MMXArithmetic],
		MMXMoves:            c.mmxCat[isa.MMXMove],
		MMXEmms:             c.mmxCat[isa.MMXEmms],
		ClassCounts:         c.classCounts,
		ClassCycles:         c.classCycles,
		OpCounts:            c.opCounts,
		Pairs:               c.Model.Pairs(),
		Branches:            c.Model.Branches(),
		Mispredicts:         c.Model.Mispredicts(),
	}
	// Aggregate per-procedure self cycles.
	agg := map[string]*ProcProfile{}
	for pc, n := range c.pcCounts {
		if n == 0 {
			continue
		}
		proc := c.Prog.ProcAt(pc)
		if proc == "" {
			proc = "(top)"
		}
		p := agg[proc]
		if p == nil {
			p = &ProcProfile{Name: proc}
			agg[proc] = p
		}
		p.Instructions += n
		p.Cycles += c.pcCycles[pc]
	}
	for _, p := range agg {
		r.Procs = append(r.Procs, *p)
	}
	sortProcs(r.Procs)
	return r
}

func sortProcs(ps []ProcProfile) {
	// Insertion sort by descending cycles (small N; avoids importing sort
	// for a custom comparator in this hot-free path).
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && (ps[j].Cycles > ps[j-1].Cycles ||
			(ps[j].Cycles == ps[j-1].Cycles && ps[j].Name < ps[j-1].Name)); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// MMXInstructions returns the total dynamic MMX instruction count.
func (r *Report) MMXInstructions() uint64 {
	return r.MMXPackUnpack + r.MMXArithmetic + r.MMXMoves + r.MMXEmms
}

// PercentMMX returns the share of dynamic instructions that are MMX, in
// percent (Table 2's "% MMX Instructions").
func (r *Report) PercentMMX() float64 {
	return pct(r.MMXInstructions(), r.DynamicInstructions)
}

// PercentMemRefs returns the share of dynamic instructions using any memory
// addressing mode, in percent (Table 2's "% Memory References").
func (r *Report) PercentMemRefs() float64 {
	return pct(r.MemoryReferences, r.DynamicInstructions)
}

// CallRetCycleShare returns the percentage of cycles spent in call and ret
// instructions (the paper quotes 23.88% for radar.mmx).
func (r *Report) CallRetCycleShare() float64 {
	cr := r.ClassCycles[isa.ClassCall] + r.ClassCycles[isa.ClassRet]
	return pct(cr, r.Cycles)
}

// MMXBreakdown returns each Figure 1(a) category as a percentage of all
// dynamic instructions, in the order pack/unpack, arithmetic, moves, emms.
func (r *Report) MMXBreakdown() [4]float64 {
	return [4]float64{
		pct(r.MMXPackUnpack, r.DynamicInstructions),
		pct(r.MMXArithmetic, r.DynamicInstructions),
		pct(r.MMXMoves, r.DynamicInstructions),
		pct(r.MMXEmms, r.DynamicInstructions),
	}
}

// PackUnpackShareOfMMX returns pack/unpack instructions as a percentage of
// MMX instructions (the paper quotes 20.5% for matvec).
func (r *Report) PackUnpackShareOfMMX() float64 {
	return pct(r.MMXPackUnpack, r.MMXInstructions())
}

func pct(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}
