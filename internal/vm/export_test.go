package vm

import "mmxdsp/internal/isa"

// SetStreamBatch sets the observation stream's batch size (records per
// handoff) and returns a function restoring the previous size. Callers
// must not run other observed CPUs concurrently.
func SetStreamBatch(n int) (restore func()) {
	old := streamBatch
	streamBatch = n
	return func() { streamBatch = old }
}

// LoweredOps returns how many micro-ops an instruction lowers to.
func LoweredOps(in *isa.Inst) int {
	return len(lowerInst(nil, in, 0))
}
