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

// LowersNative reports whether a block-body instruction lowers to a native
// micro-op rather than a call of the generic executor.
func LowersNative(in *isa.Inst) bool {
	u, _ := lowerInst(in, 0)
	return u.kind != uCall
}
