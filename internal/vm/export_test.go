package vm

// SetStreamBatch sets the observation stream's batch size (records per
// handoff) and returns a function restoring the previous size. Callers
// must not run other observed CPUs concurrently.
func SetStreamBatch(n int) (restore func()) {
	old := streamBatch
	streamBatch = n
	return func() { streamBatch = old }
}
