package mem

import "testing"

// BenchmarkPrice prices reference traces of 4096 entries through the
// default hierarchy (16 KiB 4-way L1, 512 KiB 4-way L2) and reports ns per
// reference. one-stream sweeps 8 KiB word by word, so nearly every access
// hits its set's front way; two-stream interleaves two such sweeps 16 KiB
// apart (sameSetWalk), so every hit after a line's first reference is in
// its set's second way; random walks 64 KiB at random, so a quarter of the
// accesses hit the L1, at any recency, and the rest go to the L2.
func BenchmarkPrice(b *testing.B) {
	const n = 4096
	oneStream := make([]uint64, n)
	for i := range oneStream {
		oneStream[i] = 0x1000 + uint64(4*i)%(8<<10)
	}
	walks := []struct {
		name string
		refs []uint64
	}{
		{"one-stream", oneStream},
		{"two-stream", sameSetWalk(n, 8<<10)},
		{"random", randomWalk(n, 99, 64<<10)},
	}
	for _, w := range walks {
		b.Run(w.name, func(b *testing.B) {
			h := NewHierarchy()
			pen := h.Price(w.refs, nil) // warm both levels
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pen = h.Price(w.refs, pen[:0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(w.refs)), "ns/ref")
		})
	}
}
