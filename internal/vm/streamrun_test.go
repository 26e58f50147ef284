package vm

import (
	"fmt"
	"slices"
	"testing"

	"mmxdsp/internal/isa"
	"mmxdsp/internal/mem"
)

// callLog is a TraceObserver that logs every call with its penalties.
type callLog []string

func (l *callLog) Retire(ev Event) { *l = append(*l, fmt.Sprint("retire ", ev.PC, ev.MemPenalty)) }
func (l *callLog) ObserveBlock(bi int, m bool, pen []int32) {
	*l = append(*l, fmt.Sprint("block ", bi, m, pen))
}
func (l *callLog) RegisterTrace(id int, blocks []int32, taken []bool) {
	*l = append(*l, fmt.Sprint("register ", id, blocks, taken))
}
func (l *callLog) ObserveTrace(id int, m bool, pen []int32) {
	*l = append(*l, fmt.Sprint("trace ", id, m, pen))
}
func (l *callLog) ObserveTraceExit(id, k int, m bool, pen []int32) {
	*l = append(*l, fmt.Sprint("exit ", id, k, m, pen))
}

// TestStreamCountsTraceRuns feeds the stream iterations of traces directly:
// a run of one trace's iterations becomes one record, which a change of
// trace, measured flag or address count, a Retire call or a handoff ends,
// and the observer still gets one ObserveTrace per iteration, priced in
// order, as from a synchronous loop.
func TestStreamCountsTraceRuns(t *testing.T) {
	type call struct {
		id       int // -1: a Retire call
		measured bool
		refs     int
	}
	calls := []call{
		{1, true, 2}, {1, true, 2}, {1, true, 2}, {1, true, 2}, // one run
		{1, false, 2}, {1, false, 2}, // the measured flag splits it
		{1, false, 1},                // so does the address count
		{2, false, 1}, {2, false, 1}, // and the trace
		{-1, false, 1}, // a Retire call ends the run
		{2, false, 1}, {2, false, 0}, {2, false, 0},
	}
	for _, tc := range []struct {
		batch, recs int // recs: records in the last batch
	}{{1024, 6}, {3, 1}} {
		insts := []isa.Inst{{Op: isa.MOV}}
		var got, want callLog
		ref := mem.NewHierarchy()
		s := startStream(&got, insts, mem.NewHierarchy())
		s.maxRecs, s.maxAddrs = tc.batch, tc.batch
		addr := uint64(0x1000)
		for _, c := range calls {
			refs := make([]uint64, c.refs)
			for i := range refs {
				refs[i] = addr
				addr += 4096 + 64 // a miss each
			}
			pen := ref.Price(refs, nil)
			if c.id < 0 {
				s.retire(&Event{PC: 0}, append(s.addrs, refs...))
				want.Retire(Event{PC: 0, MemPenalty: int(pen[0])})
				continue
			}
			s.trace(c.id, c.measured, append(s.addrs, refs...))
			want.ObserveTrace(c.id, c.measured, pen)
		}
		if len(s.recs) != tc.recs {
			t.Errorf("batch %d: %d records in the last batch, want %d", tc.batch, len(s.recs), tc.recs)
		}
		s.close(nil)
		if !slices.Equal(got, want) {
			t.Errorf("batch %d: observer calls\n%q\nwant\n%q", tc.batch, got, want)
		}
	}
}
