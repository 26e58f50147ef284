// The observation stream of the dispatch loop (see the package comment for
// its guarantees). The loop never calls Obs directly: each observation
// becomes a record in the current batch, with its penalties, events or
// trace blocks in the batch's arenas, and a consumer goroutine replays full
// batches in order. The interpreter waits on the consumer only when every
// batch of the pool is in its hands.

package vm

import (
	"sync"
	"sync/atomic"

	"mmxdsp/internal/isa"
)

// streamBatch is the record and event capacity of one batch. Tests shrink
// it so that every record kind crosses a handoff; nothing else writes it.
var streamBatch = 1024

// streamPool is how many batches one run cycles between the producer and
// the consumer: enough that neither side waits on the other's scheduling
// jitter, few enough to bound a run's buffers. A batch holds at most
// streamBatch records (16 B) and events (24 B) and about 4 × streamBatch
// penalties (4 B), some 60 KB at the default size.
const streamPool = 4

// batches recycles batch storage across runs: a run's buffers grow to
// what it needs once per process, not once per run, which keeps the
// garbage (and the peak heap) of a run where it was without the stream.
var batches = sync.Pool{New: func() any { return new(batch) }}

// Record kinds: one per observer call, plus recRetire (see record).
const (
	recRetire uint8 = iota
	recBlock
	recRegister
	recTrace
	recTraceExit
)

// record is one observer call followed by ev Retire calls; a recRetire
// record makes no call of its own and heads the Retire calls that open a
// batch. Variable-length arguments live in the batch's arenas, consumed in
// record order: n penalties (recBlock, recTrace, recTraceExit), n blocks
// and directions (recRegister), then ev events.
type record struct {
	kind     uint8
	measured bool
	k        uint16
	id       int32
	n        int32
	ev       int32
}

// retired is an Event as the stream carries it; Inst is the program's
// instruction at pc.
type retired struct {
	target          int
	pc, pen         int32
	measured, taken bool
}

// batch is one unit of handoff.
type batch struct {
	recs   []record
	events []retired
	pen    []int32
	blocks []int32
	taken  []bool
}

// stream carries one Run's observations from the dispatch loop (the
// producer, the caller's goroutine) to the observer (the consumer
// goroutine).
type stream struct {
	// The batch being filled, owned by the producer: b holds its
	// storage while the slices below are filled in place. pen is the
	// penalty arena: the dispatch loops append a record's penalties to it
	// and pass the extended slice to that record's method, which takes
	// everything past pen's length; appends that never reach a record (a
	// fault mid-body) are dropped.
	b      *batch
	recs   []record
	events []retired
	pen    []int32
	blocks []int32
	taken  []bool
	// maxRecs and maxPen are the record and penalty counts that force a
	// handoff.
	maxRecs, maxPen int

	obs   TraceObserver
	insts []isa.Inst

	// full carries filled batches to the consumer and free returns them.
	// Both are buffered to the pool size, so neither the consumer's
	// return nor the producer's final flush can block.
	full, free chan *batch
	done       chan struct{}

	// failed is set by the consumer when the observer panics; the value is
	// in pval, which the producer reads only after done is closed.
	failed atomic.Bool
	pval   any
}

// stopStream is the producer-side panic that unwinds the dispatch loop once
// the consumer has failed; Run replaces it with the observer's own value.
type stopStream struct{}

// startStream builds the stream for obs, observing a run of insts, and
// starts its consumer.
func startStream(obs TraceObserver, insts []isa.Inst) *stream {
	s := &stream{
		maxRecs: streamBatch,
		maxPen:  4 * streamBatch,
		obs:     obs,
		insts:   insts,
		full:    make(chan *batch, streamPool),
		free:    make(chan *batch, streamPool),
		done:    make(chan struct{}),
	}
	for i := 1; i < streamPool; i++ {
		s.free <- batches.Get().(*batch)
	}
	s.take(batches.Get().(*batch))
	go s.drain()
	return s
}

// drain is the consumer: it replays batches in order until the producer
// closes full. After an observer panic it only recycles batches, so the
// producer can always make progress to its next handoff.
func (s *stream) drain() {
	defer close(s.done)
	for b := range s.full {
		if !s.failed.Load() {
			s.replay(b)
		}
		s.free <- b
	}
}

// replay delivers one batch to the observer, recording a panic instead of
// letting it kill the process.
func (s *stream) replay(b *batch) {
	defer func() {
		if r := recover(); r != nil {
			s.pval = r
			s.failed.Store(true)
		}
	}()
	// Read once per batch: the stream's fields share cache lines with the
	// producer's slice headers, which it rewrites on every record.
	obs, insts := s.obs, s.insts
	var ei, pi, bi int
	for _, r := range b.recs {
		n := int(r.n)
		switch r.kind {
		case recBlock:
			obs.ObserveBlock(int(r.id), r.measured, b.pen[pi:pi+n])
			pi += n
		case recRegister:
			obs.RegisterTrace(int(r.id), b.blocks[bi:bi+n], b.taken[bi:bi+n])
			bi += n
		case recTrace:
			obs.ObserveTrace(int(r.id), r.measured, b.pen[pi:pi+n])
			pi += n
		case recTraceExit:
			obs.ObserveTraceExit(int(r.id), int(r.k), r.measured, b.pen[pi:pi+n])
			pi += n
		}
		for _, e := range b.events[ei : ei+int(r.ev)] {
			obs.Retire(Event{
				PC: int(e.pc), Inst: &insts[e.pc], Measured: e.measured,
				Taken: e.taken, Target: e.target, MemPenalty: int(e.pen),
			})
		}
		ei += int(r.ev)
	}
}

// seal moves the producer's slices into the current batch.
func (s *stream) seal() {
	b := s.b
	b.recs, b.events, b.pen, b.blocks, b.taken = s.recs, s.events, s.pen, s.blocks, s.taken
}

// close flushes the tail, joins the consumer and re-raises a panic: the
// observer's, or else the producer's own (r, as recovered by Run). After it
// returns the observer's state is complete and the consumer has exited.
func (s *stream) close(r any) {
	s.seal()
	s.full <- s.b
	s.b = nil
	close(s.full)
	<-s.done
	for range streamPool {
		batches.Put(<-s.free)
	}
	if s.pval != nil {
		panic(s.pval)
	}
	if _, stopped := r.(stopStream); r != nil && !stopped {
		panic(r)
	}
}

// handoff passes the current batch to the consumer and takes an empty one,
// waiting when the consumer is a whole pool behind. It is the producer's
// only synchronization point, so it is also where the producer learns of
// an observer panic.
func (s *stream) handoff() {
	if s.failed.Load() {
		panic(stopStream{})
	}
	s.seal()
	s.full <- s.b
	s.take(<-s.free)
}

// take makes b, emptied, the batch being filled.
func (s *stream) take(b *batch) {
	s.b = b
	s.recs, s.events, s.pen = b.recs[:0], b.events[:0], b.pen[:0]
	s.blocks, s.taken = b.blocks[:0], b.taken[:0]
}

// add appends a record and hands the batch off when it is full. The fields
// are stored straight into the slot: a composite literal would be built on
// the stack and copied with wider loads than its stores, stalling store
// forwarding on every record.
func (s *stream) add(kind uint8, measured bool, k, id, n, ev int) {
	if len(s.recs) == cap(s.recs) {
		s.recs = append(s.recs, record{})
	} else {
		s.recs = s.recs[:len(s.recs)+1]
	}
	r := &s.recs[len(s.recs)-1]
	r.kind, r.measured, r.k, r.id, r.n, r.ev = kind, measured, uint16(k), int32(id), int32(n), int32(ev)
	if len(s.recs) >= s.maxRecs || len(s.events) >= s.maxRecs || len(s.pen) >= s.maxPen {
		s.handoff()
	}
}

// retire records one Retire call, as a trailing event of the last record
// when the batch has one.
func (s *stream) retire(ev *Event) {
	s.events = append(s.events, retired{
		target: ev.Target, pc: int32(ev.PC), pen: int32(ev.MemPenalty),
		measured: ev.Measured, taken: ev.Taken,
	})
	if i := len(s.recs) - 1; i >= 0 {
		s.recs[i].ev++
		if len(s.events) >= s.maxRecs {
			s.handoff()
		}
		return
	}
	s.add(recRetire, false, 0, 0, 0, 1)
}

// block records one ObserveBlock call; pen extends the arena with its
// penalties.
func (s *stream) block(bi int, measured bool, pen []int32) {
	n := len(pen) - len(s.pen)
	s.pen = pen
	s.add(recBlock, measured, 0, bi, n, 0)
}

// register records one RegisterTrace call, copying its slices.
func (s *stream) register(id int, blocks []int32, taken []bool) {
	s.blocks = append(s.blocks, blocks...)
	s.taken = append(s.taken, taken...)
	s.add(recRegister, false, 0, id, len(blocks), 0)
}

// trace records one ObserveTrace call; pen extends the arena with its
// penalties. It returns the arena to go on appending to.
func (s *stream) trace(id int, measured bool, pen []int32) []int32 {
	n := len(pen) - len(s.pen)
	s.pen = pen
	s.add(recTrace, measured, 0, id, n, 0)
	return s.pen
}

// traceExit records one ObserveTraceExit call; pen extends the arena with
// its penalties.
func (s *stream) traceExit(id, k int, measured bool, pen []int32) {
	n := len(pen) - len(s.pen)
	s.pen = pen
	s.add(recTraceExit, measured, k, id, n, 0)
}
