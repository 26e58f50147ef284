// The observation stream of the dispatch loop (see the package comment for
// its guarantees). The loop never calls Obs directly: each observation
// (or run of identical trace iterations) becomes a record in the current
// batch, with its effective addresses, events or trace blocks in the
// batch's arenas, and a consumer goroutine replays full batches in order. The consumer also owns the cache model:
// it folds each record's addresses through CPU.Hier into the penalties the
// observer receives (mem.Hierarchy.Price), so the interpreter never waits
// on the hierarchy. The interpreter waits on the consumer only when every
// batch of the pool is in its hands.

package vm

import (
	"math"
	"sync"
	"sync/atomic"

	"mmxdsp/internal/isa"
	"mmxdsp/internal/mem"
)

// streamBatch is the record and event capacity of one batch. Tests shrink
// it so that every record kind crosses a handoff; nothing else writes it.
var streamBatch = 1024

// streamPool is how many batches one run cycles between the producer and
// the consumer: enough that neither side waits on the other's scheduling
// jitter, few enough to bound a run's buffers. A batch holds at most
// streamBatch records (16 B) and events (24 B) and about 4 × streamBatch
// effective addresses (8 B), some 70 KB at the default size.
const streamPool = 4

// batches recycles batch storage across runs: a run's buffers grow to
// what it needs once per process, not once per run, which keeps the
// garbage (and the peak heap) of a run where it was without the stream.
var batches = sync.Pool{New: func() any { return new(batch) }}

// Record kinds: one per observer call, plus recRetire and recPrice (see
// record).
const (
	recRetire uint8 = iota
	recBlock
	recRegister
	recTrace
	recTraceExit
	recPrice
)

// record is one observer call followed by ev Retire calls; a recRetire
// record makes no call of its own and heads the Retire calls that open a
// batch, a recPrice record only prices the n addresses of a faulting
// instruction, which retires no event, as the per-instruction loop does,
// and a recTrace record stands for k iterations of its trace in a row,
// each with n addresses (k is ObserveTraceExit's exit index otherwise).
// Variable-length arguments live in the batch's arenas, consumed in record
// order: n effective addresses (k × n for recTrace; recBlock,
// recTraceExit, recPrice), n blocks and directions (recRegister), then ev
// events, each followed by its own addresses.
type record struct {
	kind     uint8
	measured bool
	k        uint16
	id       int32
	n        int32
	ev       int32
}

// retired is an Event as the stream carries it; Inst is the program's
// instruction at pc, and its n effective addresses price MemPenalty.
type retired struct {
	target          int
	pc, n           int32
	measured, taken bool
}

// batch is one unit of handoff.
type batch struct {
	recs   []record
	events []retired
	addrs  []uint64
	blocks []int32
	taken  []bool
}

// stream carries one Run's observations from the dispatch loop (the
// producer, the caller's goroutine) to the observer (the consumer
// goroutine).
type stream struct {
	// The batch being filled, owned by the producer: b holds its
	// storage while the slices below are filled in place. addrs is the
	// address arena: the dispatch loops append a region's effective
	// addresses to it (mem.Next marking an instruction's further
	// references) and pass the extended slice to that record's method,
	// which takes everything past addrs' length.
	b      *batch
	recs   []record
	events []retired
	addrs  []uint64
	blocks []int32
	taken  []bool
	// maxRecs and maxAddrs are the record and address counts that force a
	// handoff.
	maxRecs, maxAddrs int

	obs   TraceObserver
	insts []isa.Inst
	// hier is the run's cache model, charged only by the consumer, and pen
	// the consumer's penalty scratch.
	hier *mem.Hierarchy
	pen  []int32

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

// startStream builds the stream for obs, observing a run of insts priced
// by hier, and starts its consumer.
func startStream(obs TraceObserver, insts []isa.Inst, hier *mem.Hierarchy) *stream {
	s := &stream{
		maxRecs:  streamBatch,
		maxAddrs: 4 * streamBatch,
		obs:      obs,
		insts:    insts,
		hier:     hier,
		full:     make(chan *batch, streamPool),
		free:     make(chan *batch, streamPool),
		done:     make(chan struct{}),
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

// replay prices one batch's addresses and delivers its observations,
// recording a panic instead of letting it kill the process.
func (s *stream) replay(b *batch) {
	defer func() {
		if r := recover(); r != nil {
			s.pval = r
			s.failed.Store(true)
		}
	}()
	// Read once per batch: the stream's fields share cache lines with the
	// producer's slice headers, which it rewrites on every record.
	obs, insts, hier, pen := s.obs, s.insts, s.hier, s.pen
	var ei, ai, bi int
	for _, r := range b.recs {
		n := int(r.n)
		if r.kind != recRegister {
			pen = pen[:0]
			if n > 0 {
				pen = hier.Price(b.addrs[ai:ai+n], pen)
				ai += n
			}
		}
		switch r.kind {
		case recBlock:
			obs.ObserveBlock(int(r.id), r.measured, pen)
		case recRegister:
			obs.RegisterTrace(int(r.id), b.blocks[bi:bi+n], b.taken[bi:bi+n])
			bi += n
		case recTrace:
			obs.ObserveTrace(int(r.id), r.measured, pen)
			for range r.k - 1 {
				pen = pen[:0]
				if n > 0 {
					pen = hier.Price(b.addrs[ai:ai+n], pen)
					ai += n
				}
				obs.ObserveTrace(int(r.id), r.measured, pen)
			}
		case recTraceExit:
			obs.ObserveTraceExit(int(r.id), int(r.k), r.measured, pen)
		}
		for _, e := range b.events[ei : ei+int(r.ev)] {
			p := 0
			if e.n > 0 {
				pen = hier.Price(b.addrs[ai:ai+int(e.n)], pen[:0])
				p = int(pen[0])
				ai += int(e.n)
			}
			obs.Retire(Event{
				PC: int(e.pc), Inst: &insts[e.pc], Measured: e.measured,
				Taken: e.taken, Target: e.target, MemPenalty: p,
			})
		}
		ei += int(r.ev)
	}
	s.pen = pen
}

// seal moves the producer's slices into the current batch.
func (s *stream) seal() {
	b := s.b
	b.recs, b.events, b.addrs, b.blocks, b.taken = s.recs, s.events, s.addrs, s.blocks, s.taken
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
	s.recs, s.events, s.addrs = b.recs[:0], b.events[:0], b.addrs[:0]
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
	if len(s.recs) >= s.maxRecs || len(s.events) >= s.maxRecs || len(s.addrs) >= s.maxAddrs {
		s.handoff()
	}
}

// retire records one Retire call as a trailing event of the last record
// when the batch has one; addrs extends the arena with its instruction's
// effective addresses.
func (s *stream) retire(ev *Event, addrs []uint64) {
	n := len(addrs) - len(s.addrs)
	s.addrs = addrs
	s.events = append(s.events, retired{
		target: ev.Target, pc: int32(ev.PC), n: int32(n),
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

// block records one ObserveBlock call; addrs extends the arena with its
// effective addresses.
func (s *stream) block(bi int, measured bool, addrs []uint64) {
	n := len(addrs) - len(s.addrs)
	s.addrs = addrs
	s.add(recBlock, measured, 0, bi, n, 0)
}

// register records one RegisterTrace call, copying its slices.
func (s *stream) register(id int, blocks []int32, taken []bool) {
	s.blocks = append(s.blocks, blocks...)
	s.taken = append(s.taken, taken...)
	s.add(recRegister, false, 0, id, len(blocks), 0)
}

// trace records one ObserveTrace call; addrs extends the arena with its
// effective addresses. An iteration that repeats the last record's trace,
// measured flag and address count, with no Retire call since, only counts
// that record up: the loops of a suite run repeat one trace about three
// times in a row on average. It returns the arena to go on appending to.
func (s *stream) trace(id int, measured bool, addrs []uint64) []uint64 {
	n := len(addrs) - len(s.addrs)
	s.addrs = addrs
	if i := len(s.recs) - 1; i >= 0 {
		if r := &s.recs[i]; r.kind == recTrace && r.id == int32(id) && r.measured == measured &&
			r.n == int32(n) && r.ev == 0 && r.k < math.MaxUint16 {
			r.k++
			if len(s.addrs) >= s.maxAddrs {
				s.handoff()
			}
			return s.addrs
		}
	}
	s.add(recTrace, measured, 1, id, n, 0)
	return s.addrs
}

// traceExit records one ObserveTraceExit call; addrs extends the arena with
// its effective addresses.
func (s *stream) traceExit(id, k int, measured bool, addrs []uint64) {
	n := len(addrs) - len(s.addrs)
	s.addrs = addrs
	s.add(recTraceExit, measured, k, id, n, 0)
}

// priceOnly records the effective addresses of a faulting instruction
// (addrs extends the arena with them), so the consumer charges the cache
// model for them as the per-instruction loop does, without an observer
// call.
func (s *stream) priceOnly(addrs []uint64) {
	n := len(addrs) - len(s.addrs)
	s.addrs = addrs
	s.add(recPrice, false, 0, 0, n, 0)
}
