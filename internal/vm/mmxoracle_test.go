package vm_test

// The MMX oracle differential: a generated program applies every
// two-operand and shift opcode to random mm, mm / mm, m64 / mm, m32 (and
// immediate-count) operands, and every execution path — generic, dispatch
// with formation off, dispatch with traces — must leave exactly the
// registers and memory the independent per-lane model of internal/mmxref
// predicts. Each iteration also crosses from MMX to FP through emms (a
// native fst included), and a variant that skips one emms must fault alike
// on every path.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/mmxref"
	"mmxdsp/internal/vm"
)

// Operand shapes of one oracle slot.
const (
	shapeRR   = iota // op mm, mm
	shapeSame        // op mm, mm with one register as both operands
	shapeM64         // op mm, m64
	shapeM32         // op mm, m32 (zero-extended dword source)
	shapeImm         // shift mm, imm
)

// oracleSlot is one operation of the loop body: op applied in shape to
// the slot's inputs, with the destination in mm register d (and the
// register source in s); imm is the shapeImm count.
type oracleSlot struct {
	op    isa.Op
	shape int
	d, s  isa.Reg
	imm   uint64
}

// oracleSlots lists the loop body's operations: every two-operand op and
// every shift in each register and memory shape, and each shift also at
// twelve immediate counts, with destinations rotating through mm0–mm7.
func oracleSlots() []oracleSlot {
	var slots []oracleSlot
	r := 0
	next := func() (isa.Reg, isa.Reg) {
		r++
		return isa.MM0 + isa.Reg(r%8), isa.MM0 + isa.Reg((r+3)%8)
	}
	for _, op := range mmxref.BinaryOps {
		for _, sh := range []int{shapeRR, shapeSame, shapeM64, shapeM32} {
			d, s := next()
			slots = append(slots, oracleSlot{op: op, shape: sh, d: d, s: s})
		}
	}
	for _, op := range mmxref.ShiftOps {
		for _, sh := range []int{shapeRR, shapeSame, shapeM64, shapeM32} {
			d, s := next()
			slots = append(slots, oracleSlot{op: op, shape: sh, d: d, s: s})
		}
		for _, n := range []uint64{0, 1, 7, 15, 16, 31, 32, 63, 64, 70, 1<<32 + 1, 1 << 63} {
			d, _ := next()
			slots = append(slots, oracleSlot{op: op, shape: shapeImm, d: d, imm: n})
		}
	}
	return slots
}

// oracleProg is a generated program with the outcome the oracle predicts.
type oracleProg struct {
	prog *asm.Program
	out  []byte    // expected "out" region
	fout []byte    // expected "fout" region (FP results)
	mm   [8]uint64 // expected final mm registers
}

// oracleGroup is how many slots one loop runs: the loop body must lower to
// fewer micro-ops than a trace may hold.
const oracleGroup = 24

// buildOracleProg generates the program for iters loop iterations. Slots
// run in groups, each group in a loop of its own; iteration k of a group
// runs each of its slots on the slot's own inputs ina[k][slot] and
// inb[k][slot], storing the result to out[k][slot], then leaves MMX state
// with emms and squares fin[k] into fout[k] as a float64 and a float32.
// When skipEmms >= 0, iteration skipEmms jumps over its emms, so its first
// FP instruction must fault.
func buildOracleProg(seed int64, iters, skipEmms int) *oracleProg {
	rng := rand.New(rand.NewSource(seed))
	slots := oracleSlots()
	n := len(slots)
	counts := mmxref.ShiftCounts()
	ina := make([]uint64, n*iters)
	inb := make([]uint64, n*iters)
	fin := make([]float64, iters)
	for k := 0; k < iters; k++ {
		for j, sl := range slots {
			ina[k*n+j], inb[k*n+j] = mmxref.RandomReg(rng), mmxref.RandomReg(rng)
			if isShift(sl.op) && rng.Intn(4) != 0 {
				inb[k*n+j] = counts[rng.Intn(len(counts))]
			}
		}
		fin[k] = rng.NormFloat64() * 1e3
	}

	// The model machine, in program order: load the destination (and the
	// register source), apply the op, store the destination.
	op := &oracleProg{out: make([]byte, 8*n*iters), fout: make([]byte, 16*iters)}
	for g := 0; g < n; g += oracleGroup {
		for k := 0; k < iters; k++ {
			for j := g; j < min(g+oracleGroup, n); j++ {
				sl := slots[j]
				a, src := ina[k*n+j], inb[k*n+j]
				op.mm[sl.d-isa.MM0] = a
				switch sl.shape {
				case shapeRR:
					op.mm[sl.s-isa.MM0] = src
				case shapeSame:
					src = a
				case shapeM32:
					src &= 0xFFFF_FFFF
				case shapeImm:
					src = sl.imm
				}
				var r uint64
				var ok bool
				if isShift(sl.op) {
					r, ok = mmxref.Shift(sl.op, a, src)
				} else {
					r, ok = mmxref.Binary(sl.op, a, src)
				}
				if !ok {
					panic("oracle has no " + sl.op.String())
				}
				op.mm[sl.d-isa.MM0] = r
				binary.LittleEndian.PutUint64(op.out[8*(k*n+j):], r)
			}
		}
	}
	for k, x := range fin {
		binary.LittleEndian.PutUint64(op.fout[16*k:], math.Float64bits(x*x))
		binary.LittleEndian.PutUint32(op.fout[16*k+8:], math.Float32bits(float32(x*x)))
	}

	b := asm.NewBuilder("mmx-oracle")
	qwords := func(v []uint64) []byte {
		out := make([]byte, 8*len(v))
		for i, x := range v {
			binary.LittleEndian.PutUint64(out[8*i:], x)
		}
		return out
	}
	b.Bytes("ina", qwords(ina))
	b.Bytes("inb", qwords(inb))
	b.Reserve("out", len(op.out))
	b.Doubles("fin", fin)
	b.Reserve("fout", len(op.fout))

	b.Proc("main")
	for g := 0; g < n; g += oracleGroup {
		loop, fp := fmt.Sprintf("loop%d", g), fmt.Sprintf("fp%d", g)
		b.I(isa.MOV, asm.R(isa.ESI), asm.Imm(0)) // byte offset of iteration k's slots
		b.I(isa.MOV, asm.R(isa.EDI), asm.Imm(0)) // k
		b.Label(loop)
		for j := g; j < min(g+oracleGroup, n); j++ {
			sl := slots[j]
			disp := int32(8 * j)
			d := asm.R(sl.d)
			b.I(isa.MOVQ, d, asm.SymIdx(isa.SizeQ, "ina", isa.ESI, 1, disp))
			switch sl.shape {
			case shapeRR:
				b.I(isa.MOVQ, asm.R(sl.s), asm.SymIdx(isa.SizeQ, "inb", isa.ESI, 1, disp))
				b.I(sl.op, d, asm.R(sl.s))
			case shapeSame:
				b.I(sl.op, d, d)
			case shapeM64:
				b.I(sl.op, d, asm.SymIdx(isa.SizeQ, "inb", isa.ESI, 1, disp))
			case shapeM32:
				b.I(sl.op, d, asm.SymIdx(isa.SizeD, "inb", isa.ESI, 1, disp))
			case shapeImm:
				b.I(sl.op, d, asm.Imm(int64(sl.imm)))
			}
			b.I(isa.MOVQ, asm.SymIdx(isa.SizeQ, "out", isa.ESI, 1, disp), d)
		}
		b.I(isa.CMP, asm.R(isa.EDI), asm.Imm(int64(skipEmms)))
		b.J(isa.JE, fp)
		b.I(isa.EMMS)
		b.Label(fp)
		b.I(isa.MOV, asm.R(isa.EAX), asm.R(isa.EDI))
		b.I(isa.SHL, asm.R(isa.EAX), asm.Imm(4))
		b.I(isa.FLD, asm.R(isa.FP0), asm.SymIdx(isa.SizeQ, "fin", isa.EDI, 8, 0))
		b.I(isa.FMUL, asm.R(isa.FP0), asm.R(isa.FP0))
		b.I(isa.FST, asm.SymIdx(isa.SizeQ, "fout", isa.EAX, 1, 0), asm.R(isa.FP0))
		b.I(isa.FST, asm.SymIdx(isa.SizeD, "fout", isa.EAX, 1, 8), asm.R(isa.FP0))
		b.I(isa.ADD, asm.R(isa.ESI), asm.Imm(int64(8*n)))
		b.I(isa.ADD, asm.R(isa.EDI), asm.Imm(1))
		b.I(isa.CMP, asm.R(isa.EDI), asm.Imm(int64(iters)))
		b.J(isa.JL, loop)
	}
	b.I(isa.HALT)
	op.prog = b.MustLink()
	return op
}

func isShift(op isa.Op) bool {
	for _, s := range mmxref.ShiftOps {
		if s == op {
			return true
		}
	}
	return false
}

// oracleIters is the loop trip count: well past the trace threshold, so
// the trace path runs most iterations from trace micro-ops.
func oracleIters() int {
	if testing.Short() {
		return 80
	}
	return 240
}

func TestMMXOracleAcrossPaths(t *testing.T) {
	op := buildOracleProg(41, oracleIters(), -1)
	// Every slot's op lowers to one fused micro-op except the memory-count
	// shifts, which load the count into a temporary first.
	for i := range op.prog.Insts {
		in := &op.prog.Insts[i]
		want := 1
		if isShift(in.Op) && in.B.IsMem() {
			want = 2
		}
		if got := vm.LoweredOps(in); in.Op.IsMMX() && got != want {
			t.Errorf("%s: lowers to %d micro-ops, want %d", in, got, want)
		}
	}
	outAt := int(op.prog.Addr("out"))
	foutAt := int(op.prog.Addr("fout"))
	runs := map[string]*runOutcome{}
	for _, mode := range []string{"generic", "block", "trace"} {
		got := runPath(t, op.prog, mode)
		runs[mode] = got
		if o := got.mem[outAt : outAt+len(op.out)]; string(o) != string(op.out) {
			for i := 0; i < len(op.out); i += 8 {
				if g, w := binary.LittleEndian.Uint64(o[i:]), binary.LittleEndian.Uint64(op.out[i:]); g != w {
					slots := oracleSlots()
					sl := slots[(i/8)%len(slots)]
					t.Fatalf("%s: iteration %d %s (shape %d) = %#016x, oracle %#016x",
						mode, i/8/len(slots), sl.op, sl.shape, g, w)
				}
			}
		}
		if f := got.mem[foutAt : foutAt+len(op.fout)]; string(f) != string(op.fout) {
			t.Errorf("%s: FP results differ from the oracle", mode)
		}
		if got.mm != op.mm {
			t.Errorf("%s: final mm registers %x, oracle %x", mode, got.mm, op.mm)
		}
	}
	if runs["trace"].traces.Formed == 0 {
		t.Errorf("no trace formed: %+v", runs["trace"].traces)
	}
	compareOutcomes(t, "generic", runs["generic"], "block", runs["block"])
	compareOutcomes(t, "generic", runs["generic"], "trace", runs["trace"])
}

// TestMMXOracleMissingEmms skips one iteration's emms, cold (the first
// iteration) and hot (deep in trace residency): the FP load after it must
// fault on every path with the same text, count and machine state.
func TestMMXOracleMissingEmms(t *testing.T) {
	iters := oracleIters()
	for _, skip := range []int{0, iters - 8} {
		op := buildOracleProg(43, iters, skip)
		code := vm.Compile(op.prog)
		gen := runFault(t, op.prog, code, "generic")
		if !strings.Contains(gen.err, "missing emms") {
			t.Fatalf("skip %d: generic fault %q, want missing emms", skip, gen.err)
		}
		for _, mode := range []string{"block", "trace"} {
			got := runFault(t, op.prog, code, mode)
			if got.err != gen.err || got.executed != gen.executed {
				t.Errorf("skip %d, %s: fault %q after %d, generic %q after %d",
					skip, mode, got.err, got.executed, gen.err, gen.executed)
			}
			if got.mm != gen.mm || got.fp != gen.fp || got.gpr != gen.gpr || got.cache != gen.cache {
				t.Errorf("skip %d, %s: machine state differs from generic", skip, mode)
			}
			if string(got.mem) != string(gen.mem) {
				t.Errorf("skip %d, %s: memory image differs from generic", skip, mode)
			}
			if mode == "trace" && skip > 0 && got.formed == 0 {
				t.Errorf("skip %d: no trace formed before the fault", skip)
			}
		}
	}
}
