package mmx_test

import (
	"math/rand"
	"testing"

	"mmxdsp/internal/isa"
	"mmxdsp/internal/mmx"
	"mmxdsp/internal/mmxref"
)

// binaryOps and shiftOps name the function of this package behind each
// opcode of the reference model.
var binaryOps = map[isa.Op]func(a, b mmx.Reg) mmx.Reg{
	isa.PACKSSWB: mmx.PackSSWB, isa.PACKSSDW: mmx.PackSSDW, isa.PACKUSWB: mmx.PackUSWB,
	isa.PUNPCKLBW: mmx.PUnpckLBW, isa.PUNPCKHBW: mmx.PUnpckHBW,
	isa.PUNPCKLWD: mmx.PUnpckLWD, isa.PUNPCKHWD: mmx.PUnpckHWD,
	isa.PUNPCKLDQ: mmx.PUnpckLDQ, isa.PUNPCKHDQ: mmx.PUnpckHDQ,
	isa.PADDB: mmx.PAddB, isa.PADDW: mmx.PAddW, isa.PADDD: mmx.PAddD,
	isa.PADDSB: mmx.PAddSB, isa.PADDSW: mmx.PAddSW,
	isa.PADDUSB: mmx.PAddUSB, isa.PADDUSW: mmx.PAddUSW,
	isa.PSUBB: mmx.PSubB, isa.PSUBW: mmx.PSubW, isa.PSUBD: mmx.PSubD,
	isa.PSUBSB: mmx.PSubSB, isa.PSUBSW: mmx.PSubSW,
	isa.PSUBUSB: mmx.PSubUSB, isa.PSUBUSW: mmx.PSubUSW,
	isa.PMADDWD: mmx.PMAddWD, isa.PMULHW: mmx.PMulHW, isa.PMULLW: mmx.PMulLW,
	isa.PCMPEQB: mmx.PCmpEqB, isa.PCMPEQW: mmx.PCmpEqW, isa.PCMPEQD: mmx.PCmpEqD,
	isa.PCMPGTB: mmx.PCmpGtB, isa.PCMPGTW: mmx.PCmpGtW, isa.PCMPGTD: mmx.PCmpGtD,
	isa.PAND: mmx.PAnd, isa.PANDN: mmx.PAndN, isa.POR: mmx.POr, isa.PXOR: mmx.PXor,
}

var shiftOps = map[isa.Op]func(a mmx.Reg, n uint) mmx.Reg{
	isa.PSLLW: mmx.PSllW, isa.PSLLD: mmx.PSllD, isa.PSLLQ: mmx.PSllQ,
	isa.PSRLW: mmx.PSrlW, isa.PSRLD: mmx.PSrlD, isa.PSRLQ: mmx.PSrlQ,
	isa.PSRAW: mmx.PSraW, isa.PSRAD: mmx.PSraD,
}

// boundaryRegs builds registers from the boundary lanes: each value
// broadcast to every byte, word and dword lane (truncated to the lane),
// and registers mixing different boundary values across lanes.
func boundaryRegs() []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	add := func(v uint64) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, v := range mmxref.BoundaryLanes {
		add(0x0101_0101_0101_0101 * (v & 0xFF))
		add(0x0001_0001_0001_0001 * (v & 0xFFFF))
		add(0x0000_0001_0000_0001 * (v & 0xFFFF_FFFF))
		add(v)
		add(v << 32)
	}
	n := len(mmxref.BoundaryLanes)
	for i := 0; i < n; i++ {
		var b, w uint64
		for k := 0; k < 8; k++ {
			b |= (mmxref.BoundaryLanes[(i+k)%n] & 0xFF) << (8 * k)
		}
		for k := 0; k < 4; k++ {
			w |= (mmxref.BoundaryLanes[(i+3*k)%n] & 0xFFFF) << (16 * k)
		}
		d := mmxref.BoundaryLanes[i]&0xFFFF_FFFF | mmxref.BoundaryLanes[(i+5)%n]<<32
		add(b)
		add(w)
		add(d)
	}
	return out
}

func checkBinary(t testing.TB, op isa.Op, a, b uint64) {
	want, ok := mmxref.Binary(op, a, b)
	if !ok {
		t.Fatalf("oracle has no %s", op)
	}
	if got := uint64(binaryOps[op](mmx.Reg(a), mmx.Reg(b))); got != want {
		t.Errorf("%s(%#016x, %#016x) = %#016x, oracle %#016x", op, a, b, got, want)
	}
}

func checkShift(t testing.TB, op isa.Op, a, n uint64) {
	want, ok := mmxref.Shift(op, a, n)
	if !ok {
		t.Fatalf("oracle has no %s", op)
	}
	if got := uint64(shiftOps[op](mmx.Reg(a), uint(n))); got != want {
		t.Errorf("%s(%#016x, %d) = %#016x, oracle %#016x", op, a, n, got, want)
	}
}

// TestOracleCoversEveryOp pins the op lists: 36 two-operand and 8 shift
// opcodes, every one known to both the oracle and this test's table.
func TestOracleCoversEveryOp(t *testing.T) {
	if len(mmxref.BinaryOps) != 36 || len(mmxref.ShiftOps) != 8 {
		t.Fatalf("oracle lists %d binary and %d shift ops, want 36 and 8",
			len(mmxref.BinaryOps), len(mmxref.ShiftOps))
	}
	for _, op := range mmxref.BinaryOps {
		if binaryOps[op] == nil {
			t.Errorf("no function for %s", op)
		}
	}
	for _, op := range mmxref.ShiftOps {
		if shiftOps[op] == nil {
			t.Errorf("no function for %s", op)
		}
	}
	if len(binaryOps) != 36 || len(shiftOps) != 8 {
		t.Errorf("function tables hold %d and %d ops", len(binaryOps), len(shiftOps))
	}
}

// TestOracleKnownValues pins the reference itself on the cases where a
// naive reading of the manual most often goes wrong.
func TestOracleKnownValues(t *testing.T) {
	for _, c := range []struct {
		op      isa.Op
		a, b, r uint64
	}{
		// pmaddwd: (-32768)*(-32768) twice is 2^31, which wraps to
		// 0x80000000 in both dwords.
		{isa.PMADDWD, 0x8000_8000_8000_8000, 0x8000_8000_8000_8000, 0x8000_0000_8000_0000},
		{isa.PMADDWD, 0x0004_0003_0002_0001, 0x0008_0007_0006_0005, 0x0000_0035_0000_0011},
		// packuswb reads signed words: negatives clamp to 0, >255 to 255.
		{isa.PACKUSWB, 0x8000_7FFF_0100_00FF, 0xFFFF_0080_0000_0001, 0x0080_0001_00FF_FFFF},
		{isa.PACKSSWB, 0x8000_7FFF_FF80_007F, 0, 0x0000_0000_807F_807F},
		{isa.PACKSSDW, 0x8000_0000_7FFF_FFFF, 0xFFFF_8000_0000_8000, 0x8000_7FFF_8000_7FFF},
		{isa.PADDSB, 0x7F80_7F80_7F80_7F80, 0x01FF_01FF_01FF_01FF, 0x7F80_7F80_7F80_7F80},
		{isa.PADDUSW, 0xFFFF_0001_8000_0000, 0x0001_FFFF_8000_0000, 0xFFFF_FFFF_FFFF_0000},
		{isa.PSUBUSB, 0x0001_0203_0405_0607, 0x0101_0101_0101_0101, 0x0000_0102_0304_0506},
		{isa.PMULHW, 0x8000_8000_7FFF_FFFF, 0x8000_7FFF_7FFF_FFFF, 0x4000_C000_3FFF_0000},
		{isa.PCMPGTW, 0x8000_7FFF_0000_FFFF, 0x7FFF_8000_FFFF_0000, 0x0000_FFFF_FFFF_0000},
		{isa.PUNPCKLBW, 0x0706_0504_0302_0100, 0x1716_1514_1312_1110, 0x1303_1202_1101_1000},
	} {
		if got, _ := mmxref.Binary(c.op, c.a, c.b); got != c.r {
			t.Errorf("oracle %s(%#016x, %#016x) = %#016x, want %#016x", c.op, c.a, c.b, got, c.r)
		}
	}
	for _, c := range []struct {
		op   isa.Op
		a, n uint64
		r    uint64
	}{
		{isa.PSRAW, 0x8000_7FFF_FFFF_0001, 1 << 63, 0xFFFF_0000_FFFF_0000},
		{isa.PSRAD, 0x8000_0000_7FFF_FFFF, 1<<32 + 1, 0xFFFF_FFFF_0000_0000},
		{isa.PSLLW, 0xFFFF_FFFF_FFFF_FFFF, 1<<32 + 1, 0},
		{isa.PSRLQ, 0x8000_0000_0000_0000, 63, 1},
		{isa.PSLLD, 0x0000_0001_8000_0001, 1, 0x0000_0002_0000_0002},
	} {
		if got, _ := mmxref.Shift(c.op, c.a, c.n); got != c.r {
			t.Errorf("oracle %s(%#016x, %d) = %#016x, want %#016x", c.op, c.a, c.n, got, c.r)
		}
	}
}

// TestMatchesOracleOnBoundaryLanes compares every two-operand function with
// the oracle on every pair of boundary registers, and every shift on every
// boundary register and count.
func TestMatchesOracleOnBoundaryLanes(t *testing.T) {
	regs := boundaryRegs()
	for _, op := range mmxref.BinaryOps {
		for _, a := range regs {
			for _, b := range regs {
				checkBinary(t, op, a, b)
			}
		}
	}
	for _, op := range mmxref.ShiftOps {
		for _, a := range regs {
			for _, n := range mmxref.ShiftCounts() {
				checkShift(t, op, a, n)
			}
		}
	}
}

// TestMatchesOracleRandom compares on random registers, half of them built
// from boundary byte, word or dword lanes.
func TestMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	counts := mmxref.ShiftCounts()
	for i := 0; i < n; i++ {
		a, b := mmxref.RandomReg(rng), mmxref.RandomReg(rng)
		checkBinary(t, mmxref.BinaryOps[i%len(mmxref.BinaryOps)], a, b)
		checkShift(t, mmxref.ShiftOps[i%len(mmxref.ShiftOps)], a, counts[rng.Intn(len(counts))])
		if t.Failed() {
			return
		}
	}
}

// FuzzMMXOracle holds every function against the oracle on fuzzed
// operands and shift counts, seeded with the boundary registers.
func FuzzMMXOracle(f *testing.F) {
	regs := boundaryRegs()
	for i, a := range regs {
		f.Add(a, regs[(i*7+3)%len(regs)], uint64(i))
	}
	f.Add(uint64(0x8000_8000_8000_8000), uint64(0x8000_8000_8000_8000), uint64(1<<63))
	f.Add(uint64(0xFFFF_FFFF_FFFF_FFFF), uint64(1), uint64(1<<32+1))
	f.Fuzz(func(t *testing.T, a, b, n uint64) {
		for _, op := range mmxref.BinaryOps {
			checkBinary(t, op, a, b)
		}
		for _, op := range mmxref.ShiftOps {
			checkShift(t, op, a, n)
			checkShift(t, op, a, n%72)
		}
	})
}

// BenchmarkMMXOps reports the cost of one call of each function, through a
// function value as the VM makes it.
func BenchmarkMMXOps(b *testing.B) {
	x, y := mmx.Reg(0x8001_7FFE_00FF_FF00), mmx.Reg(0x7FFF_8000_0101_FEFE)
	for _, op := range mmxref.BinaryOps {
		f := binaryOps[op]
		b.Run(op.String(), func(b *testing.B) {
			r := x
			for i := 0; i < b.N; i++ {
				r = f(r, y)
			}
			sink = r
		})
	}
	for _, op := range mmxref.ShiftOps {
		f := shiftOps[op]
		b.Run(op.String(), func(b *testing.B) {
			r := x
			for i := 0; i < b.N; i++ {
				r = f(r|x, uint(i&15))
			}
			sink = r
		})
	}
}

var sink mmx.Reg
