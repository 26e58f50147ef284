// Package mmxref is a deliberately naive per-lane reference model of the
// MMX two-operand and shift instructions, the oracle the tests hold
// internal/mmx and every execution path of internal/vm against.
//
// It shares no code with what it checks: it imports neither internal/mmx
// nor internal/fixed. A register is viewed as the u8/s8/u16/s16/u32/s32
// lanes of its little-endian bytes, and each opcode is one plain loop over
// those lanes with widened arithmetic and explicit clamps, in the shape of
// a textbook emulator. Speed is not a goal; only the tests import it.
package mmxref

import (
	"encoding/binary"
	"math/rand"

	"mmxdsp/internal/isa"
)

// BinaryOps lists the 36 two-operand MMX opcodes (mm, mm/m64).
var BinaryOps = []isa.Op{
	isa.PACKSSWB, isa.PACKSSDW, isa.PACKUSWB,
	isa.PUNPCKLBW, isa.PUNPCKHBW, isa.PUNPCKLWD, isa.PUNPCKHWD,
	isa.PUNPCKLDQ, isa.PUNPCKHDQ,
	isa.PADDB, isa.PADDW, isa.PADDD, isa.PADDSB, isa.PADDSW,
	isa.PADDUSB, isa.PADDUSW,
	isa.PSUBB, isa.PSUBW, isa.PSUBD, isa.PSUBSB, isa.PSUBSW,
	isa.PSUBUSB, isa.PSUBUSW,
	isa.PMADDWD, isa.PMULHW, isa.PMULLW,
	isa.PCMPEQB, isa.PCMPEQW, isa.PCMPEQD,
	isa.PCMPGTB, isa.PCMPGTW, isa.PCMPGTD,
	isa.PAND, isa.PANDN, isa.POR, isa.PXOR,
}

// ShiftOps lists the eight MMX shift opcodes (mm, imm/mm/m64 count).
var ShiftOps = []isa.Op{
	isa.PSLLW, isa.PSLLD, isa.PSLLQ,
	isa.PSRLW, isa.PSRLD, isa.PSRLQ,
	isa.PSRAW, isa.PSRAD,
}

// BoundaryLanes are the lane values at which wrap-around, saturation, sign
// and compare results change; tests build registers from them.
var BoundaryLanes = []uint64{
	0, 1, 0x7F, 0x80, 0xFF, 0x7FFF, 0x8000, 0xFFFF,
	0x7FFFFFFF, 0x80000000, 0xFFFFFFFF,
}

// ShiftCounts returns every shift count through and past each lane width
// (0–70), and two that only a 64-bit count comparison gets right.
func ShiftCounts() []uint64 {
	var out []uint64
	for n := uint64(0); n <= 70; n++ {
		out = append(out, n)
	}
	return append(out, 1<<32+1, 1<<63)
}

// RandomReg draws a test register: uniformly random half the time,
// otherwise built from boundary byte, word or dword lanes.
func RandomReg(rng *rand.Rand) uint64 {
	if rng.Intn(2) == 0 {
		return rng.Uint64()
	}
	w := []uint{8, 16, 32}[rng.Intn(3)]
	var v uint64
	for k := uint(0); k < 64; k += w {
		v |= (BoundaryLanes[rng.Intn(len(BoundaryLanes))] & (1<<w - 1)) << k
	}
	return v
}

// lanes is one register's bytes, lane 0 first (little-endian).
type lanes [8]byte

func view(v uint64) lanes {
	var l lanes
	binary.LittleEndian.PutUint64(l[:], v)
	return l
}

func (l *lanes) u64() uint64          { return binary.LittleEndian.Uint64(l[:]) }
func (l *lanes) u8(i int) uint8       { return l[i] }
func (l *lanes) s8(i int) int8        { return int8(l[i]) }
func (l *lanes) u16(i int) uint16     { return binary.LittleEndian.Uint16(l[2*i:]) }
func (l *lanes) s16(i int) int16      { return int16(l.u16(i)) }
func (l *lanes) u32(i int) uint32     { return binary.LittleEndian.Uint32(l[4*i:]) }
func (l *lanes) s32(i int) int32      { return int32(l.u32(i)) }
func (l *lanes) set8(i int, v int64)  { l[i] = byte(v) }
func (l *lanes) set16(i int, v int64) { binary.LittleEndian.PutUint16(l[2*i:], uint16(v)) }
func (l *lanes) set32(i int, v int64) { binary.LittleEndian.PutUint32(l[4*i:], uint32(v)) }

// clamp limits v to [lo, hi].
func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// mask is all-ones when cond holds, zero otherwise.
func mask(cond bool) int64 {
	if cond {
		return -1
	}
	return 0
}

// Binary returns the result of the two-operand opcode op applied to the
// destination a and the source b; ok is false for any other opcode.
func Binary(op isa.Op, a, b uint64) (r uint64, ok bool) {
	x, y := view(a), view(b)
	var o lanes
	switch op {
	case isa.PADDB:
		for i := 0; i < 8; i++ {
			o.set8(i, int64(x.u8(i))+int64(y.u8(i)))
		}
	case isa.PADDW:
		for i := 0; i < 4; i++ {
			o.set16(i, int64(x.u16(i))+int64(y.u16(i)))
		}
	case isa.PADDD:
		for i := 0; i < 2; i++ {
			o.set32(i, int64(x.u32(i))+int64(y.u32(i)))
		}
	case isa.PSUBB:
		for i := 0; i < 8; i++ {
			o.set8(i, int64(x.u8(i))-int64(y.u8(i)))
		}
	case isa.PSUBW:
		for i := 0; i < 4; i++ {
			o.set16(i, int64(x.u16(i))-int64(y.u16(i)))
		}
	case isa.PSUBD:
		for i := 0; i < 2; i++ {
			o.set32(i, int64(x.u32(i))-int64(y.u32(i)))
		}
	case isa.PADDSB:
		for i := 0; i < 8; i++ {
			o.set8(i, clamp(int64(x.s8(i))+int64(y.s8(i)), -128, 127))
		}
	case isa.PADDSW:
		for i := 0; i < 4; i++ {
			o.set16(i, clamp(int64(x.s16(i))+int64(y.s16(i)), -32768, 32767))
		}
	case isa.PADDUSB:
		for i := 0; i < 8; i++ {
			o.set8(i, clamp(int64(x.u8(i))+int64(y.u8(i)), 0, 255))
		}
	case isa.PADDUSW:
		for i := 0; i < 4; i++ {
			o.set16(i, clamp(int64(x.u16(i))+int64(y.u16(i)), 0, 65535))
		}
	case isa.PSUBSB:
		for i := 0; i < 8; i++ {
			o.set8(i, clamp(int64(x.s8(i))-int64(y.s8(i)), -128, 127))
		}
	case isa.PSUBSW:
		for i := 0; i < 4; i++ {
			o.set16(i, clamp(int64(x.s16(i))-int64(y.s16(i)), -32768, 32767))
		}
	case isa.PSUBUSB:
		for i := 0; i < 8; i++ {
			o.set8(i, clamp(int64(x.u8(i))-int64(y.u8(i)), 0, 255))
		}
	case isa.PSUBUSW:
		for i := 0; i < 4; i++ {
			o.set16(i, clamp(int64(x.u16(i))-int64(y.u16(i)), 0, 65535))
		}
	case isa.PMULLW:
		for i := 0; i < 4; i++ {
			o.set16(i, int64(x.s16(i))*int64(y.s16(i)))
		}
	case isa.PMULHW:
		for i := 0; i < 4; i++ {
			o.set16(i, int64(x.s16(i))*int64(y.s16(i))>>16)
		}
	case isa.PMADDWD:
		// The sum of two products wraps at 32 bits: 0x8000*0x8000 twice
		// is 2^31, stored as 0x80000000.
		for i := 0; i < 2; i++ {
			o.set32(i, int64(x.s16(2*i))*int64(y.s16(2*i))+
				int64(x.s16(2*i+1))*int64(y.s16(2*i+1)))
		}
	case isa.PACKSSWB:
		for i := 0; i < 4; i++ {
			o.set8(i, clamp(int64(x.s16(i)), -128, 127))
			o.set8(i+4, clamp(int64(y.s16(i)), -128, 127))
		}
	case isa.PACKUSWB:
		for i := 0; i < 4; i++ {
			o.set8(i, clamp(int64(x.s16(i)), 0, 255))
			o.set8(i+4, clamp(int64(y.s16(i)), 0, 255))
		}
	case isa.PACKSSDW:
		for i := 0; i < 2; i++ {
			o.set16(i, clamp(int64(x.s32(i)), -32768, 32767))
			o.set16(i+2, clamp(int64(y.s32(i)), -32768, 32767))
		}
	case isa.PUNPCKLBW:
		for i := 0; i < 4; i++ {
			o.set8(2*i, int64(x.u8(i)))
			o.set8(2*i+1, int64(y.u8(i)))
		}
	case isa.PUNPCKHBW:
		for i := 0; i < 4; i++ {
			o.set8(2*i, int64(x.u8(i+4)))
			o.set8(2*i+1, int64(y.u8(i+4)))
		}
	case isa.PUNPCKLWD:
		for i := 0; i < 2; i++ {
			o.set16(2*i, int64(x.u16(i)))
			o.set16(2*i+1, int64(y.u16(i)))
		}
	case isa.PUNPCKHWD:
		for i := 0; i < 2; i++ {
			o.set16(2*i, int64(x.u16(i+2)))
			o.set16(2*i+1, int64(y.u16(i+2)))
		}
	case isa.PUNPCKLDQ:
		o.set32(0, int64(x.u32(0)))
		o.set32(1, int64(y.u32(0)))
	case isa.PUNPCKHDQ:
		o.set32(0, int64(x.u32(1)))
		o.set32(1, int64(y.u32(1)))
	case isa.PCMPEQB:
		for i := 0; i < 8; i++ {
			o.set8(i, mask(x.u8(i) == y.u8(i)))
		}
	case isa.PCMPEQW:
		for i := 0; i < 4; i++ {
			o.set16(i, mask(x.u16(i) == y.u16(i)))
		}
	case isa.PCMPEQD:
		for i := 0; i < 2; i++ {
			o.set32(i, mask(x.u32(i) == y.u32(i)))
		}
	case isa.PCMPGTB:
		for i := 0; i < 8; i++ {
			o.set8(i, mask(x.s8(i) > y.s8(i)))
		}
	case isa.PCMPGTW:
		for i := 0; i < 4; i++ {
			o.set16(i, mask(x.s16(i) > y.s16(i)))
		}
	case isa.PCMPGTD:
		for i := 0; i < 2; i++ {
			o.set32(i, mask(x.s32(i) > y.s32(i)))
		}
	case isa.PAND:
		for i := 0; i < 8; i++ {
			o.set8(i, int64(x.u8(i)&y.u8(i)))
		}
	case isa.PANDN:
		for i := 0; i < 8; i++ {
			o.set8(i, int64(^x.u8(i)&y.u8(i)))
		}
	case isa.POR:
		for i := 0; i < 8; i++ {
			o.set8(i, int64(x.u8(i)|y.u8(i)))
		}
	case isa.PXOR:
		for i := 0; i < 8; i++ {
			o.set8(i, int64(x.u8(i)^y.u8(i)))
		}
	default:
		return 0, false
	}
	return o.u64(), true
}

// Shift returns the result of the shift opcode op applied to a by the
// 64-bit count n; ok is false for any other opcode. A count at or past the
// lane width clears every lane (logical shifts) or fills it with its sign
// bit (arithmetic shifts), however large the count.
func Shift(op isa.Op, a, n uint64) (r uint64, ok bool) {
	x := view(a)
	var o lanes
	switch op {
	case isa.PSLLW:
		for i := 0; i < 4; i++ {
			if n < 16 {
				o.set16(i, int64(x.u16(i))<<n)
			}
		}
	case isa.PSLLD:
		for i := 0; i < 2; i++ {
			if n < 32 {
				o.set32(i, int64(x.u32(i))<<n)
			}
		}
	case isa.PSLLQ:
		if n < 64 {
			return a << n, true
		}
		return 0, true
	case isa.PSRLW:
		for i := 0; i < 4; i++ {
			if n < 16 {
				o.set16(i, int64(x.u16(i))>>n)
			}
		}
	case isa.PSRLD:
		for i := 0; i < 2; i++ {
			if n < 32 {
				o.set32(i, int64(x.u32(i))>>n)
			}
		}
	case isa.PSRLQ:
		if n < 64 {
			return a >> n, true
		}
		return 0, true
	case isa.PSRAW:
		for i := 0; i < 4; i++ {
			o.set16(i, int64(x.s16(i))>>min(n, 15))
		}
	case isa.PSRAD:
		for i := 0; i < 2; i++ {
			o.set32(i, int64(x.s32(i))>>min(n, 31))
		}
	default:
		return 0, false
	}
	return o.u64(), true
}
