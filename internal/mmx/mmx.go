// Package mmx implements the value semantics of the MMX instruction set:
// 64-bit packed registers holding eight bytes, four words, two doublewords
// or one quadword, with wrap-around and saturating arithmetic, packed
// multiplies (pmullw/pmulhw/pmaddwd), pack/unpack, compares, logicals and
// shifts.
//
// The package is pure value arithmetic: a Reg is just a uint64 and every
// operation is a function from Regs to a Reg. The virtual machine
// (internal/vm) calls these functions for every MMX instruction it
// executes, on every execution path.
//
// The operations are written word-parallel (SWAR, SIMD within a register):
// each one is straight-line 64-bit arithmetic over all lanes at once, with
// no per-lane loop or call. Two invariants carry that formulation:
//
//   - Lane order. Lane 0 is the least-significant lane of the Reg, so a
//     Reg loaded little-endian from memory has byte i of memory in byte
//     lane i. Carries and borrows never cross a lane boundary: every sum
//     is formed with the lane MSBs cleared, and the MSBs are then fixed up
//     by XOR, so a lane's result depends only on the same lane of the
//     operands.
//   - Saturation. A saturating operation computes the wrap-around result
//     and a per-lane mask whose MSB is set where the lane overflowed
//     (unsigned: carry or borrow out of the lane; signed: operands of one
//     sign giving a result of the other). The mask is broadcast to the
//     whole lane, (m>>7)*0xFF or (m>>15)*0xFFFF, and selects the
//     saturated value: all-ones or zero for unsigned lanes, 0x7F…/0x80…
//     chosen by the first operand's sign for signed ones.
//
// The reference for every result is the independent per-lane model in
// internal/mmxref, which shares no code with this package; the tests
// compare the two exhaustively on boundary lanes, by fuzzing, and through
// all three execution paths of the VM.
package mmx

// Reg is a 64-bit MMX register value. Lane 0 is the least-significant lane,
// matching the little-endian layout of the x86 memory image.
type Reg uint64

// FromBytes packs eight bytes into a register, b[0] in the low lane.
func FromBytes(b [8]uint8) Reg {
	var r Reg
	for i := 7; i >= 0; i-- {
		r = r<<8 | Reg(b[i])
	}
	return r
}

// Bytes unpacks the register into eight unsigned bytes.
func (r Reg) Bytes() [8]uint8 {
	var b [8]uint8
	for i := range b {
		b[i] = uint8(r >> (8 * uint(i)))
	}
	return b
}

// FromWords packs four signed 16-bit words, w[0] in the low lane.
func FromWords(w [4]int16) Reg {
	var r Reg
	for i := 3; i >= 0; i-- {
		r = r<<16 | Reg(uint16(w[i]))
	}
	return r
}

// Words unpacks the register into four signed 16-bit words.
func (r Reg) Words() [4]int16 {
	var w [4]int16
	for i := range w {
		w[i] = int16(r >> (16 * uint(i)))
	}
	return w
}

// FromDwords packs two signed 32-bit doublewords, d[0] in the low lane.
func FromDwords(d [2]int32) Reg {
	return Reg(uint32(d[0])) | Reg(uint32(d[1]))<<32
}

// Dwords unpacks the register into two signed 32-bit doublewords.
func (r Reg) Dwords() [2]int32 {
	return [2]int32{int32(uint32(r)), int32(uint32(r >> 32))}
}

// SignedBytes unpacks the register into eight signed bytes.
func (r Reg) SignedBytes() [8]int8 {
	var b [8]int8
	for i := range b {
		b[i] = int8(r >> (8 * uint(i)))
	}
	return b
}

// FromSignedBytes packs eight signed bytes, b[0] in the low lane.
func FromSignedBytes(b [8]int8) Reg {
	var r Reg
	for i := 7; i >= 0; i-- {
		r = r<<8 | Reg(uint8(b[i]))
	}
	return r
}

// Lane masks: the MSB of every lane (h*), and bit 0 of every lane (l*),
// which times a lane value broadcasts it to all lanes.
const (
	h8  Reg = 0x8080_8080_8080_8080
	h16 Reg = 0x8000_8000_8000_8000
	h32 Reg = 0x8000_0000_8000_0000
	l16 Reg = 0x0001_0001_0001_0001
	l32 Reg = 0x0000_0001_0000_0001
)

// wrapAdd adds lane-wise with wrap-around; h is the lane MSB mask. The low
// bits are summed with the MSBs cleared, so no carry leaves a lane, and
// the MSB of the sum is then a^b^carry-in.
func wrapAdd(a, b, h Reg) Reg { return (a&^h + b&^h) ^ (a^b)&h }

// wrapSub subtracts lane-wise with wrap-around: every lane of a|h is at
// least h, above b&^h, so no borrow leaves a lane.
func wrapSub(a, b, h Reg) Reg { return ((a | h) - b&^h) ^ (a^^b)&h }

// spread widens a set of lane MSBs (as h selects) to whole-lane masks;
// w is the lane width in bits.
func spread(m Reg, w uint) Reg { return (m >> (w - 1)) * (1<<w - 1) }

// ---------------------------------------------------------------------------
// Wrap-around packed add/subtract (paddb/paddw/paddd, psubb/psubw/psubd)

// PAddB adds packed bytes with wrap-around.
func PAddB(a, b Reg) Reg { return wrapAdd(a, b, h8) }

// PAddW adds packed words with wrap-around.
func PAddW(a, b Reg) Reg { return wrapAdd(a, b, h16) }

// PAddD adds packed doublewords with wrap-around.
func PAddD(a, b Reg) Reg { return wrapAdd(a, b, h32) }

// PSubB subtracts packed bytes with wrap-around.
func PSubB(a, b Reg) Reg { return wrapSub(a, b, h8) }

// PSubW subtracts packed words with wrap-around.
func PSubW(a, b Reg) Reg { return wrapSub(a, b, h16) }

// PSubD subtracts packed doublewords with wrap-around.
func PSubD(a, b Reg) Reg { return wrapSub(a, b, h32) }

// ---------------------------------------------------------------------------
// Saturating packed add/subtract

// addUS adds unsigned lanes, saturating at all-ones: the carry out of a
// lane is the MSB of a&b | (a|b)&^sum.
func addUS(a, b, h Reg, w uint) Reg {
	s := wrapAdd(a, b, h)
	return s | spread((a&b|(a|b)&^s)&h, w)
}

// subUS subtracts unsigned lanes, saturating at zero: the borrow out of a
// lane is the MSB of ^a&b | ^(a^b)&diff.
func subUS(a, b, h Reg, w uint) Reg {
	d := wrapSub(a, b, h)
	return d &^ spread((^a&b|^(a^b)&d)&h, w)
}

// satS replaces the lanes of r that overflowed (ov's lane MSBs) with the
// signed limit on the side of a's sign: 0x7F… for a positive a, 0x80… for
// a negative one.
func satS(r, a, ov, h Reg, w uint) Reg {
	m := spread(ov&h, w)
	lim := ^h ^ spread(a&h, w)
	return r&^m | lim&m
}

// addSS adds signed lanes with saturation: a sum overflows when both
// operands have one sign and the result the other.
func addSS(a, b, h Reg, w uint) Reg {
	s := wrapAdd(a, b, h)
	return satS(s, a, ^(a^b)&(a^s), h, w)
}

// subSS subtracts signed lanes with saturation: a difference overflows
// when the operands differ in sign and the result's sign is not a's.
func subSS(a, b, h Reg, w uint) Reg {
	d := wrapSub(a, b, h)
	return satS(d, a, (a^b)&(a^d), h, w)
}

// PAddSB adds packed signed bytes with signed saturation.
func PAddSB(a, b Reg) Reg { return addSS(a, b, h8, 8) }

// PAddSW adds packed signed words with signed saturation.
func PAddSW(a, b Reg) Reg { return addSS(a, b, h16, 16) }

// PAddUSB adds packed unsigned bytes with unsigned saturation.
func PAddUSB(a, b Reg) Reg { return addUS(a, b, h8, 8) }

// PAddUSW adds packed unsigned words with unsigned saturation.
func PAddUSW(a, b Reg) Reg { return addUS(a, b, h16, 16) }

// PSubSB subtracts packed signed bytes with signed saturation.
func PSubSB(a, b Reg) Reg { return subSS(a, b, h8, 8) }

// PSubSW subtracts packed signed words with signed saturation.
func PSubSW(a, b Reg) Reg { return subSS(a, b, h16, 16) }

// PSubUSB subtracts packed unsigned bytes with unsigned saturation.
func PSubUSB(a, b Reg) Reg { return subUS(a, b, h8, 8) }

// PSubUSW subtracts packed unsigned words with unsigned saturation.
func PSubUSW(a, b Reg) Reg { return subUS(a, b, h16, 16) }

// ---------------------------------------------------------------------------
// Packed multiplies

// mul is the signed 32-bit product of the words of a and b at bit offset s.
func mul(a, b Reg, s uint) int32 { return int32(int16(a>>s)) * int32(int16(b>>s)) }

// PMulLW multiplies packed signed words and keeps the low 16 bits of each
// 32-bit product.
func PMulLW(a, b Reg) Reg {
	return Reg(uint16(mul(a, b, 0))) | Reg(uint16(mul(a, b, 16)))<<16 |
		Reg(uint16(mul(a, b, 32)))<<32 | Reg(uint16(mul(a, b, 48)))<<48
}

// PMulHW multiplies packed signed words and keeps the high 16 bits of each
// 32-bit product.
func PMulHW(a, b Reg) Reg {
	return Reg(uint16(mul(a, b, 0)>>16)) | Reg(uint16(mul(a, b, 16)>>16))<<16 |
		Reg(uint16(mul(a, b, 32)>>16))<<32 | Reg(uint16(mul(a, b, 48)>>16))<<48
}

// PMAddWD multiplies packed signed words and adds adjacent 32-bit products:
// out.lo = a0*b0 + a1*b1, out.hi = a2*b2 + a3*b3, wrapping at 32 bits (so
// 0x8000*0x8000 twice gives 0x80000000). This is the MMX multiply-
// accumulate primitive that gives matvec its superlinear speedup.
func PMAddWD(a, b Reg) Reg {
	return Reg(uint32(mul(a, b, 0)+mul(a, b, 16))) | Reg(uint32(mul(a, b, 32)+mul(a, b, 48)))<<32
}

// ---------------------------------------------------------------------------
// Pack with saturation

// ssb saturates the word of r at bit offset s to a signed byte.
func ssb(r Reg, s uint) Reg { return Reg(uint8(min(max(int16(r>>s), -128), 127))) }

// usb saturates the word of r at bit offset s to an unsigned byte.
func usb(r Reg, s uint) Reg { return Reg(uint8(min(max(int16(r>>s), 0), 255))) }

// ssw saturates the dword of r at bit offset s to a signed word.
func ssw(r Reg, s uint) Reg { return Reg(uint16(min(max(int32(r>>s), -32768), 32767))) }

// PackSSWB packs the four words of a (low lanes) and b (high lanes) into
// eight signed-saturated bytes.
func PackSSWB(a, b Reg) Reg {
	return ssb(a, 0) | ssb(a, 16)<<8 | ssb(a, 32)<<16 | ssb(a, 48)<<24 |
		ssb(b, 0)<<32 | ssb(b, 16)<<40 | ssb(b, 32)<<48 | ssb(b, 48)<<56
}

// PackSSDW packs the two dwords of a (low lanes) and b (high lanes) into
// four signed-saturated words.
func PackSSDW(a, b Reg) Reg {
	return ssw(a, 0) | ssw(a, 32)<<16 | ssw(b, 0)<<32 | ssw(b, 32)<<48
}

// PackUSWB packs the four signed words of a (low lanes) and b (high lanes)
// into eight unsigned-saturated bytes.
func PackUSWB(a, b Reg) Reg {
	return usb(a, 0) | usb(a, 16)<<8 | usb(a, 32)<<16 | usb(a, 48)<<24 |
		usb(b, 0)<<32 | usb(b, 16)<<40 | usb(b, 32)<<48 | usb(b, 48)<<56
}

// ---------------------------------------------------------------------------
// Unpack (interleave)

// spreadB moves the four bytes of the low dword of x to the even byte
// lanes, zeroing the odd ones.
func spreadB(x Reg) Reg {
	x = (x&0xFFFF_0000)<<16 | x&0xFFFF
	return (x&0x0000_FF00_0000_FF00)<<8 | x&0x0000_00FF_0000_00FF
}

// spreadW moves the two words of the low dword of x to the even word
// lanes, zeroing the odd ones.
func spreadW(x Reg) Reg { return (x&0xFFFF_0000)<<16 | x&0xFFFF }

// PUnpckLBW interleaves the low four bytes of a and b:
// out = b3 a3 b2 a2 b1 a1 b0 a0 (high..low).
func PUnpckLBW(a, b Reg) Reg { return spreadB(a) | spreadB(b)<<8 }

// PUnpckHBW interleaves the high four bytes of a and b.
func PUnpckHBW(a, b Reg) Reg { return spreadB(a>>32) | spreadB(b>>32)<<8 }

// PUnpckLWD interleaves the low two words of a and b.
func PUnpckLWD(a, b Reg) Reg { return spreadW(a) | spreadW(b)<<16 }

// PUnpckHWD interleaves the high two words of a and b.
func PUnpckHWD(a, b Reg) Reg { return spreadW(a>>32) | spreadW(b>>32)<<16 }

// PUnpckLDQ interleaves the low dwords of a and b.
func PUnpckLDQ(a, b Reg) Reg { return a&0xFFFF_FFFF | b<<32 }

// PUnpckHDQ interleaves the high dwords of a and b.
func PUnpckHDQ(a, b Reg) Reg { return a>>32 | b&^0xFFFF_FFFF }

// ---------------------------------------------------------------------------
// Packed compares (result lanes are all-ones or all-zeros)

// cmpEq sets the lanes where a and b are equal: x = a^b is zero there, and
// (x&^h + ^h) | x has a lane's MSB set exactly where that lane of x is not.
func cmpEq(a, b, h Reg, w uint) Reg {
	x := a ^ b
	return spread(^(x&^h+^h|x)&h, w)
}

// cmpGt sets the lanes where a > b as signed values: the true sign of
// b-a is the wrapped difference's sign corrected by the overflow term.
func cmpGt(a, b, h Reg, w uint) Reg {
	d := wrapSub(b, a, h)
	return spread((d^(b^a)&(b^d))&h, w)
}

// PCmpEqB compares packed bytes for equality.
func PCmpEqB(a, b Reg) Reg { return cmpEq(a, b, h8, 8) }

// PCmpEqW compares packed words for equality.
func PCmpEqW(a, b Reg) Reg { return cmpEq(a, b, h16, 16) }

// PCmpEqD compares packed doublewords for equality.
func PCmpEqD(a, b Reg) Reg { return cmpEq(a, b, h32, 32) }

// PCmpGtB compares packed signed bytes for a > b.
func PCmpGtB(a, b Reg) Reg { return cmpGt(a, b, h8, 8) }

// PCmpGtW compares packed signed words for a > b.
func PCmpGtW(a, b Reg) Reg { return cmpGt(a, b, h16, 16) }

// PCmpGtD compares packed signed doublewords for a > b.
func PCmpGtD(a, b Reg) Reg { return cmpGt(a, b, h32, 32) }

// ---------------------------------------------------------------------------
// Logicals

// PAnd returns a & b.
func PAnd(a, b Reg) Reg { return a & b }

// PAndN returns ^a & b (MMX pandn: NOT of the destination ANDed with source).
func PAndN(a, b Reg) Reg { return ^a & b }

// POr returns a | b.
func POr(a, b Reg) Reg { return a | b }

// PXor returns a ^ b.
func PXor(a, b Reg) Reg { return a ^ b }

// ---------------------------------------------------------------------------
// Shifts: one 64-bit shift, masked to keep bits from crossing lanes. Counts
// >= the lane width zero (or sign-) fill, as on hardware.

// PSllW shifts packed words left.
func PSllW(a Reg, n uint) Reg {
	if n > 15 {
		return 0
	}
	return a << n & (l16 * Reg(uint16(0xFFFF<<n)))
}

// PSllD shifts packed doublewords left.
func PSllD(a Reg, n uint) Reg {
	if n > 31 {
		return 0
	}
	return a << n & (l32 * Reg(uint32(0xFFFF_FFFF<<n)))
}

// PSllQ shifts the quadword left.
func PSllQ(a Reg, n uint) Reg {
	if n > 63 {
		return 0
	}
	return a << n
}

// PSrlW shifts packed words right, zero filling.
func PSrlW(a Reg, n uint) Reg {
	if n > 15 {
		return 0
	}
	return a >> n & (l16 * Reg(0xFFFF>>n))
}

// PSrlD shifts packed doublewords right, zero filling.
func PSrlD(a Reg, n uint) Reg {
	if n > 31 {
		return 0
	}
	return a >> n & (l32 * Reg(0xFFFF_FFFF>>n))
}

// PSrlQ shifts the quadword right, zero filling.
func PSrlQ(a Reg, n uint) Reg {
	if n > 63 {
		return 0
	}
	return a >> n
}

// PSraW shifts packed words right arithmetically (sign filling): the
// logical shift, with the vacated high bits of each negative lane set.
func PSraW(a Reg, n uint) Reg {
	n = min(n, 15)
	keep := Reg(0xFFFF >> n)
	return a>>n&(l16*keep) | (a&h16)>>15*(0xFFFF^keep)
}

// PSraD shifts packed doublewords right arithmetically (sign filling).
func PSraD(a Reg, n uint) Reg {
	n = min(n, 31)
	keep := Reg(0xFFFF_FFFF >> n)
	return a>>n&(l32*keep) | (a&h32)>>31*(0xFFFF_FFFF^keep)
}
