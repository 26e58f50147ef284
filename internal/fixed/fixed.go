// Package fixed provides Q15 fixed-point arithmetic helpers shared by the
// reference DSP implementations and the tests.
//
// Q15 stores a real value v in [-1, 1) as round(v * 32768) in an int16.
// All narrowing conversions saturate, matching MMX saturation semantics.
package fixed

// Q15Unit is the Q15 scale factor: 1.0 in Q15 (not itself representable).
const Q15Unit = 32768

// SatW saturates a 32-bit value to the signed 16-bit range.
func SatW(v int32) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return int16(v)
}

// ToQ15 converts a real value to Q15 with rounding and saturation.
func ToQ15(v float64) int16 {
	s := v * Q15Unit
	if s >= 0 {
		s += 0.5
	} else {
		s -= 0.5
	}
	return SatW(clamp32(s))
}

// FromQ15 converts a Q15 value back to a real value.
func FromQ15(v int16) float64 { return float64(v) / Q15Unit }

// MulQ15 multiplies two Q15 values producing a Q15 value (single rounding,
// saturating). This matches the classic DSP fractional multiply:
// (a*b) >> 15 with round-half-up.
func MulQ15(a, b int16) int16 {
	p := int32(a) * int32(b)
	p += 1 << 14
	return SatW(p >> 15)
}

// MulQ15Trunc multiplies two Q15 values with truncation toward negative
// infinity: (a*b)>>15 on the full 32-bit product. This is the semantics of
// the MMX pmulhw/pmullw recombination idiom the assembly library uses, and
// is one bit noisier than MulQ15 — the precision loss the paper attributes
// to the "interleaving of high and low words during multiplication".
func MulQ15Trunc(a, b int16) int16 {
	return int16((int32(a) * int32(b)) >> 15)
}

// MacQ15 returns acc + a*b in Q30 without intermediate rounding. The caller
// narrows once at the end, which is how pmaddwd-based inner products behave.
func MacQ15(acc int64, a, b int16) int64 { return acc + int64(a)*int64(b) }

// NarrowQ30 converts a Q30 accumulator to Q15 with rounding and saturation.
func NarrowQ30(acc int64) int16 {
	acc += 1 << 14
	acc >>= 15
	if acc > 32767 {
		return 32767
	}
	if acc < -32768 {
		return -32768
	}
	return int16(acc)
}

// VecToQ15 converts a float64 slice to Q15.
func VecToQ15(v []float64) []int16 {
	out := make([]int16, len(v))
	for i, x := range v {
		out[i] = ToQ15(x)
	}
	return out
}

func clamp32(s float64) int32 {
	if s > 2147483647 {
		return 2147483647
	}
	if s < -2147483648 {
		return -2147483648
	}
	return int32(s)
}
