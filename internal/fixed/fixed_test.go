package fixed

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSatW(t *testing.T) {
	cases := []struct {
		in   int32
		want int16
	}{
		{0, 0}, {1, 1}, {-1, -1},
		{32767, 32767}, {32768, 32767}, {100000, 32767},
		{-32768, -32768}, {-32769, -32768}, {-100000, -32768},
	}
	for _, c := range cases {
		if got := SatW(c.in); got != c.want {
			t.Errorf("SatW(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestQ15RoundTripExact(t *testing.T) {
	// Every representable Q15 value must round-trip exactly.
	for v := -32768; v <= 32767; v += 97 {
		q := int16(v)
		if got := ToQ15(FromQ15(q)); got != q {
			t.Fatalf("round trip %d -> %v -> %d", q, FromQ15(q), got)
		}
	}
}

func TestToQ15Saturates(t *testing.T) {
	if got := ToQ15(2.0); got != 32767 {
		t.Errorf("ToQ15(2.0) = %d, want 32767", got)
	}
	if got := ToQ15(-2.0); got != -32768 {
		t.Errorf("ToQ15(-2.0) = %d, want -32768", got)
	}
	if got := ToQ15(1.0); got != 32767 {
		t.Errorf("ToQ15(1.0) = %d, want 32767 (1.0 saturates)", got)
	}
	if got := ToQ15(-1.0); got != -32768 {
		t.Errorf("ToQ15(-1.0) = %d, want -32768", got)
	}
}

func TestMulQ15Basics(t *testing.T) {
	half := ToQ15(0.5)
	quarter := MulQ15(half, half)
	if math.Abs(FromQ15(quarter)-0.25) > 1e-3 {
		t.Errorf("0.5*0.5 = %v, want ~0.25", FromQ15(quarter))
	}
	// -1 * -1 saturates to 32767 rather than overflowing.
	if got := MulQ15(-32768, -32768); got != 32767 {
		t.Errorf("MulQ15(-1,-1) = %d, want 32767", got)
	}
}

func TestMulQ15ErrorBound(t *testing.T) {
	// Property: fractional multiply is within one ULP of the real product.
	f := func(a, b int16) bool {
		got := FromQ15(MulQ15(a, b))
		want := FromQ15(a) * FromQ15(b)
		if want >= 1.0 { // saturated region
			want = FromQ15(32767)
		}
		return math.Abs(got-want) <= 1.5/Q15Unit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNarrowQ30(t *testing.T) {
	// A single product narrowed from Q30 equals the rounded fractional product.
	f := func(a, b int16) bool {
		acc := MacQ15(0, a, b)
		return NarrowQ30(acc) == MulQ15(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNarrowQ30Saturates(t *testing.T) {
	var acc int64
	for i := 0; i < 8; i++ {
		acc = MacQ15(acc, 32767, 32767)
	}
	if got := NarrowQ30(acc); got != 32767 {
		t.Errorf("positive overflow narrows to %d, want 32767", got)
	}
	acc = 0
	for i := 0; i < 8; i++ {
		acc = MacQ15(acc, -32768, 32767)
	}
	if got := NarrowQ30(acc); got != -32768 {
		t.Errorf("negative overflow narrows to %d, want -32768", got)
	}
}

func TestVecConversions(t *testing.T) {
	in := []float64{0, 0.25, -0.25, 0.999, -0.999}
	q := VecToQ15(in)
	for i := range in {
		if out := FromQ15(q[i]); math.Abs(in[i]-out) > 1.0/Q15Unit {
			t.Errorf("vec round trip [%d]: %v -> %v", i, in[i], out)
		}
	}
}

func TestSatMonotonic(t *testing.T) {
	// Property: saturation is monotonic.
	f := func(a, b int32) bool {
		if a > b {
			a, b = b, a
		}
		return SatW(a) <= SatW(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
