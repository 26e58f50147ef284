package jpegenc

import "testing"

func TestScaleQuantBounds(t *testing.T) {
	q1 := ScaleQuant(StdLuminanceQuant, 1)
	q100 := ScaleQuant(StdLuminanceQuant, 100)
	for i := range q1 {
		if q1[i] < 1 || q1[i] > 255 {
			t.Fatalf("q1[%d] = %d out of range", i, q1[i])
		}
		if q100[i] != 1 {
			t.Fatalf("q100[%d] = %d, want 1", i, q100[i])
		}
	}
}

func TestZigZagIsPermutation(t *testing.T) {
	var seen [64]bool
	for _, v := range ZigZag {
		if v < 0 || v > 63 || seen[v] {
			t.Fatalf("zigzag not a permutation at %d", v)
		}
		seen[v] = true
	}
	// Spot-check the canonical start of the pattern.
	want := []int{0, 1, 8, 16, 9, 2}
	for i, v := range want {
		if ZigZag[i] != v {
			t.Errorf("ZigZag[%d] = %d, want %d", i, ZigZag[i], v)
		}
	}
}
