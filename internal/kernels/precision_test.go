package kernels

import (
	"math"
	"testing"
)

// The paper quantifies each kernel's fixed-point precision loss; these
// tests pin the same properties on our mirrored pipelines.

func TestFirPrecisionOrder1e4(t *testing.T) {
	// "the FIR filter suffers little loss of precision in the MMX
	// fixed-point version (order 10^-4) because the error loss is not
	// cumulative at any point."
	f, m := firFloatExpected(), firMMXExpected()
	var worst float64
	for i := range f {
		if d := math.Abs(float64(f[i] - m[i])); d > worst {
			worst = d
		}
	}
	if worst > 1e-3 {
		t.Errorf("worst fir.mmx deviation = %g, want order 1e-4 (allowing 1e-3)", worst)
	}
	if worst == 0 {
		t.Error("fixed-point version is bit-identical to float; quantization missing?")
	}
	t.Logf("fir.mmx worst deviation from float: %.2e", worst)
}

func TestFftPrecisionOrder1e2Relative(t *testing.T) {
	// "The limited use of MMX does provide a speedup over the
	// floating-point version with little loss of precision (order 10^-2)
	// using the 16-bit data."
	fr, fi := fftFPExpected() // float32 spectrum of the float input (value units)
	mr, mi := fftMMXExpected()
	// mr holds X/N in Q15 counts (input was quantized by 32768); bring the
	// float spectrum into the same counts: fr * 32768 / N.
	const toCounts = 32768.0 / fftN
	var peak, worst float64
	for k := range fr {
		ref := math.Hypot(float64(fr[k]), float64(fi[k])) * toCounts
		if ref > peak {
			peak = ref
		}
		dr := math.Abs(float64(mr[k]) - float64(fr[k])*toCounts)
		di := math.Abs(float64(mi[k]) - float64(fi[k])*toCounts)
		if d := math.Max(dr, di); d > worst {
			worst = d
		}
	}
	rel := worst / peak
	if rel > 2e-2 {
		t.Errorf("fft.mmx relative deviation = %g, want order 1e-2", rel)
	}
	t.Logf("fft.mmx worst relative deviation: %.2e", rel)
}

func TestIirQuarterScaleTracksFloat(t *testing.T) {
	// The paper's iir.mmx "becomes unstable" at full scale; at the
	// benchmark's quarter-scale drive the fixed-point output must track
	// the float output closely enough to be the same filter.
	f, m := iirFloatExpected(), iirMMXExpected()
	var sumSq, errSq float64
	for i := range f {
		got := float64(m[i]) / 32768
		sumSq += f[i] * f[i]
		errSq += (f[i] - got) * (f[i] - got)
	}
	snr := 10 * math.Log10(sumSq/errSq)
	if snr < 30 {
		t.Errorf("iir.mmx output SNR = %.1f dB vs float, want >= 30", snr)
	}
	t.Logf("iir.mmx output SNR vs float: %.1f dB", snr)
}

func TestMatvecExactness(t *testing.T) {
	// Integer data: the MMX version is exact (both versions validate
	// against the same expected values); the workload must be non-trivial.
	rows, dot := matVecExpected()
	nonzero := 0
	for _, v := range rows {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < mvRows/2 {
		t.Errorf("only %d nonzero row results; workload degenerate", nonzero)
	}
	if dot == 0 {
		t.Error("dot product is zero; workload degenerate")
	}
}
