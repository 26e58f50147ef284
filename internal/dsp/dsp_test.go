package dsp

import (
	"math"
	"testing"
	"testing/quick"

	"mmxdsp/internal/fixed"
)

// prng is a small deterministic generator for test data.
type prng uint64

func (p *prng) next() uint64 {
	*p ^= *p << 13
	*p ^= *p >> 7
	*p ^= *p << 17
	return uint64(*p)
}

func (p *prng) float() float64 { // in [-1, 1)
	return float64(int64(p.next()>>11))/(1<<52) - 1
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	p := prng(42)
	for _, n := range []int{2, 4, 8, 16, 64, 256} {
		re := make([]float64, n)
		im := make([]float64, n)
		for i := range re {
			re[i] = p.float()
			im[i] = p.float()
		}
		wantRe, wantIm := DFTNaive(re, im)
		if err := FFT(re, im); err != nil {
			t.Fatal(err)
		}
		for i := range re {
			if math.Abs(re[i]-wantRe[i]) > 1e-9*float64(n) ||
				math.Abs(im[i]-wantIm[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: (%g,%g) want (%g,%g)",
					n, i, re[i], im[i], wantRe[i], wantIm[i])
			}
		}
	}
}

func TestFFTInverseRoundTrip(t *testing.T) {
	p := prng(7)
	n := 128
	re := make([]float64, n)
	im := make([]float64, n)
	orig := make([]float64, n)
	for i := range re {
		re[i] = p.float()
		orig[i] = re[i]
	}
	if err := FFT(re, im); err != nil {
		t.Fatal(err)
	}
	if err := IFFT(re, im); err != nil {
		t.Fatal(err)
	}
	for i := range re {
		if math.Abs(re[i]-orig[i]) > 1e-10 || math.Abs(im[i]) > 1e-10 {
			t.Fatalf("round trip [%d]: (%g, %g) want (%g, 0)", i, re[i], im[i], orig[i])
		}
	}
}

func TestFFTParseval(t *testing.T) {
	p := prng(99)
	n := 64
	re := make([]float64, n)
	im := make([]float64, n)
	var timeEnergy float64
	for i := range re {
		re[i] = p.float()
		im[i] = p.float()
		timeEnergy += re[i]*re[i] + im[i]*im[i]
	}
	if err := FFT(re, im); err != nil {
		t.Fatal(err)
	}
	var freqEnergy float64
	for i := range re {
		freqEnergy += re[i]*re[i] + im[i]*im[i]
	}
	if math.Abs(freqEnergy/float64(n)-timeEnergy) > 1e-9 {
		t.Errorf("Parseval violated: time %g, freq/N %g", timeEnergy, freqEnergy/float64(n))
	}
}

func TestFFTRejectsBadLengths(t *testing.T) {
	if err := FFT(make([]float64, 3), make([]float64, 3)); err == nil {
		t.Error("length 3 must be rejected")
	}
	if err := FFT(make([]float64, 4), make([]float64, 2)); err == nil {
		t.Error("mismatched lengths must be rejected")
	}
	if err := FFT(nil, nil); err == nil {
		t.Error("empty input must be rejected")
	}
}

func TestFIRImpulseResponseIsCoefficients(t *testing.T) {
	coef := []float64{0.5, -0.25, 0.125, 1.0}
	f := NewFIR(coef)
	for i := 0; i < len(coef); i++ {
		var x float64
		if i == 0 {
			x = 1
		}
		if got := f.Process(x); math.Abs(got-coef[i]) > 1e-15 {
			t.Errorf("impulse response [%d] = %g, want %g", i, got, coef[i])
		}
	}
	if got := f.Process(0); got != 0 {
		t.Errorf("tail = %g, want 0", got)
	}
}

func TestFIRLinearity(t *testing.T) {
	coef := LowpassFIR(35, 0.2)
	f := func(aRaw, bRaw int8) bool {
		a, b := float64(aRaw)/128, float64(bRaw)/128
		p := prng(5)
		x1 := make([]float64, 50)
		x2 := make([]float64, 50)
		mix := make([]float64, 50)
		for i := range x1 {
			x1[i] = p.float()
			x2[i] = p.float()
			mix[i] = a*x1[i] + b*x2[i]
		}
		f1 := NewFIR(coef)
		f2 := NewFIR(coef)
		fm := NewFIR(coef)
		for i := range mix {
			y1, y2, ym := f1.Process(x1[i]), f2.Process(x2[i]), fm.Process(mix[i])
			if math.Abs(ym-(a*y1+b*y2)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestLowpassFIRFrequencyResponse(t *testing.T) {
	coef := LowpassFIR(35, 0.125)
	gain := func(freq float64) float64 {
		f := NewFIR(coef)
		n := 512
		var maxOut float64
		for i := 0; i < n; i++ {
			y := f.Process(math.Sin(2 * math.Pi * freq * float64(i)))
			if i > 100 && math.Abs(y) > maxOut { // skip transient
				maxOut = math.Abs(y)
			}
		}
		return maxOut
	}
	if g := gain(0.02); g < 0.9 {
		t.Errorf("passband gain %g, want > 0.9", g)
	}
	if g := gain(0.45); g > 0.05 {
		t.Errorf("stopband gain %g, want < 0.05", g)
	}
}

func TestFIRQ15TracksFloat(t *testing.T) {
	coefF := LowpassFIR(35, 0.125)
	coefQ := fixed.VecToQ15(coefF)
	ff := NewFIR(coefF)
	fq := NewFIRQ15(coefQ)
	p := prng(77)
	var worst float64
	for i := 0; i < 500; i++ {
		x := 0.5 * p.float()
		yf := ff.Process(x)
		yq := fq.Process(fixed.ToQ15(x))
		d := math.Abs(fixed.FromQ15(yq) - yf)
		worst = math.Max(worst, d)
	}
	// Paper: "the FIR filter suffers little loss of precision ... (order
	// 10^-4) because the error loss is not cumulative".
	if worst > 1e-3 {
		t.Errorf("worst FIR Q15 error %g, want < 1e-3", worst)
	}
}

func TestButterworthBandpassShape(t *testing.T) {
	b, a := ButterworthBandpass(4, 0.1, 0.2)
	if len(b) != 9 || len(a) != 9 {
		t.Fatalf("coefficient counts = %d, %d; want 9, 9 (17 total incl. a0)", len(b), len(a))
	}
	if math.Abs(a[0]-1) > 1e-12 {
		t.Fatalf("a[0] = %g, want 1", a[0])
	}
	gainAt := func(freq float64) float64 {
		h := polyEval(b, 2*math.Pi*freq) / polyEval(a, 2*math.Pi*freq)
		return cAbs(h)
	}
	if g := gainAt(0.141); g < 0.9 || g > 1.1 { // geometric center ~sqrt(.1*.2)
		t.Errorf("center gain = %g, want ~1", g)
	}
	if g := gainAt(0.02); g > 0.05 {
		t.Errorf("low stopband gain = %g, want < 0.05", g)
	}
	if g := gainAt(0.4); g > 0.05 {
		t.Errorf("high stopband gain = %g, want < 0.05", g)
	}
}

func TestButterworthStability(t *testing.T) {
	b, a := ButterworthBandpass(4, 0.1, 0.2)
	f := NewIIR(b, a)
	// Impulse response must decay.
	y := f.Process(1)
	var early, late float64
	for i := 0; i < 2000; i++ {
		y = f.Process(0)
		if i < 100 {
			early += y * y
		}
		if i >= 1900 {
			late += y * y
		}
	}
	if late > 1e-12 || early == 0 {
		t.Errorf("impulse response not decaying: early %g, late %g", early, late)
	}
}

func TestIIRBlockMatchesPerSample(t *testing.T) {
	b, a := ButterworthBandpass(4, 0.1, 0.2)
	f1 := NewIIR(b, a)
	f2 := NewIIR(b, a)
	p := prng(3)
	x := make([]float64, 64)
	for i := range x {
		x[i] = p.float()
	}
	blk := f1.ProcessBlock(x)
	for i, v := range x {
		if got := f2.Process(v); math.Abs(got-blk[i]) > 1e-12 {
			t.Fatalf("block vs sample mismatch at %d", i)
		}
	}
}

func TestIIRQ15TracksFloatOverShortBlocks(t *testing.T) {
	b, a := ButterworthBandpass(4, 0.1, 0.2)
	ff := NewIIR(b, a)
	fq := NewIIRQ15(b, a)
	var worst float64
	for i := 0; i < 64; i++ {
		x := 0.25 * math.Sin(2*math.Pi*0.14*float64(i))
		yf := ff.Process(x)
		yq := fq.Process(fixed.ToQ15(x))
		worst = math.Max(worst, math.Abs(fixed.FromQ15(yq)-yf))
	}
	// The paper notes the 16-bit IIR eventually goes unstable; over short
	// horizons it must still track.
	if worst > 0.05 {
		t.Errorf("worst IIR Q15 error %g over 64 samples, want < 0.05", worst)
	}
}

func TestByteOps(t *testing.T) {
	in := []uint8{0, 100, 200, 255}
	out := make([]uint8, 4)
	ScaleBytes(out, in, 3, 4)
	if out[0] != 0 || out[1] != 75 || out[2] != 150 || out[3] != 191 {
		t.Errorf("ScaleBytes = %v", out)
	}
}

func TestDCTRoundTrip(t *testing.T) {
	p := prng(11)
	in := make([]float64, 64)
	for i := range in {
		in[i] = 255 * p.float()
	}
	freq := make([]float64, 64)
	back := make([]float64, 64)
	DCT2D8(freq, in)
	IDCT2D8(back, freq)
	for i := range in {
		if math.Abs(back[i]-in[i]) > 1e-9 {
			t.Fatalf("2-D DCT round trip [%d]: %g want %g", i, back[i], in[i])
		}
	}
}

func TestDCTConstantBlockIsDCOnly(t *testing.T) {
	in := make([]float64, 64)
	for i := range in {
		in[i] = 100
	}
	out := make([]float64, 64)
	DCT2D8(out, in)
	if math.Abs(out[0]-800) > 1e-9 { // 100 * 8 (orthonormal 2-D scale)
		t.Errorf("DC = %g, want 800", out[0])
	}
	for i := 1; i < 64; i++ {
		if math.Abs(out[i]) > 1e-9 {
			t.Errorf("AC[%d] = %g, want 0", i, out[i])
		}
	}
}

func TestDCTEnergyPreservation(t *testing.T) {
	p := prng(21)
	in := make([]float64, 64)
	var e1 float64
	for i := range in {
		in[i] = p.float() * 100
		e1 += in[i] * in[i]
	}
	out := make([]float64, 64)
	DCT2D8(out, in)
	var e2 float64
	for _, v := range out {
		e2 += v * v
	}
	if math.Abs(e1-e2) > 1e-6*e1 {
		t.Errorf("energy: time %g freq %g", e1, e2)
	}
}

func TestDCT1DQ15TracksFloat(t *testing.T) {
	p := prng(31)
	for trial := 0; trial < 50; trial++ {
		inF := make([]float64, 8)
		inQ := make([]int16, 8)
		for i := range inF {
			v := math.Round(255*p.float()) - 0 // centered pixel-like data
			inF[i] = v
			inQ[i] = int16(v)
		}
		outF := make([]float64, 8)
		outQ := make([]int16, 8)
		DCT1D8(outF, inF)
		DCT1D8Q15(outQ, inQ)
		for k := range outF {
			if d := math.Abs(float64(outQ[k]) - outF[k]); d > 1.0 {
				t.Fatalf("trial %d bin %d: fixed %d float %g (|d|=%g)",
					trial, k, outQ[k], outF[k], d)
			}
		}
	}
}

func TestPeakIndexAndPowerSpectrum(t *testing.T) {
	re := []float64{0, 3, 0, -4}
	im := []float64{1, 0, 0, 0}
	ps := PowerSpectrum(re, im)
	want := []float64{1, 9, 0, 16}
	for i := range want {
		if ps[i] != want[i] {
			t.Errorf("ps[%d] = %g, want %g", i, ps[i], want[i])
		}
	}
	if PeakIndex(ps) != 3 {
		t.Errorf("peak = %d, want 3", PeakIndex(ps))
	}
}
