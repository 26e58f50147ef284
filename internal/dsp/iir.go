package dsp

import "math"

// IIR is a direct-form-I infinite-impulse-response filter:
//
//	y[n] = sum_{q} b[q] x[n-q] - sum_{p} a[p+1] y[n-1-p]
//
// with a normalized to a[0] = 1. The paper's iir kernel is an eighth-order
// Butterworth bandpass in this form: 9 numerator plus 8 denominator
// coefficients, "filter length of eight with 17 coefficients".
type IIR struct {
	b, a   []float64 // a excludes the leading 1
	xh, yh []float64 // delay lines, newest first
}

// NewIIR builds a filter; a[0] must be 1 (the constructor normalizes).
func NewIIR(b, a []float64) *IIR {
	if len(a) == 0 || a[0] == 0 {
		panic("dsp: IIR needs a nonzero a[0]")
	}
	nb := make([]float64, len(b))
	na := make([]float64, len(a)-1)
	for i := range nb {
		nb[i] = b[i] / a[0]
	}
	for i := range na {
		na[i] = a[i+1] / a[0]
	}
	return &IIR{b: nb, a: na, xh: make([]float64, len(nb)), yh: make([]float64, len(na))}
}

// Process consumes one sample and returns the output.
func (f *IIR) Process(x float64) float64 {
	// Shift x history (newest at index 0).
	copy(f.xh[1:], f.xh)
	f.xh[0] = x
	acc := 0.0
	for i, c := range f.b {
		acc += c * f.xh[i]
	}
	for i, c := range f.a {
		acc -= c * f.yh[i]
	}
	copy(f.yh[1:], f.yh)
	if len(f.yh) > 0 {
		f.yh[0] = acc
	}
	return acc
}

// ProcessBlock filters a block of samples, the granularity the paper's iir
// benchmark uses (8 samples per call).
func (f *IIR) ProcessBlock(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = f.Process(v)
	}
	return out
}

// IIRQ15 is the 16-bit fixed-point direct-form-I IIR used by the MMX
// version. Coefficients are block-scaled: the constructor picks the largest
// fraction-bit count that fits every coefficient in an int16 (an 8th-order
// Butterworth bandpass denominator reaches magnitude ~11, forcing Q11 —
// this is the a-priori "scale factor" the paper complains the Intel
// library requires). The accumulator is 64-bit, narrowed once per sample
// with saturation. As the paper observes, the feedback path compounds
// quantization error and can become unstable — the benchmark validation
// checks agreement only over the paper's 8-sample block length.
type IIRQ15 struct {
	b, a     []int16
	fracBits uint // coefficient fraction bits (Qf)
	xh, yh   []int16
}

// NewIIRQ15 quantizes a float design (a[0] must be 1 after normalization).
func NewIIRQ15(b, a []float64) *IIRQ15 {
	f := NewIIR(b, a)
	maxMag := 1.0
	for _, c := range f.b {
		maxMag = math.Max(maxMag, math.Abs(c))
	}
	for _, c := range f.a {
		maxMag = math.Max(maxMag, math.Abs(c))
	}
	frac := uint(15)
	for maxMag*float64(int64(1)<<frac) > 32767 {
		frac--
	}
	quant := func(v float64) int16 {
		s := v * float64(int64(1)<<frac)
		if s >= 0 {
			s += 0.5
		} else {
			s -= 0.5
		}
		return satI64ToI16(int64(s))
	}
	qb := make([]int16, len(f.b))
	qa := make([]int16, len(f.a))
	for i, c := range f.b {
		qb[i] = quant(c)
	}
	for i, c := range f.a {
		qa[i] = quant(c)
	}
	return &IIRQ15{b: qb, a: qa, fracBits: frac,
		xh: make([]int16, len(qb)), yh: make([]int16, len(qa))}
}

// Coefs returns the quantized coefficient slices (numerator, denominator
// without the leading 1). The VM benchmark uses these to build identical
// data tables.
func (f *IIRQ15) Coefs() (b, a []int16) { return f.b, f.a }

// FracBits returns the coefficient fraction-bit count chosen by the
// constructor.
func (f *IIRQ15) FracBits() uint { return f.fracBits }

// Process consumes one Q15 sample and returns the Q15 output.
func (f *IIRQ15) Process(x int16) int16 {
	copy(f.xh[1:], f.xh)
	f.xh[0] = x
	var acc int64
	for i, c := range f.b {
		acc += int64(c) * int64(f.xh[i])
	}
	for i, c := range f.a {
		acc -= int64(c) * int64(f.yh[i])
	}
	// Narrow from Q(15+fracBits) back to Q15 with rounding.
	acc += int64(1) << (f.fracBits - 1)
	acc >>= f.fracBits
	y := satI64ToI16(acc)
	copy(f.yh[1:], f.yh)
	if len(f.yh) > 0 {
		f.yh[0] = y
	}
	return y
}

// ProcessBlock filters a block of Q15 samples.
func (f *IIRQ15) ProcessBlock(x []int16) []int16 {
	out := make([]int16, len(x))
	for i, v := range x {
		out[i] = f.Process(v)
	}
	return out
}

func satI64ToI16(v int64) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return int16(v)
}

// ButterworthBandpass designs an order-2n Butterworth bandpass filter with
// normalized edge frequencies lo and hi (fractions of the sample rate,
// 0 < lo < hi < 0.5) via the analog prototype, the lowpass-to-bandpass
// transform, and the bilinear transform. It returns direct-form b (length
// 2n+1) and a (length 2n+1, a[0]=1) coefficient slices; for n=4 this is the
// paper's "Butterworth, direct form, eighth-order bandpass filter ...
// 17 coefficients".
func ButterworthBandpass(n int, lo, hi float64) (b, a []float64) {
	// Prewarp edges for the bilinear transform (T = 1).
	wl := 2 * math.Tan(math.Pi*lo)
	wh := 2 * math.Tan(math.Pi*hi)
	bw := wh - wl
	w0 := math.Sqrt(wl * wh)

	// Analog Butterworth prototype poles (left half-plane, order n).
	type cplx = complex128
	var protoPoles []cplx
	for k := 0; k < n; k++ {
		theta := math.Pi * (2*float64(k) + 1) / (2 * float64(n))
		protoPoles = append(protoPoles, cplx(complex(-math.Sin(theta), math.Cos(theta))))
	}

	// Lowpass -> bandpass: each prototype pole p maps to the pair
	// (p*bw ± sqrt((p*bw)^2 - 4 w0^2)) / 2; zeros: n at 0, n at infinity.
	var poles []cplx
	for _, p := range protoPoles {
		pb := p * complex(bw, 0)
		d := cSqrt(pb*pb - complex(4*w0*w0, 0))
		poles = append(poles, (pb+d)/2, (pb-d)/2)
	}
	// Analog gain: bandpass numerator is (bw*s)^n.
	// Bilinear transform s = 2 (z-1)/(z+1): pole p -> (2+p)/(2-p);
	// zero at 0 -> z=1; zeros at infinity -> z=-1.
	var zPoles, zZeros []cplx
	for _, p := range poles {
		zPoles = append(zPoles, (complex(2, 0)+p)/(complex(2, 0)-p))
	}
	for i := 0; i < n; i++ {
		zZeros = append(zZeros, cplx(complex(1, 0)), cplx(complex(-1, 0)))
	}
	// Gain: k = bw^n * prod(1/(2 - p)) ... compute overall constant from
	// evaluating H at the center frequency and normalizing |H| to 1.
	b = realPoly(zZeros)
	a = realPoly(zPoles)
	// Normalize so that |H(e^{jw0d})| = 1 at the digital center frequency.
	w0d := 2 * math.Atan(w0/2)
	h := polyEval(b, w0d) / polyEval(a, w0d)
	g := 1 / cAbs(h)
	for i := range b {
		b[i] *= g
	}
	return b, a
}

// realPoly expands prod (z - r_i) into real coefficients
// [1, c1, c2, ...] in descending powers of z.
func realPoly(roots []complex128) []float64 {
	coef := []complex128{1}
	for _, r := range roots {
		next := make([]complex128, len(coef)+1)
		for i, c := range coef {
			next[i] += c
			next[i+1] -= c * r
		}
		coef = next
	}
	out := make([]float64, len(coef))
	for i, c := range coef {
		out[i] = real(c)
	}
	return out
}

// polyEval evaluates a real polynomial (descending powers) at z = e^{jw}.
func polyEval(c []float64, w float64) complex128 {
	z := complex(math.Cos(w), math.Sin(w))
	acc := complex(0, 0)
	for _, v := range c {
		acc = acc*z + complex(v, 0)
	}
	return acc
}

func cSqrt(z complex128) complex128 {
	r := math.Hypot(real(z), imag(z))
	if r == 0 {
		return 0
	}
	re := math.Sqrt((r + real(z)) / 2)
	im := math.Sqrt((r - real(z)) / 2)
	if imag(z) < 0 {
		im = -im
	}
	return complex(re, im)
}

func cAbs(z complex128) float64 { return math.Hypot(real(z), imag(z)) }
