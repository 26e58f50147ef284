// Package dsp holds the pure-Go reference signal processing the benchmark
// programs are built from and checked against: FIR and IIR filters, the
// FFT and 8-point DCTs, in floating-point and Q15 fixed-point forms.
package dsp

import (
	"math"

	"mmxdsp/internal/fixed"
)

// FIR is a finite-impulse-response filter with float64 state.
// On each Process call it consumes one input sample and produces one output
// sample, exactly like the paper's per-sample fir kernel.
type FIR struct {
	coef []float64
	hist []float64
	pos  int
}

// NewFIR builds a filter from the given coefficients
// (y[n] = sum c[k] * x[n-k]).
func NewFIR(coef []float64) *FIR {
	c := make([]float64, len(coef))
	copy(c, coef)
	return &FIR{coef: c, hist: make([]float64, len(coef))}
}

// Process consumes one sample and returns the filter output.
func (f *FIR) Process(x float64) float64 {
	// Circular history: pos points at the slot for the newest sample.
	f.hist[f.pos] = x
	acc := 0.0
	idx := f.pos
	for _, c := range f.coef {
		acc += c * f.hist[idx]
		idx--
		if idx < 0 {
			idx = len(f.hist) - 1
		}
	}
	f.pos++
	if f.pos == len(f.hist) {
		f.pos = 0
	}
	return acc
}

// FIRQ15 is the 16-bit fixed-point FIR used by the MMX benchmark versions:
// Q15 coefficients and history, a 32-bit accumulator, single rounding at
// the output.
type FIRQ15 struct {
	coef []int16
	hist []int16
	pos  int
}

// NewFIRQ15 builds a fixed-point filter from Q15 coefficients.
func NewFIRQ15(coef []int16) *FIRQ15 {
	c := make([]int16, len(coef))
	copy(c, coef)
	return &FIRQ15{coef: c, hist: make([]int16, len(coef))}
}

// Process consumes one Q15 sample and returns the Q15 output with
// saturation. The accumulation is exact in 64 bits and narrowed once,
// matching the pmaddwd-based library implementation.
func (f *FIRQ15) Process(x int16) int16 {
	f.hist[f.pos] = x
	var acc int64
	idx := f.pos
	for _, c := range f.coef {
		acc = fixed.MacQ15(acc, c, f.hist[idx])
		idx--
		if idx < 0 {
			idx = len(f.hist) - 1
		}
	}
	f.pos++
	if f.pos == len(f.hist) {
		f.pos = 0
	}
	return fixed.NarrowQ30(acc)
}

// LowpassFIR designs an N-tap windowed-sinc low-pass filter with the given
// normalized cutoff (0 < cutoff < 0.5, as a fraction of the sample rate),
// using a Hamming window. This reproduces the paper's "low-pass filter of
// length 35".
func LowpassFIR(taps int, cutoff float64) []float64 {
	c := make([]float64, taps)
	m := float64(taps - 1)
	for i := range c {
		n := float64(i) - m/2
		c[i] = 2 * cutoff * sinc(2*cutoff*n) * hamming(float64(i), m)
	}
	// Normalize to unity DC gain.
	var sum float64
	for _, v := range c {
		sum += v
	}
	for i := range c {
		c[i] /= sum
	}
	return c
}

func sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	px := math.Pi * x
	return math.Sin(px) / px
}

func hamming(i, m float64) float64 {
	return 0.54 - 0.46*math.Cos(2*math.Pi*i/m)
}
