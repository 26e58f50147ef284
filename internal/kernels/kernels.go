// Package kernels builds the paper's four DSP kernel benchmarks — fft,
// fir, iir and matvec — in their C-only, FP-library and MMX-library
// versions, with the exact workloads of Table 1: a 4096-point in-place
// FFT, a 35-tap low-pass FIR fed one sample at a time, an eighth-order
// Butterworth bandpass IIR processing blocks of eight samples, and a
// 512x512 matrix-vector multiply plus a length-512 dot product. A fifth
// kernel, sad, extends the suite with the motion-estimation workload MMX's
// saturating byte arithmetic targets: full-search 16×16 block matching by
// sum of absolute differences.
//
// Every program brackets its computation core with profon/profoff and is
// validated against the pure-Go reference implementations in internal/dsp.
package kernels

import (
	"mmxdsp/internal/core"
)

// Benchmarks returns all kernel benchmark versions.
func Benchmarks() []core.Benchmark {
	out := []core.Benchmark{}
	out = append(out, MatVec()...)
	out = append(out, FIR()...)
	out = append(out, IIR()...)
	out = append(out, FFT()...)
	out = append(out, SAD()...)
	return out
}

// Memos returns, by name, the functions that hand out the programs'
// process-wide inputs and reference outputs. Every build and check shares
// them, so nothing may write what they return.
func Memos() map[string]any {
	return map[string]any{
		"fir.input": firData, "fir.float.expected": firFloatExpected, "fir.mmx.expected": firMMXExpected,
		"iir.input": iirData, "iir.float.expected": iirFloatExpected, "iir.mmx.expected": iirMMXExpected,
		"fft.input": fftData, "fft.c.expected": fftCExpected, "fft.fp.expected": fftFPExpected, "fft.mmx.expected": fftMMXExpected,
		"matvec.input": matVecData, "matvec.expected": matVecExpected,
		"sad.input": sadData, "sad.expected": sadExpected,
	}
}
