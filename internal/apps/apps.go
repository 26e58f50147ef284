// Package apps builds the paper's four application benchmarks — jpeg,
// image, g722 and radar — in their C-only and MMX-library versions, with
// Table 1's workloads: JPEG compression of a ~118 kB bitmap, dimming and
// color-switching a 640x480 RGB image, G.722 encoding (and decoding) of a
// 6 kB speech file, and Doppler processing of 12-gate radar echoes with a
// 16-point FFT.
//
// Each program brackets its computation core with profon/profoff and is
// validated against a Go model that mirrors its arithmetic exactly.
package apps

import "mmxdsp/internal/core"

// Benchmarks returns all application benchmark versions.
func Benchmarks() []core.Benchmark {
	out := []core.Benchmark{}
	out = append(out, Image()...)
	out = append(out, Radar()...)
	out = append(out, JPEG()...)
	out = append(out, G722()...)
	return out
}

// Memos returns, by name, the functions that hand out the programs'
// process-wide inputs and reference outputs. Every build and check shares
// them, so nothing may write what they return.
func Memos() map[string]any {
	return map[string]any{
		"image.input": imageInput, "image.expected": imageExpected,
		"jpeg.input": jpegInput, "jpeg.c.expected": jpegCExpected,
		"jpeg.mmx.expected": jpegMMXExpected, "jpeg.mmx.basis": dctBasisQuads,
		"g722.input": g722Input, "g722.expected": g722Expected,
		"radar.input": radarData, "radar.c.expected": radarCExpected, "radar.mmx.expected": radarMMXExpected,
	}
}
