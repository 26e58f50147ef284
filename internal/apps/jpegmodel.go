package apps

import (
	"math"
	"sync"

	"mmxdsp/internal/fixed"
	"mmxdsp/internal/jpegenc"
	"mmxdsp/internal/mmxlib"
)

// This file holds the Go mirror models for the jpeg benchmark versions.
// Both versions run the same pipeline — color conversion, 8x8 2-D DCT,
// quantization, zig-zag run-length symbol generation — but with different
// arithmetic:
//
//   - jpeg.c mirrors IJG-style optimized scalar code: table-based color
//     conversion (Q16 lookup tables, adds only), the AAN fast DCT
//     (5 multiplies per 8-point transform) on 32-bit data, reciprocal
//     quantization with imul.
//   - jpeg.mmx mirrors the MMX library path: pmaddwd color conversion,
//     sixteen 1-D Q13 DCT library calls per block with staging copies
//     (there is no 2-D DCT in the library), pmulhw/pmullw reciprocal
//     quantization.
//
// Entropy coding is excluded from BOTH versions identically: the programs
// emit the zig-zag (run, size, value) symbol stream that feeds a Huffman
// coder. The paper's analysis concerns the three dominant kernels (color
// conversion, DCT, quantization: 74% of cycles), which are fully present.

const (
	jpgW       = 224
	jpgH       = 160
	jpgQuality = 50
	jpgBlocksX = jpgW / 8
	jpgBlocksY = jpgH / 8
	// Stream buffer: 3 bytes per emitted symbol, generously sized.
	jpgStreamCap = jpgBlocksX * jpgBlocksY * 3 * 220
)

// --- jpeg.c color conversion: Q16 tables --------------------------------

// ccTables builds the nine Q16 lookup tables (Y/Cb/Cr x R/G/B). The
// rounding half is folded into the B table of each channel.
func ccTables() (y, cb, cr [3][]int32) {
	build := func(cR, cG, cB float64) [3][]int32 {
		var t [3][]int32
		for ch := 0; ch < 3; ch++ {
			t[ch] = make([]int32, 256)
		}
		for v := 0; v < 256; v++ {
			t[0][v] = int32(math.Round(cR * 65536 * float64(v)))
			t[1][v] = int32(math.Round(cG * 65536 * float64(v)))
			t[2][v] = int32(math.Round(cB*65536*float64(v))) + 32768
		}
		return t
	}
	ty := build(0.299, 0.587, 0.114)
	tcb := build(-0.168736, -0.331264, 0.5)
	tcr := build(0.5, -0.418688, -0.081312)
	return ty, tcb, tcr
}

// ccCModel converts one pixel the way the table-based scalar code does:
// level-shifted Y and centered chroma, all int32.
func ccCModel(ty, tcb, tcr [3][]int32, r, g, b uint8) (yv, cbv, crv int32) {
	yv = (ty[0][r]+ty[1][g]+ty[2][b])>>16 - 128
	cbv = (tcb[0][r] + tcb[1][g] + tcb[2][b]) >> 16
	crv = (tcr[0][r] + tcr[1][g] + tcr[2][b]) >> 16
	return
}

// ccMMXModel mirrors nsColorConv's pmaddwd arithmetic.
func ccMMXModel(r, g, b uint8) (yv, cbv, crv int32) {
	co := mmxlib.ColorConvCoefs()
	rr, gg, bb := int32(r), int32(g), int32(b)
	yv = (rr*int32(co[0])+gg*int32(co[1])+bb*int32(co[2]))>>15 - 128
	cbv = (rr*int32(co[4]) + gg*int32(co[5]) + bb*int32(co[6])) >> 15
	crv = (rr*int32(co[8]) + gg*int32(co[9]) + bb*int32(co[10])) >> 15
	return
}

// --- AAN fast DCT (jfdctfst-style, Q8 constants) -------------------------

// AAN Q8 multiplier constants.
const (
	aan0_382 = 98  // 0.382683433
	aan0_541 = 139 // 0.541196100
	aan0_707 = 181 // 0.707106781
	aan1_306 = 334 // 1.306562965
)

func aanMul(a, c int32) int32 { return (a * c) >> 8 }

// aan8 transforms 8 int32 values in place (one 1-D pass), mirroring the
// assembly instruction for instruction.
func aan8(x *[8]int32) {
	tmp0, tmp7 := x[0]+x[7], x[0]-x[7]
	tmp1, tmp6 := x[1]+x[6], x[1]-x[6]
	tmp2, tmp5 := x[2]+x[5], x[2]-x[5]
	tmp3, tmp4 := x[3]+x[4], x[3]-x[4]

	tmp10, tmp13 := tmp0+tmp3, tmp0-tmp3
	tmp11, tmp12 := tmp1+tmp2, tmp1-tmp2

	x[0] = tmp10 + tmp11
	x[4] = tmp10 - tmp11
	z1 := aanMul(tmp12+tmp13, aan0_707)
	x[2] = tmp13 + z1
	x[6] = tmp13 - z1

	t10 := tmp4 + tmp5
	t11 := tmp5 + tmp6
	t12 := tmp6 + tmp7
	z5 := aanMul(t10-t12, aan0_382)
	z2 := aanMul(t10, aan0_541) + z5
	z4 := aanMul(t12, aan1_306) + z5
	z3 := aanMul(t11, aan0_707)
	z11 := tmp7 + z3
	z13 := tmp7 - z3
	x[5] = z13 + z2
	x[3] = z13 - z2
	x[1] = z11 + z4
	x[7] = z11 - z4
}

// aan2D runs rows then columns in place on a 64-entry block.
func aan2D(blk *[64]int32) {
	var v [8]int32
	for r := 0; r < 8; r++ {
		copy(v[:], blk[r*8:r*8+8])
		aan8(&v)
		copy(blk[r*8:r*8+8], v[:])
	}
	for c := 0; c < 8; c++ {
		for n := 0; n < 8; n++ {
			v[n] = blk[n*8+c]
		}
		aan8(&v)
		for n := 0; n < 8; n++ {
			blk[n*8+c] = v[n]
		}
	}
}

// aanScale is the IJG AAN scale-factor table.
var aanScale = [8]float64{1.0, 1.387039845, 1.306562965, 1.175875602,
	1.0, 0.785694958, 0.541196100, 0.275899379}

// jpegRecipsC builds the Q15 reciprocal quantizers and half-step rounding
// biases for the AAN-scaled coefficients:
// divisor[k] = q[k] * sf[row] * sf[col] * 8.
func jpegRecipsC() (recips, biases [64]int16) {
	q := jpegenc.ScaleQuant(jpegenc.StdLuminanceQuant, jpgQuality)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			k := r*8 + c
			d := float64(q[k]) * aanScale[r] * aanScale[c] * 8
			rec := math.Round(32768 / d)
			if rec < 1 {
				rec = 1
			}
			if rec > 32767 {
				rec = 32767
			}
			recips[k] = int16(rec)
			biases[k] = int16(math.Round(d / 2))
		}
	}
	return recips, biases
}

// jpegRecipsMMX builds the Q15 reciprocals and biases for the orthonormal
// Q13 DCT.
func jpegRecipsMMX() (recips, biases [64]int16) {
	q := jpegenc.ScaleQuant(jpegenc.StdLuminanceQuant, jpgQuality)
	return mmxlib.QuantRecips(&q), mmxlib.QuantBiases(&q)
}

// --- shared pipeline models ----------------------------------------------

// jpegModel runs the full mirrored pipeline and returns the symbol stream.
// dct transforms one 64-entry block in place; cc converts one pixel.
func jpegModel(rgb []uint8,
	cc func(r, g, b uint8) (int32, int32, int32),
	dct func(*[64]int32),
	recips, biases [64]int16) []byte {

	// Planes.
	n := jpgW * jpgH
	planes := [3][]int32{make([]int32, n), make([]int32, n), make([]int32, n)}
	for i := 0; i < n; i++ {
		y, cb, cr := cc(rgb[3*i], rgb[3*i+1], rgb[3*i+2])
		planes[0][i] = y
		planes[1][i] = cb
		planes[2][i] = cr
	}

	stream := make([]byte, 0, 1<<16)
	var dcPred [3]int32
	var blk [64]int32
	for by := 0; by < jpgBlocksY; by++ {
		for bx := 0; bx < jpgBlocksX; bx++ {
			for comp := 0; comp < 3; comp++ {
				p := planes[comp]
				for r := 0; r < 8; r++ {
					for c := 0; c < 8; c++ {
						blk[r*8+c] = p[(by*8+r)*jpgW+bx*8+c]
					}
				}
				dct(&blk)
				// Quantize: sign-aware half-step bias, then the truncating
				// Q15 reciprocal multiply (mmxlib.QuantRecipModel).
				var q [64]int16
				for k := 0; k < 64; k++ {
					q[k] = mmxlib.QuantRecipModel(blk[k], recips[k], biases[k])
				}
				stream = rleModel(stream, &q, &dcPred[comp])
			}
		}
	}
	return stream
}

// rleModel appends one block's (sym, value) pairs, mirroring the shared
// scalar RLE code in the programs: DC size+diff, AC run/size pairs, ZRL
// and EOB markers. Each symbol is 3 bytes: sym, lo(value), hi(value).
func rleModel(stream []byte, q *[64]int16, dcPred *int32) []byte {
	put := func(sym byte, v int16) []byte {
		return append(stream, sym, byte(uint16(v)), byte(uint16(v)>>8))
	}
	diff := int32(q[0]) - *dcPred
	*dcPred = int32(q[0])
	stream = put(byte(rleBitSize(diff)), int16(diff))
	run := 0
	for z := 1; z < 64; z++ {
		v := q[jpegenc.ZigZag[z]]
		if v == 0 {
			run++
			continue
		}
		for run >= 16 {
			stream = put(0xF0, 0)
			run -= 16
		}
		stream = put(byte(run<<4|rleBitSize(int32(v))), v)
		run = 0
	}
	if run > 0 {
		stream = put(0x00, 0)
	}
	return stream
}

// rleBitSize is the JPEG magnitude category, mirrored by a shift loop in
// the programs.
func rleBitSize(v int32) int {
	if v < 0 {
		v = -v
	}
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}

// dctMMXModel is the library-path 2-D DCT: two passes of the Q13 1-D DCT
// with int16 narrowing between passes (dsp.DCT1D8Q15 semantics via the
// staging copies).
func dctMMXModel(blk *[64]int32) {
	var in, out [8]int16
	// Row pass.
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			in[c] = int16(blk[r*8+c]) // staging pack (values fit int16)
		}
		dct1dQ13(&out, &in)
		for c := 0; c < 8; c++ {
			blk[r*8+c] = int32(out[c])
		}
	}
	// Column pass.
	for c := 0; c < 8; c++ {
		for n := 0; n < 8; n++ {
			in[n] = int16(blk[n*8+c])
		}
		dct1dQ13(&out, &in)
		for n := 0; n < 8; n++ {
			blk[n*8+c] = int32(out[n])
		}
	}
}

// dctBasisQuads is nsDct8's Q13 basis, built once per process; dct1dQ13
// only reads it.
var dctBasisQuads = sync.OnceValue(mmxlib.DCTBasisQuads)

// dct1dQ13 mirrors mmxlib's nsDct8 (== dsp.DCT1D8Q15).
func dct1dQ13(out *[8]int16, in *[8]int16) {
	basis := dctBasisQuads()
	for k := 0; k < 8; k++ {
		var acc int64
		for n := 0; n < 4; n++ {
			acc += int64(in[n]) * int64(basis[8*k+n])
			acc += int64(in[n+4]) * int64(basis[8*k+4+n])
		}
		acc += 1 << 12
		acc >>= 13
		out[k] = fixed.SatW(satI64(acc))
	}
}

func satI64(v int64) int32 {
	if v > math.MaxInt32 {
		return math.MaxInt32
	}
	if v < math.MinInt32 {
		return math.MinInt32
	}
	return int32(v)
}
