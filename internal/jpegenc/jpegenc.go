// Package jpegenc holds the baseline JPEG tables the jpeg benchmark
// programs and their references share: the ITU-T T.81 Annex K luminance
// quantization table, its IJG quality scaling and the zig-zag order.
package jpegenc

// Quality scales the quantization tables like IJG cjpeg (1..100).
type Quality int

// StdLuminanceQuant is the ITU-T T.81 Annex K luminance table in natural
// (row-major) order.
var StdLuminanceQuant = [64]int{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

// ZigZag maps zig-zag order to natural order: natural = ZigZag[z].
var ZigZag = [64]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// ScaleQuant scales a base table for the given quality, clamping entries to
// [1, 255], following the IJG convention.
func ScaleQuant(base [64]int, q Quality) [64]int {
	if q < 1 {
		q = 1
	}
	if q > 100 {
		q = 100
	}
	var scale int
	if q < 50 {
		scale = 5000 / int(q)
	} else {
		scale = 200 - 2*int(q)
	}
	var out [64]int
	for i, v := range base {
		s := (v*scale + 50) / 100
		if s < 1 {
			s = 1
		}
		if s > 255 {
			s = 255
		}
		out[i] = s
	}
	return out
}
