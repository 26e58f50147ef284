package dsp

import (
	"fmt"
	"math"
)

// FFT computes the in-place radix-2 decimation-in-time fast Fourier
// transform of the complex sequence (re, im). Lengths must be equal powers
// of two. The forward transform uses e^{-j2πkn/N}.
func FFT(re, im []float64) error {
	n := len(re)
	if len(im) != n {
		return fmt.Errorf("dsp: FFT length mismatch (%d vs %d)", n, len(im))
	}
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("dsp: FFT length %d is not a power of two", n)
	}
	bitReverse(re, im)
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				ang := -2 * math.Pi * float64(k*step) / float64(n)
				wr, wi := math.Cos(ang), math.Sin(ang)
				i, j := start+k, start+k+half
				tr := wr*re[j] - wi*im[j]
				ti := wr*im[j] + wi*re[j]
				re[j] = re[i] - tr
				im[j] = im[i] - ti
				re[i] += tr
				im[i] += ti
			}
		}
	}
	return nil
}

// IFFT computes the inverse transform (including the 1/N scaling).
func IFFT(re, im []float64) error {
	for i := range im {
		im[i] = -im[i]
	}
	if err := FFT(re, im); err != nil {
		return err
	}
	n := float64(len(re))
	for i := range re {
		re[i] /= n
		im[i] = -im[i] / n
	}
	return nil
}

func bitReverse(re, im []float64) {
	n := len(re)
	j := 0
	for i := 1; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
}

// PowerSpectrum returns |X[k]|^2 for a complex spectrum.
func PowerSpectrum(re, im []float64) []float64 {
	out := make([]float64, len(re))
	for i := range re {
		out[i] = re[i]*re[i] + im[i]*im[i]
	}
	return out
}

// PeakIndex returns the index of the largest value.
func PeakIndex(v []float64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// DFTNaive computes the O(N^2) discrete Fourier transform, used as the
// correctness oracle in tests.
func DFTNaive(re, im []float64) (outRe, outIm []float64) {
	n := len(re)
	outRe = make([]float64, n)
	outIm = make([]float64, n)
	for k := 0; k < n; k++ {
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k*t) / float64(n)
			c, s := math.Cos(ang), math.Sin(ang)
			outRe[k] += re[t]*c - im[t]*s
			outIm[k] += re[t]*s + im[t]*c
		}
	}
	return outRe, outIm
}
