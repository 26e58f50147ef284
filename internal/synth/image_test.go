package synth

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
)

// imageRGBRef is the per-pixel form of ImageRGB: every pixel recomputes its
// gradients and texture and measures its distance to all six discs. ImageRGB
// must produce exactly these bytes; this copy is the reference that holds it
// there and is used by no program.
func imageRGBRef(w, h int, seed uint64) []uint8 {
	r := NewRand(seed)
	type disc struct {
		cx, cy, rad float64
		r, g, b     float64
	}
	discs := make([]disc, 6)
	for i := range discs {
		discs[i] = disc{
			cx: float64(r.Intn(w)), cy: float64(r.Intn(h)),
			rad: 20 + float64(r.Intn(w/4+1)),
			r:   float64(r.Intn(200)), g: float64(r.Intn(200)), b: float64(r.Intn(200)),
		}
	}
	out := make([]uint8, 3*w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			fx, fy := float64(x), float64(y)
			rr := 40 + 120*fy/float64(h)
			gg := 60 + 100*fx/float64(w)
			bb := 150 - 80*fy/float64(h)
			for _, d := range discs {
				dist := math.Hypot(fx-d.cx, fy-d.cy)
				if dist < d.rad {
					t := 1 - dist/d.rad
					rr += t * (d.r - rr) * 0.8
					gg += t * (d.g - gg) * 0.8
					bb += t * (d.b - bb) * 0.8
				}
			}
			tex := 6 * math.Sin(0.31*fx) * math.Cos(0.27*fy)
			i := 3 * (y*w + x)
			out[i] = clamp8(rr + tex)
			out[i+1] = clamp8(gg + tex)
			out[i+2] = clamp8(bb - tex)
		}
	}
	return out
}

// TestImageRGBGolden pins the two images the suite builds: the 640×480
// bitmap of image.c/image.mmx and the 224×160 source of the jpeg programs.
// Their bytes feed the simulated programs and the reference checks, so a
// change here changes every image and jpeg result.
func TestImageRGBGolden(t *testing.T) {
	for _, tc := range []struct {
		w, h int
		seed uint64
		sum  string
	}{
		{640, 480, 0x1A6E, "a22eb36772e4c4995a1c1f1a23ac53119625c20c725deb0fb866dbbaa7a3ace8"},
		{224, 160, 0x7E6, "e58379ca5f3e0d1f794333dca2b7eec85f2c2f301d4410e31f494f2a421d5772"},
	} {
		sum := sha256.Sum256(ImageRGB(tc.w, tc.h, tc.seed))
		if got := hex.EncodeToString(sum[:]); got != tc.sum {
			t.Errorf("ImageRGB(%d, %d, %#x) sha256 = %s, want %s", tc.w, tc.h, tc.seed, got, tc.sum)
		}
	}
}

// TestImageRGBMatchesReference compares ImageRGB with the per-pixel
// reference byte for byte over odd shapes, where discs overhang every edge
// or cover the whole image, and many seeds.
func TestImageRGBMatchesReference(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 12
	}
	for _, sz := range [][2]int{{1, 1}, {17, 9}, {3, 700}, {100, 300}, {224, 160}} {
		for s := 0; s < seeds; s++ {
			seed := uint64(s)*0x9E3779B97F4A7C15 + uint64(sz[0])
			w, h := sz[0], sz[1]
			got, want := ImageRGB(w, h, seed), imageRGBRef(w, h, seed)
			if !bytes.Equal(got, want) {
				i := 0
				for got[i] == want[i] {
					i++
				}
				t.Fatalf("ImageRGB(%d, %d, %#x): byte %d = %d, reference %d", w, h, seed, i, got[i], want[i])
			}
		}
	}
}

var imageSink []uint8

// BenchmarkImageRGB synthesizes the 640×480 bitmap that every build of
// image.c and image.mmx makes.
func BenchmarkImageRGB(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		imageSink = ImageRGB(640, 480, 0x1A6E)
	}
}
