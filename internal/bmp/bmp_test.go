package bmp

import (
	"testing"

	"mmxdsp/internal/synth"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, dim := range [][2]int{{4, 4}, {5, 3}, {7, 1}, {33, 17}} {
		w, h := dim[0], dim[1]
		im, err := FromRGB(w, h, synth.ImageRGB(w, h, 3))
		if err != nil {
			t.Fatal(err)
		}
		data := Encode(im)
		back, err := Decode(data)
		if err != nil {
			t.Fatalf("%dx%d: %v", w, h, err)
		}
		if back.W != w || back.H != h {
			t.Fatalf("size %dx%d, want %dx%d", back.W, back.H, w, h)
		}
		for i := range im.Pix {
			if im.Pix[i] != back.Pix[i] {
				t.Fatalf("%dx%d: pixel byte %d differs", w, h, i)
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte("not a bmp")); err == nil {
		t.Error("garbage must fail")
	}
	im := &Image{W: 4, H: 4, Pix: make([]uint8, 3*4*4)}
	data := Encode(im)
	if _, err := Decode(data[:20]); err == nil {
		t.Error("truncated header must fail")
	}
	data[28] = 8 // claim 8bpp
	if _, err := Decode(data); err == nil {
		t.Error("unsupported depth must fail")
	}
}

func TestFromRGBValidatesLength(t *testing.T) {
	if _, err := FromRGB(4, 4, make([]uint8, 10)); err == nil {
		t.Error("short buffer must fail")
	}
}

func TestAt(t *testing.T) {
	pix := make([]uint8, 3*3*2)
	copy(pix[3*(1*3+2):], []uint8{10, 20, 30})
	im, err := FromRGB(3, 2, pix)
	if err != nil {
		t.Fatal(err)
	}
	r, g, b := im.At(2, 1)
	if r != 10 || g != 20 || b != 30 {
		t.Errorf("At = %d,%d,%d", r, g, b)
	}
}

func TestPaperSizedImage(t *testing.T) {
	// The paper's jpeg input is a 118 kB bitmap; 224×160 at 24bpp with
	// headers lands close.
	im := &Image{W: 224, H: 160, Pix: make([]uint8, 3*224*160)}
	data := Encode(im)
	if len(data) < 100_000 || len(data) > 130_000 {
		t.Errorf("encoded size = %d bytes, want ~118 kB", len(data))
	}
}
