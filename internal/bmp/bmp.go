// Package bmp reads and writes uncompressed 24-bit Windows bitmaps — the
// input format of the paper's jpeg and image benchmarks.
package bmp

import (
	"encoding/binary"
	"fmt"
)

// Image is a simple 24-bit RGB image, row-major from the top-left.
type Image struct {
	W, H int
	// Pix holds RGB triplets, 3*W*H bytes.
	Pix []uint8
}

// FromRGB wraps an existing RGB buffer.
func FromRGB(w, h int, pix []uint8) (*Image, error) {
	if len(pix) != 3*w*h {
		return nil, fmt.Errorf("bmp: pixel buffer is %d bytes, want %d", len(pix), 3*w*h)
	}
	return &Image{W: w, H: h, Pix: pix}, nil
}

// At returns the RGB components at (x, y).
func (im *Image) At(x, y int) (r, g, b uint8) {
	i := 3 * (y*im.W + x)
	return im.Pix[i], im.Pix[i+1], im.Pix[i+2]
}

const headerSize = 14 + 40 // BITMAPFILEHEADER + BITMAPINFOHEADER

// rowStride returns the padded BMP row size (rows align to 4 bytes).
func rowStride(w int) int { return (3*w + 3) &^ 3 }

// Encode serializes the image as an uncompressed 24-bit BMP
// (bottom-up row order, BGR byte order, 4-byte row padding).
func Encode(im *Image) []byte {
	stride := rowStride(im.W)
	size := headerSize + stride*im.H
	out := make([]byte, size)
	// BITMAPFILEHEADER
	out[0], out[1] = 'B', 'M'
	binary.LittleEndian.PutUint32(out[2:], uint32(size))
	binary.LittleEndian.PutUint32(out[10:], headerSize)
	// BITMAPINFOHEADER
	binary.LittleEndian.PutUint32(out[14:], 40)
	binary.LittleEndian.PutUint32(out[18:], uint32(im.W))
	binary.LittleEndian.PutUint32(out[22:], uint32(im.H))
	binary.LittleEndian.PutUint16(out[26:], 1)  // planes
	binary.LittleEndian.PutUint16(out[28:], 24) // bpp
	binary.LittleEndian.PutUint32(out[34:], uint32(stride*im.H))
	// Pixels: bottom-up, BGR.
	for y := 0; y < im.H; y++ {
		dst := headerSize + (im.H-1-y)*stride
		for x := 0; x < im.W; x++ {
			r, g, b := im.At(x, y)
			out[dst+3*x] = b
			out[dst+3*x+1] = g
			out[dst+3*x+2] = r
		}
	}
	return out
}

// Decode parses an uncompressed 24-bit BMP produced by Encode (or any
// standard writer using the plain 40-byte info header).
func Decode(data []byte) (*Image, error) {
	if len(data) < headerSize || data[0] != 'B' || data[1] != 'M' {
		return nil, fmt.Errorf("bmp: not a BMP file")
	}
	offset := binary.LittleEndian.Uint32(data[10:])
	w := int(int32(binary.LittleEndian.Uint32(data[18:])))
	h := int(int32(binary.LittleEndian.Uint32(data[22:])))
	bpp := binary.LittleEndian.Uint16(data[28:])
	if bpp != 24 {
		return nil, fmt.Errorf("bmp: unsupported depth %d", bpp)
	}
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("bmp: bad dimensions %dx%d", w, h)
	}
	stride := rowStride(w)
	if int(offset)+stride*h > len(data) {
		return nil, fmt.Errorf("bmp: truncated pixel data")
	}
	pix := make([]uint8, 3*w*h)
	for y := 0; y < h; y++ {
		src := int(offset) + (h-1-y)*stride
		for x := 0; x < w; x++ {
			i := 3 * (y*w + x)
			pix[i], pix[i+1], pix[i+2] = data[src+3*x+2], data[src+3*x+1], data[src+3*x]
		}
	}
	return &Image{W: w, H: h, Pix: pix}, nil
}
