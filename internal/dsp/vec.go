package dsp

// ScaleBytes scales unsigned 8-bit pixels by num/den with unsigned
// saturation — the reference for the image benchmark's dimming pass
// (den is a power of two in the MMX implementation).
func ScaleBytes(out, in []uint8, num, den int) {
	for i := range out {
		v := int(in[i]) * num / den
		if v > 255 {
			v = 255
		}
		out[i] = uint8(v)
	}
}
