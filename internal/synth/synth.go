// Package synth generates the deterministic synthetic workloads that stand
// in for the paper's input files (a 118 kB Windows bitmap, a 640×480 RGB
// image, a 6 kB speech recording, and Doppler radar echoes). Every
// generator is seeded and reproducible, so VM runs and pure-Go reference
// runs see identical data.
package synth

import "math"

// Rand is a xorshift64* PRNG — deterministic and dependency-free.
type Rand struct{ s uint64 }

// NewRand seeds a generator; a zero seed is replaced with a fixed constant.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{s: seed}
}

// Uint64 returns the next raw value.
func (r *Rand) Uint64() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// Float returns a uniform value in [-1, 1).
func (r *Rand) Float() float64 {
	return float64(int64(r.Uint64()>>11))/(1<<52) - 1
}

// Intn returns a uniform value in [0, n).
func (r *Rand) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// MultiTone sums several tones with 1/k amplitude rolloff plus a little
// noise — a generic "interesting" test signal for filters and FFTs.
func MultiTone(n int, seed uint64, freqs ...float64) []float64 {
	r := NewRand(seed)
	out := make([]float64, n)
	for k, f := range freqs {
		amp := 0.5 / float64(k+1)
		for i := range out {
			out[i] += amp * math.Sin(2*math.Pi*f*float64(i))
		}
	}
	for i := range out {
		out[i] += 0.02 * r.Float()
	}
	return out
}

// Speech generates a voiced-speech-like waveform: a pitch train of decaying
// harmonics with a slow amplitude envelope and breath noise. n samples at a
// nominal 16 kHz (the G.722 input rate); ~3000 samples make the paper's
// "6 kB speech file" of 16-bit samples.
func Speech(n int, seed uint64) []float64 {
	r := NewRand(seed)
	out := make([]float64, n)
	pitch := 0.0078 // ~125 Hz at 16 kHz
	for h := 1; h <= 8; h++ {
		amp := 0.35 / float64(h)
		phase := 2 * math.Pi * r.Float()
		for i := range out {
			out[i] += amp * math.Sin(2*math.Pi*pitch*float64(h)*float64(i)+phase)
		}
	}
	for i := range out {
		// Syllable-rate envelope (~4 Hz) plus breath noise.
		env := 0.55 + 0.45*math.Sin(2*math.Pi*0.00025*float64(i))
		out[i] = out[i]*env + 0.01*r.Float()
		if out[i] > 0.99 {
			out[i] = 0.99
		}
		if out[i] < -0.99 {
			out[i] = -0.99
		}
	}
	return out
}

// RadarParams configures the Doppler radar echo generator.
type RadarParams struct {
	Gates   int     // range gates per echo (paper: 12)
	Pulses  int     // number of successive echoes
	Target  int     // gate containing the moving target
	Doppler float64 // target Doppler shift in cycles per pulse
	Clutter float64 // stationary clutter amplitude
	Seed    uint64
}

// RadarEchoes generates complex echo samples echo[pulse][gate] as
// (re, im) pairs: strong stationary clutter in every gate (identical pulse
// to pulse, so an MTI canceller removes it) plus a moving target whose
// phase advances by the Doppler shift each pulse, plus receiver noise.
func RadarEchoes(p RadarParams) (re, im [][]float64) {
	r := NewRand(p.Seed)
	// Per-gate stationary clutter (fixed across pulses).
	clutterRe := make([]float64, p.Gates)
	clutterIm := make([]float64, p.Gates)
	for g := 0; g < p.Gates; g++ {
		clutterRe[g] = p.Clutter * r.Float()
		clutterIm[g] = p.Clutter * r.Float()
	}
	re = make([][]float64, p.Pulses)
	im = make([][]float64, p.Pulses)
	for n := 0; n < p.Pulses; n++ {
		re[n] = make([]float64, p.Gates)
		im[n] = make([]float64, p.Gates)
		for g := 0; g < p.Gates; g++ {
			re[n][g] = clutterRe[g] + 0.01*r.Float()
			im[n][g] = clutterIm[g] + 0.01*r.Float()
		}
		// Moving target: rotating phasor in its gate.
		ph := 2 * math.Pi * p.Doppler * float64(n)
		re[n][p.Target] += 0.3 * math.Cos(ph)
		im[n][p.Target] += 0.3 * math.Sin(ph)
	}
	return re, im
}

// ImageRGB generates a natural-image-like 24-bit RGB image (w×h, row-major
// RGB triplets): smooth gradients, a few soft disc "objects", and fine
// texture. This is the stand-in for the paper's bitmap inputs.
//
// Its bytes are fixed: every program that reads an image and every
// reference check computes from them. Work is hoisted out of the pixel loop
// only where each expression keeps its operands and evaluation order, and a
// disc is skipped only where its distance test must fail (the distance is
// at least |dx| and at least |dy|); the per-pixel form in the package tests
// holds the output byte-identical.
func ImageRGB(w, h int, seed uint64) []uint8 {
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
	// Per-column terms: the green gradient and the texture's sine factor.
	colG := make([]float64, w)
	colTex := make([]float64, w)
	for x := range colG {
		fx := float64(x)
		colG[x] = 60 + 100*fx/float64(w)
		colTex[x] = 6 * math.Sin(0.31*fx)
	}
	out := make([]uint8, 3*w*h)
	row := make([]disc, 0, len(discs))
	for y := 0; y < h; y++ {
		fy := float64(y)
		// Base gradient sky-to-ground.
		rowR := 40 + 120*fy/float64(h)
		rowB := 150 - 80*fy/float64(h)
		cosY := math.Cos(0.27 * fy)
		// The discs this row crosses, in their original order.
		row = row[:0]
		for _, d := range discs {
			if dy := fy - d.cy; dy < d.rad && -dy < d.rad {
				row = append(row, d)
			}
		}
		o := out[3*y*w : 3*(y+1)*w]
		for x := 0; x < w; x++ {
			fx := float64(x)
			rr, gg, bb := rowR, colG[x], rowB
			for _, d := range row {
				dx := fx - d.cx
				if dx >= d.rad || -dx >= d.rad {
					continue
				}
				dist := math.Hypot(dx, fy-d.cy)
				if dist < d.rad {
					t := 1 - dist/d.rad
					rr += t * (d.r - rr) * 0.8
					gg += t * (d.g - gg) * 0.8
					bb += t * (d.b - bb) * 0.8
				}
			}
			// Fine texture.
			tex := colTex[x] * cosY
			o[3*x] = clamp8(rr + tex)
			o[3*x+1] = clamp8(gg + tex)
			o[3*x+2] = clamp8(bb - tex)
		}
	}
	return out
}

func clamp8(v float64) uint8 {
	if v > 255 {
		return 255
	}
	if v < 0 {
		return 0
	}
	return uint8(v)
}

// ToQ15 converts float samples in [-1, 1) to Q15 ints.
func ToQ15(v []float64) []int16 {
	out := make([]int16, len(v))
	for i, x := range v {
		s := math.Round(x * 32768)
		if s > 32767 {
			s = 32767
		}
		if s < -32768 {
			s = -32768
		}
		out[i] = int16(s)
	}
	return out
}
