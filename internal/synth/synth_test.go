package synth

import (
	"math"
	"testing"

	"mmxdsp/internal/dsp"
)

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(5), NewRand(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	if NewRand(5).Uint64() == NewRand(6).Uint64() {
		t.Error("different seeds should differ")
	}
	if NewRand(0).Uint64() == 0 {
		t.Error("zero seed must be remapped")
	}
}

func TestFloatRange(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		v := r.Float()
		if v < -1 || v >= 1 {
			t.Fatalf("Float() = %v out of [-1,1)", v)
		}
	}
}

func TestSpeechInRangeAndVoiced(t *testing.T) {
	x := Speech(3000, 2)
	var energy float64
	for _, v := range x {
		if v > 1 || v < -1 {
			t.Fatalf("speech sample %v out of range", v)
		}
		energy += v * v
	}
	if energy/float64(len(x)) < 1e-3 {
		t.Error("speech signal suspiciously quiet")
	}
	// Pitch harmonic must dominate the spectrum's low band.
	n := 2048
	re := make([]float64, n)
	im := make([]float64, n)
	copy(re, x[:n])
	if err := dsp.FFT(re, im); err != nil {
		t.Fatal(err)
	}
	ps := dsp.PowerSpectrum(re, im)
	peak := dsp.PeakIndex(ps[1 : n/2])
	if peak+1 > 200 {
		t.Errorf("dominant bin %d, expected low-frequency harmonic", peak+1)
	}
}

func TestRadarEchoesMTI(t *testing.T) {
	p := RadarParams{Gates: 12, Pulses: 16, Target: 5, Doppler: 0.2, Clutter: 0.8, Seed: 4}
	re, im := RadarEchoes(p)
	if len(re) != 16 || len(re[0]) != 12 {
		t.Fatalf("shape %dx%d", len(re), len(re[0]))
	}
	// After pulse-to-pulse subtraction the target gate must carry far more
	// energy than any clutter-only gate.
	energy := make([]float64, p.Gates)
	for n := 1; n < p.Pulses; n++ {
		for g := 0; g < p.Gates; g++ {
			dr := re[n][g] - re[n-1][g]
			di := im[n][g] - im[n-1][g]
			energy[g] += dr*dr + di*di
		}
	}
	for g := 0; g < p.Gates; g++ {
		if g == p.Target {
			continue
		}
		if energy[g]*10 > energy[p.Target] {
			t.Errorf("gate %d energy %g vs target %g: clutter not cancelled",
				g, energy[g], energy[p.Target])
		}
	}
}

func TestImageRGBDeterministicAndVaried(t *testing.T) {
	a := ImageRGB(64, 48, 7)
	b := ImageRGB(64, 48, 7)
	if len(a) != 3*64*48 {
		t.Fatalf("size %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce the image")
		}
	}
	// The image should have real variation (not flat).
	var hist [256]int
	for _, v := range a {
		hist[v]++
	}
	distinct := 0
	for _, c := range hist {
		if c > 0 {
			distinct++
		}
	}
	if distinct < 50 {
		t.Errorf("only %d distinct byte values; texture too flat", distinct)
	}
}

func TestToQ15Saturates(t *testing.T) {
	q := ToQ15([]float64{0, 0.5, 1.5, -1.5})
	if q[0] != 0 || q[1] != 16384 || q[2] != 32767 || q[3] != -32768 {
		t.Errorf("ToQ15 = %v", q)
	}
}

func TestIntn(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	if math.Abs(float64(NewRand(3).Intn(1000000))-float64(NewRand(3).Intn(1000000))) != 0 {
		t.Error("Intn must be deterministic")
	}
}
