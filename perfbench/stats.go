package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the same rule as Python's statistics.quantiles "inclusive"
// method); 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// spreadPct returns the distance between the first and third quartiles as a
// percentage of the median.
func spreadPct(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return 100 * (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pct returns 100*part/whole, or 0 when whole is 0.
func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// sample is one metric value with the number of measurements behind it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	// Spread is the interquartile range as a percentage of the median,
	// over the samples the value is the median of (0 when not a median).
	Spread float64 `json:"spread_pct,omitempty"`
}

// medianOf builds a sample as the median of xs.
func medianOf(xs []float64, unit string) sample {
	return sample{Value: median(xs), Unit: unit, N: len(xs), Spread: spreadPct(xs)}
}
