package main

import (
	"math"
	"sort"
	"time"
)

// pct returns the p-quantile (0 < p <= 1) of xs by nearest rank, or 0 for
// an empty sample.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// windows is how many consecutive slices of a run's samples the host
// metrics are computed on; reporting the median over the slices keeps a
// burst of interference in one part of the run out of the result.
const windows = 10

// windowed splits xs, in the order it was taken, into windows slices,
// applies f to each and returns the median of the results. Samples too few
// to split are passed to f whole.
func windowed(xs []float64, f func([]float64) float64) float64 {
	if len(xs) < windows*100 {
		return f(xs)
	}
	var per []float64
	for i := 0; i < windows; i++ {
		per = append(per, f(xs[i*len(xs)/windows:(i+1)*len(xs)/windows]))
	}
	return median(per)
}

func p90(xs []float64) float64 { return pct(xs, 0.9) }

// perSecond converts per-op host times in microseconds into ops per second.
func perSecond(opUs []float64) float64 { return ratio(float64(len(opUs)), sum(opUs)/1e6) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// maxDelta returns the largest per-page increase between two wear snapshots.
func maxDelta(before, after []uint32) uint32 {
	var m uint32
	for i := range after {
		if d := after[i] - before[i]; d > m {
			m = d
		}
	}
	return m
}
