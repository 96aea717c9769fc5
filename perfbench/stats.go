package main

import (
	"math"
	"sort"
)

// tailLadder is the percentile ladder the tail report climbs: the
// highest rung that still has at least minBeyond samples above it is
// the tail a run of that size can support.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// rankIndex is the nearest-rank index of percentile p in n sorted samples.
func rankIndex(p float64, n int) int {
	// The tolerance keeps p·n/100 that is whole in exact arithmetic
	// (99.9% of 10000) from rounding up a rank.
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// percentile returns the nearest-rank percentile p of sorted samples
// (0 for none).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(p, len(sorted))]
}

// tail returns the highest ladder percentile of sorted samples that has
// at least minBeyond samples beyond it, its value, and that beyond
// count. ok is false when even the median lacks minBeyond samples
// beyond it.
func tail(sorted []float64) (p, value float64, beyond int, ok bool) {
	for _, q := range tailLadder {
		i := rankIndex(q, len(sorted))
		b := len(sorted) - 1 - i
		if len(sorted) == 0 || b < minBeyond {
			break
		}
		p, value, beyond, ok = q, sorted[i], b, true
	}
	return p, value, beyond, ok
}

// sortedCopy returns v sorted ascending, leaving v untouched.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v (0 for none).
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean of v (0 for none).
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
