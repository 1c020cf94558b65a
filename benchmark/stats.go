package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail reports the highest percentile, capped at p99, that still has at
// least minBeyond samples beyond it, and the sample value there. With too few
// samples for any tail it falls back to the median (percentile 50).
func tail(xs []float64) (percentile, value float64) {
	n := len(xs)
	if n == 0 {
		return 50, 0
	}
	s := sortedCopy(xs)
	// Index i has n-1-i samples beyond it.
	i := int(math.Ceil(0.99*float64(n))) - 1
	if n-1-i < minBeyond {
		i = n - 1 - minBeyond
	}
	if i < n/2 {
		return 50, median(s)
	}
	return 100 * float64(i+1) / float64(n), s[i]
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (the exclusive method), so
// the spreads printed by -aa are the ones the driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure every bound is compared against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
