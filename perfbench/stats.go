package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. xs need not be sorted; it is not modified. NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so the spreads printed here are the ones the
// benchmark's bounds are judged by. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(k int) float64 {
		m := k * (n + 1)
		j := m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
