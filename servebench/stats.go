package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile; with fewer, the percentile is no tail and is not reported.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median is the middle value, or the mean of the two middle values of an
// even-sized sample. It is NaN for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile is the nearest-rank p-th percentile (the sample at rank
// ceil(p·n/100)). ok is false unless at least minBeyond samples rank above
// it, so a p90 needs 100 samples.
func tailPercentile(xs []float64, p int) (v float64, ok bool) {
	n := len(xs)
	rank := (p*n + 99) / 100
	if n == 0 || rank < 1 || n-rank < minBeyond {
		return math.NaN(), false
	}
	return sorted(xs)[rank-1], true
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (its default
// "exclusive" method), which is how spreads of repeated runs are judged.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
