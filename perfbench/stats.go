package main

import (
	"math"
	"sort"
)

// median returns the median of xs (the mean of the middle pair for an
// even count). It does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile is one nearest-rank percentile of a sample, with the
// sample count and the number of samples strictly beyond its rank, so
// a report can say how many observations a tail figure rests on.
type percentile struct {
	Value  float64
	N      int // sample count
	Beyond int // samples ranked above Value's rank
}

// nearestRank returns the p-th percentile of xs by the nearest-rank
// rule: the smallest sample with at least p% of the samples at or
// below it. It does not modify xs.
func nearestRank(xs []float64, p float64) percentile {
	out := percentile{N: len(xs), Value: math.NaN()}
	if len(xs) == 0 || p <= 0 || p > 100 {
		return out
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	out.Value = s[rank-1]
	out.Beyond = len(s) - rank
	return out
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
