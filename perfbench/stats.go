package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of raw samples by linear
// interpolation between closest ranks: the sorted samples sit at
// positions 0..n-1 and the quantile at q*(n-1). This is the "linear"
// method of numpy and R type 7, computed on the samples themselves —
// never on histogram buckets, whose step would turn a small change into
// either no change or a whole bucket. +Inf samples (failed requests)
// sort last and propagate into any quantile that touches them. The
// input is not modified. An empty input yields NaN.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

// sortedQuantile is quantile over an already ascending slice.
func sortedQuantile(s []float64, q float64) float64 {
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return s[lo]
	}
	frac := pos - float64(lo)
	if frac == 0 {
		return s[lo]
	}
	if math.IsInf(s[hi], 1) {
		return math.Inf(1)
	}
	return s[lo] + (s[hi]-s[lo])*frac
}

// median is quantile(samples, 0.5).
func median(samples []float64) float64 { return quantile(samples, 0.5) }
