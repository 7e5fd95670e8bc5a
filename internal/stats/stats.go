// Package stats provides the small set of numeric helpers used by the
// experiment drivers and the clustering pass: means, normalization,
// argmin/argmax, and Euclidean distance.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs, or 0 for an empty slice.
// Non-positive entries are skipped.
func GeoMean(xs []float64) float64 {
	var logSum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			logSum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Min returns the minimum of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	v := xs[0]
	for _, x := range xs[1:] {
		if x < v {
			v = x
		}
	}
	return v
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	v := xs[0]
	for _, x := range xs[1:] {
		if x > v {
			v = x
		}
	}
	return v
}

// ArgMin returns the index of the smallest element, or -1 for empty xs.
func ArgMin(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// ArgMax returns the index of the largest element, or -1 for empty xs.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// Normalize01 rescales xs into [0, 1] in place and returns it. A constant
// vector maps to all zeros. This matches the paper's "all metrics are
// normalized to the interval [0,1]" preprocessing for clustering.
func Normalize01(xs []float64) []float64 {
	if len(xs) == 0 {
		return xs
	}
	lo, hi := Min(xs), Max(xs)
	span := hi - lo
	for i := range xs {
		if span == 0 {
			xs[i] = 0
		} else {
			xs[i] = (xs[i] - lo) / span
		}
	}
	return xs
}

// Euclidean returns the Euclidean distance between equal-length vectors.
// It panics if the lengths differ.
func Euclidean(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: Euclidean on vectors of different length")
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Percentile returns the p-th percentile (0-100) of xs using linear
// interpolation between closest ranks. It sorts a copy, leaving xs as
// it was, and panics on an empty slice.
func Percentile(xs []float64, p float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return PercentileSorted(cp, p)
}

// PercentileSorted is Percentile over an already ascending slice, for a
// caller that reads several percentiles from one sort.
func PercentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
