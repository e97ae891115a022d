// Package stats provides the small statistical toolbox the benchmark and
// clock-synchronization code needs: numerically stable summaries, quantiles,
// and ordinary least-squares linear regression with R².
//
// All routines use two-pass, mean-centered formulas: clock readings can have
// magnitudes around 1e4 s while the signals of interest are microseconds, so
// the textbook one-pass formulas lose everything to cancellation.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the (population) variance of xs, or NaN for empty input.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Stddev returns the population standard deviation of xs.
func Stddev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs, or NaN for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or NaN for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs (average of the two middle elements for
// even lengths), or NaN for empty input. xs is not modified.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// MedianIndex returns an index i such that xs[i] is a median element of xs
// (for even lengths, the lower of the two middle elements). This mirrors the
// paper's Mean-RTT-Offset (Alg. 8), which needs the *sample* whose value is
// the median, not an interpolated value. Returns -1 for empty input.
func MedianIndex(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	return idx[(len(xs)-1)/2]
}

// MAD returns the median absolute deviation of xs — the robust scale
// estimate median(|x - median(xs)|) — or NaN for empty input. It is left
// unscaled (no 1.4826 normal-consistency factor); callers thresholding at
// k·MAD choose k accordingly. xs is not modified.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	med := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return Median(dev)
}

// Quantile returns the q-quantile of xs (0 <= q <= 1) with linear
// interpolation. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Summary bundles the usual descriptive statistics of a sample.
type Summary struct {
	N                int
	Mean, Median     float64
	Min, Max, Stddev float64
	Q25, Q75         float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Median: Median(xs),
		Min:    Min(xs),
		Max:    Max(xs),
		Stddev: Stddev(xs),
		Q25:    Quantile(xs, 0.25),
		Q75:    Quantile(xs, 0.75),
	}
}
