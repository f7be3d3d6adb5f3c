// Package stats holds the benchmark's summary rules: medians, nearest-rank
// percentiles, and the rule for which percentile a sample may report.
package stats

import (
	"math"
	"sort"
)

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// values; 0 for an empty sample. values is not modified.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest-rank position of percentile p among n sorted
// samples; the epsilon keeps 99.9% of 10000 at 9990 despite rounding.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// Median is the 50th percentile.
func Median(values []float64) float64 { return Percentile(values, 50) }

// Min is the smallest value; 0 for an empty sample. On a shared machine
// interference only ever adds time, so of several repetitions of the same
// work the quickest is the closest to what the code itself costs.
func Min(values []float64) float64 { return Percentile(values, 0) }

// Max is the largest value; see Min.
func Max(values []float64) float64 { return Percentile(values, 100) }

// Supports reports whether a sample of n may report percentile p: at least
// ten samples must lie beyond it, so the number is not one outlier's.
func Supports(n int, p float64) bool {
	return n-rank(n, p) >= 10
}
