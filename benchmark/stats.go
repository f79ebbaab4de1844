package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a percentile for
// the benchmark to call it supported (choosing-metrics: "the highest
// percentile that has at least ten samples beyond it").
const minBeyond = 10

// percentile returns the p-quantile (0 < p <= 1) of sorted by the
// nearest-rank rule: the smallest value with at least p·n samples at or
// below it. An empty slice yields 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[rank(n, p)-1]
}

// rank is the 1-based nearest rank of the p-quantile among n samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// supportedTail returns the highest of p90, p95 and p99 that has at least
// minBeyond of n samples beyond it, or 0 when not even p90 does.
func supportedTail(n int) float64 {
	for _, p := range []float64{0.99, 0.95, 0.90} {
		if n-rank(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// median returns the middle value of vals (mean of the two middle values for
// an even count) without reordering the caller's slice.
func median(vals []float64) float64 {
	q := quartiles(vals)
	return q[1]
}

// quartiles returns the first quartile, median and third quartile of vals
// by the exclusive method Python's statistics.quantiles(values, n=4) uses,
// so the spreads the benchmark prints are the ones the driver computes.
// Fewer than two values yield the single value (or 0) three times.
func quartiles(vals []float64) [3]float64 {
	n := len(vals)
	if n == 0 {
		return [3]float64{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		// Position i·(n+1)/4 in 1-based order statistics; the interval is
		// clamped to the sample but the weight is not, exactly as the
		// reference implementation extrapolates on tiny samples.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func sum(vals []float64) float64 {
	var t float64
	for _, v := range vals {
		t += v
	}
	return t
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return sum(vals) / float64(len(vals))
}

func maxOf(vals []float64) float64 {
	var m float64
	for i, v := range vals {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}
