package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a tail percentile is reported only
// when at least this many samples lie beyond it, so a "p99" is never the
// single slowest sample of a short run.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted
// samples, how many samples lie beyond it, and whether the rule allows
// reporting it. The median (q = 0.5) is always reportable when there is
// at least one sample.
func percentile(sorted []float64, q float64) (v float64, beyond int, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	beyond = n - rank
	return sorted[rank-1], beyond, q <= 0.5 || beyond >= minBeyond
}

// micros converts host-time samples to sorted microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	sort.Float64s(out)
	return out
}

// quartiles returns the first quartile, median and third quartile of vs
// with the same interpolation as Python's statistics.quantiles(n=4)
// (the "exclusive" method), so spreads computed here match the ones the
// README quotes.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// statistics.quantiles' exclusive method, integer math included.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), median(s), at(3)
}

// median of vs (need not be sorted).
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
