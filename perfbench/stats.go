package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minBeyondTail is how many samples must lie beyond a tail percentile before
// it is reported: a p99 over 200 samples is the second-largest value and
// moves with a single outlier.
const minBeyondTail = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs and how
// many samples lie strictly beyond its rank. xs need not be sorted.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// median is the nearest-rank p50. Every p50 the benchmark reports uses it.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// tail returns the p-quantile of xs, refusing it (ok false) when fewer than
// minBeyondTail samples lie beyond it.
func tail(xs []float64, p float64) (value float64, ok bool) {
	v, beyond := percentile(xs, p)
	return v, beyond >= minBeyondTail
}

// quartiles returns Q1, Q2 and Q3 of xs by the same rule as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so the
// spread report matches the acceptance arithmetic digit for digit.
func quartiles(xs []float64) (q [3]float64, err error) {
	n := len(xs)
	if n < 2 {
		return q, fmt.Errorf("quartiles need at least 2 samples, have %d", n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s may name a workload or a metric.
func validName(s string) bool { return nameRE.MatchString(s) }

// validUnit reports whether s may be a metric unit.
func validUnit(s string) bool { return unitRE.MatchString(s) }
