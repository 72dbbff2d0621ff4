package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailRefusesThinTails(t *testing.T) {
	for _, c := range []struct {
		n    int
		ok   bool
		want float64
	}{
		{999, false, 0},   // rank 990: 9 samples beyond
		{1000, true, 990}, // rank 990: 10 beyond
		{1009, true, 999},
		{100, false, 0},
		{1, false, 0},
	} {
		v, ok := tail(seq(c.n), 0.99)
		if ok != c.ok {
			t.Errorf("n=%d: p99 reported=%v, want %v", c.n, ok, c.ok)
		}
		if ok && v != c.want {
			t.Errorf("n=%d: p99 = %v, want %v", c.n, v, c.want)
		}
	}
}

func TestMedianNearestRank(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of even count = %v, want the lower middle 2", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median of nothing = %v, want NaN", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{0.5, 0.25, 0.125, 1, 2, 4, 8}, [3]float64{0.25, 1, 4}},
	} {
		got, err := quartiles(c.xs)
		if err != nil || got != c.want {
			t.Errorf("quartiles(%v) = %v, %v; want %v", c.xs, got, err, c.want)
		}
	}
	if _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample must fail")
	}
}

func TestNameAndUnitCharset(t *testing.T) {
	for _, s := range []string{"setup_s", "ga.self_us_per_eval", "search-data64", "9lives"} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	long := "a"
	for len(long) < 65 {
		long += "a"
	}
	for _, s := range []string{"", "_lead", ".lead", "has space", "p99/ms", long, "ünïcode"} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
	for _, s := range []string{"ms", "1/s", "%", "count", "MB", "frac"} {
		if !validUnit(s) {
			t.Errorf("validUnit(%q) = false", s)
		}
	}
	for _, s := range []string{"", "micro seconds", "seconds-per-operation", "µs"} {
		if validUnit(s) {
			t.Errorf("validUnit(%q) = true", s)
		}
	}
}
