package main

import (
	"slices"
	"time"
)

// percentile returns the nearest-rank q-quantile of ds (0 when empty).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median returns the median of vs, averaging the middle pair.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianInt(vs []int) int {
	s := slices.Clone(vs)
	slices.Sort(s)
	return s[len(s)/2]
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perUnit is d in nanoseconds per unit of work, 0 when there was none.
func perUnit(d time.Duration, n int) float64 { return ratio(float64(d), float64(n)) }

// ratio is a/b, 0 when b is 0 (the layer did not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
