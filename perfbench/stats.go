package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile
// for it to say something about the tail rather than about one outlier.
const minBeyond = 10

// tailLevels are the percentiles tail tries, highest first.
var tailLevels = []float64{99.9, 99, 95, 90, 75, 50}

// pct is one percentile of a sample set, with the count it came from.
type pct struct {
	// Level is the percentile (90 for p90); 0 when no level is valid.
	Level float64
	// Value is the nearest-rank sample at Level.
	Value float64
	// N is the number of samples.
	N int
}

// rankOf is the 1-based nearest-rank index of percentile level over n
// samples.
func rankOf(level float64, n int) int {
	r := int(math.Ceil(level / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile level of xs.
func percentile(xs []float64, level float64) pct {
	if len(xs) == 0 {
		return pct{}
	}
	s := sorted(xs)
	return pct{Level: level, Value: s[rankOf(level, len(s))-1], N: len(s)}
}

// tail returns the highest percentile of tailLevels that leaves at
// least minBeyond samples above it, so a p90 needs 100 samples and a
// p99 needs 1000. Level is 0 when even the median has too few samples
// beyond it.
func tail(xs []float64) pct {
	n := len(xs)
	for _, lv := range tailLevels {
		if n-rankOf(lv, n) >= minBeyond {
			return percentile(xs, lv)
		}
	}
	return pct{N: n}
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
