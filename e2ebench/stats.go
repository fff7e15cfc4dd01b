package main

import (
	"math"
	"slices"
	"time"
)

// minTail is how many samples must lie beyond a reported tail
// percentile for it to say something about the tail.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// the samples, or 0 when there are none.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	rank := int(math.Ceil(p * float64(len(s)) / 100))
	rank = max(1, min(rank, len(s)))
	return s[rank-1]
}

// tailPercentile returns the highest whole percentile whose nearest-rank
// value has at least minTail samples beyond it, or 0 when n is too small
// for any.
func tailPercentile(n int) int {
	for p := 99; p >= 1; p-- {
		rank := (p*n + 99) / 100 // ceil(p·n/100)
		if rank >= 1 && n-rank >= minTail {
			return p
		}
	}
	return 0
}

// median of durations, in the unit given.
func medianOf(ds []time.Duration, unit time.Duration) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d) / float64(unit)
	}
	return percentile(v, 50)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
