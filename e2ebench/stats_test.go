package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 5}, {90, 9}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if s[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{10, 0},   // no percentile leaves ten samples beyond it
		{11, 9},   // rank 1 of 11
		{20, 50},  // rank 10, ten beyond
		{99, 89},  // p90 is rank 90: only nine beyond
		{100, 90}, // the smallest run that supports a p90
		{130, 92},
		{1000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestMedianOf(t *testing.T) {
	ds := []time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond}
	if got := medianOf(ds, time.Millisecond); got != 2 {
		t.Errorf("median = %v ms, want 2", got)
	}
}

func TestHostScale(t *testing.T) {
	// The median reference time is twice nominal, so times halve.
	refs := []time.Duration{5 * refNominal, 2 * refNominal, refNominal}
	if got := hostScale(refs); got != 0.5 {
		t.Errorf("scale = %v, want 0.5", got)
	}
}
