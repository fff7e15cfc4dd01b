package main

import "testing"

// The reference must not change: runs before and after a change to it
// are not comparable.
func TestWorkPinned(t *testing.T) {
	for seed, want := range map[int64]int{1: 410203822, 2: 409921749} {
		if got := work(seed); got != want {
			t.Errorf("work(%d) = %d, want %d", seed, got, want)
		}
	}
}
