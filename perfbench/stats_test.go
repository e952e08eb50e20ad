package main

import (
	"math"
	"testing"
)

func TestNearestRankCountsSamplesBeyond(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted input
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		p            float64
		value        float64
		beyond, size int
	}{
		{50, 50, 50, 100},
		{90, 90, 10, 100},
		{99, 99, 1, 100},
		{100, 100, 0, 100},
		{1, 1, 99, 100},
	} {
		got := nearestRank(xs, c.p)
		if got.Value != c.value || got.Beyond != c.beyond || got.N != c.size {
			t.Errorf("p%v = %+v, want value %v with %d of %d beyond", c.p, got, c.value, c.beyond, c.size)
		}
	}
	if xs[0] != 100 {
		t.Error("nearestRank sorted its input in place")
	}
	// Nine samples: p90 is the maximum, with nothing beyond it.
	got := nearestRank([]float64{3, 1, 2, 9, 8, 7, 6, 5, 4}, 90)
	if got.Value != 9 || got.Beyond != 0 || got.N != 9 {
		t.Errorf("p90 of 1..9 = %+v, want 9 with 0 beyond", got)
	}
	if got := nearestRank(nil, 90); !math.IsNaN(got.Value) || got.N != 0 {
		t.Errorf("p90 of nothing = %+v, want NaN over 0 samples", got)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("median(1..4) = %v, want 2.5", m)
	}
	if m := median(xs[:3]); m != 3 {
		t.Errorf("median(4, 1, 3) = %v, want 3", m)
	}
	if xs[0] != 4 {
		t.Error("median sorted its input in place")
	}
	if m := mean(xs); m != 2.5 {
		t.Errorf("mean(1..4) = %v, want 2.5", m)
	}
	if m := mean(nil); !math.IsNaN(m) {
		t.Errorf("mean of nothing = %v, want NaN", m)
	}
}
