package main

import "testing"

func TestNearestRankExact(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(100 - i)
	}
	if d := summarize(xs); d != (dist{N: 100, P50: 50, P99: 99, Max: 100}) {
		t.Fatalf("summarize(1..100) = %+v", d)
	}
	if d := summarize([]int64{7}); d != (dist{N: 1, P50: 7, P99: 7, Max: 7}) {
		t.Fatalf("summarize([7]) = %+v", d)
	}
	if d := summarize(nil); d != (dist{}) {
		t.Fatalf("summarize(nil) = %+v", d)
	}
}

// A percentile of raw samples is itself a sample, so it can never lie
// above the maximum, as a histogram bucket bound can.
func TestPercentilesOrdered(t *testing.T) {
	r := newRNG(7, 99)
	for trial := 0; trial < 500; trial++ {
		xs := make([]int64, 1+r.intn(300))
		for i := range xs {
			xs[i] = int64(r.intn(1 << uint(1+r.intn(30))))
		}
		d := summarize(xs)
		if !(d.P50 <= d.P99 && d.P99 <= d.Max) || d.N != len(xs) {
			t.Fatalf("trial %d: %+v breaks p50 <= p99 <= max", trial, d)
		}
		var max int64
		found := false
		for _, x := range xs {
			max = maxInt64(max, x)
			found = found || x == d.P99
		}
		if d.Max != max || !found {
			t.Fatalf("trial %d: %+v: max %d, p99 is a sample: %v", trial, d, max, found)
		}
	}
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func TestMedian(t *testing.T) {
	if m := median([]float64{0.3, 0.1, 0.2}); m != 0.2 {
		t.Fatalf("median = %v, want 0.2", m)
	}
}
