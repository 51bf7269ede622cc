package main

import "testing"

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort a copy
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		p      float64
		ok     bool
		value  float64
		beyond int
	}{
		{n: 100, p: 90, ok: true, value: 90, beyond: 10},
		{n: 99, p: 90, ok: false},
		{n: 20, p: 50, ok: true, value: 10, beyond: 10},
		{n: 19, p: 50, ok: false},
		{n: 0, p: 50, ok: false},
		{n: 1000, p: 99, ok: true, value: 990, beyond: 10},
	} {
		xs := seq(tc.n)
		q, err := percentile(xs, tc.p)
		if (err == nil) != tc.ok {
			t.Fatalf("p%g of %d samples: err = %v, want ok = %v", tc.p, tc.n, err, tc.ok)
		}
		if !tc.ok {
			continue
		}
		if q.value != tc.value || q.beyond != tc.beyond || q.n != tc.n {
			t.Errorf("p%g of %d samples = %+v, want value %g with %d beyond", tc.p, tc.n, q, tc.value, tc.beyond)
		}
		if tc.n > 0 && xs[0] != float64(tc.n) {
			t.Errorf("percentile reordered its input")
		}
	}
}

func TestMedianOfSetups(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %g, want 2.5", got)
	}
}
