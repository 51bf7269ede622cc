package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must rank above a percentile before it
// is reported. With fewer, the tail is a handful of values and one run
// more or less moves the percentile by a whole rank.
const minBeyond = 10

// quantile is a percentile taken from raw samples, with the counts that
// qualify it.
type quantile struct {
	value  float64
	n      int // samples
	beyond int // samples ranked above the percentile
}

func (q quantile) note() string { return fmt.Sprintf("n=%d, %d beyond", q.n, q.beyond) }

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs, computed exactly from the samples. It fails when fewer than
// minBeyond samples rank above it.
func percentile(xs []float64, p float64) (quantile, error) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return quantile{}, fmt.Errorf("p%g of %d samples has %d beyond it, needs %d", p, n, max(n-rank, 0), minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile{value: s[rank-1], n: n, beyond: n - rank}, nil
}

// median of a few samples, for the repeated set-up time only: it has
// too few samples for percentile's tail rule, which is why set-up is
// repeated and its middle value taken.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
