package main

import (
	"math"
	"testing"
)

func TestCheckPartitionRejectsInvalidAnswers(t *testing.T) {
	for _, tc := range []struct {
		name   string
		groups [][]int
		ok     bool
	}{
		{"valid", [][]int{{1, 2, 3, 4}, {5, 6, 7, 8}}, true},
		{"duplicate", [][]int{{1, 2, 3, 4}, {5, 6, 7, 7}}, false},
		{"missing", [][]int{{1, 2, 3, 4}, {5, 6, 7}}, false},
		{"over capacity", [][]int{{1, 2, 3, 4, 5}, {6, 7, 8}}, false},
		{"unknown process", [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}, false},
		{"beyond the batch", [][]int{{1, 2, 3, 4}, {5, 6, 7, 9}}, false},
		{"empty", nil, false},
	} {
		err := checkPartition(tc.groups, 8, 4)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok = %v", tc.name, err, tc.ok)
		}
	}
}

func TestOptimalMayNotLose(t *testing.T) {
	if err := checkNotAbove(10, 10, "PG"); err != nil {
		t.Errorf("equal costs rejected: %v", err)
	}
	if err := checkNotAbove(9.5, 10, "PG"); err != nil {
		t.Errorf("a cheaper optimum rejected: %v", err)
	}
	if err := checkNotAbove(10.001, 10, "HA*"); err == nil {
		t.Error("an optimum above the heuristic was accepted")
	}
	for _, c := range []float64{-1, math.NaN(), math.Inf(1)} {
		if checkCost(c) == nil {
			t.Errorf("cost %v accepted", c)
		}
	}
}
