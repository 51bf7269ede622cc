package main

import (
	"fmt"
	"math"
)

// checkPartition verifies an answer's machine groups: every process
// 1..procs appears exactly once and no machine holds more processes
// than it has cores.
func checkPartition(groups [][]int, procs, cores int) error {
	seen := make([]bool, procs+1)
	placed := 0
	for m, g := range groups {
		if len(g) > cores {
			return fmt.Errorf("machine %d holds %d processes on %d cores", m, len(g), cores)
		}
		for _, p := range g {
			if p < 1 || p > procs {
				return fmt.Errorf("machine %d holds unknown process %d (batch has %d)", m, p, procs)
			}
			if seen[p] {
				return fmt.Errorf("process %d is placed twice", p)
			}
			seen[p] = true
			placed++
		}
	}
	if placed != procs {
		return fmt.Errorf("%d of %d processes placed", placed, procs)
	}
	return nil
}

// costTolerance absorbs float summation order between methods that
// reach the same partition by different paths.
const costTolerance = 1e-9

// checkNotAbove fails when an exact method's cost exceeds a heuristic's
// on the same instance: the optimum can never lose.
func checkNotAbove(exact, heuristic float64, what string) error {
	if exact > heuristic+costTolerance*math.Max(1, math.Abs(heuristic)) {
		return fmt.Errorf("optimal cost %.9g exceeds %s cost %.9g", exact, what, heuristic)
	}
	return nil
}

// checkCost rejects costs no schedule can have.
func checkCost(c float64) error {
	if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
		return fmt.Errorf("cost %v is not a finite non-negative number", c)
	}
	return nil
}
