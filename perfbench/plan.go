package main

import (
	"math/rand"
	"time"
)

// plan is everything a run derives from its seed. The program under test
// sees only the instances and requests built from it.
type plan struct {
	// instances are the closed-loop instance seeds, cycled in order (the
	// library workloads) or the pre-warmed request pool (the daemon
	// workloads). They are distinct and below 1<<40.
	instances []int64
	// coldBase is the first cold-lane seed; the k-th cold request uses
	// coldBase+k. Cold seeds start at 1<<41, so they never repeat and
	// never meet a pooled seed.
	coldBase int64
}

func newPlan(seed int64, instances int) plan {
	rng := rand.New(rand.NewSource(seed))
	p := plan{}
	seen := make(map[int64]bool)
	for len(p.instances) < instances {
		s := 1 + rng.Int63n(1<<40)
		if !seen[s] {
			seen[s] = true
			p.instances = append(p.instances, s)
		}
	}
	p.coldBase = 1<<41 + rng.Int63n(1<<40)
	return p
}

// dueOffsets is the open-loop lane's schedule within a window of length
// d: one request every interval, the first half an interval in, the
// last a whole interval before the window ends, so that every request
// falls inside the window.
func dueOffsets(d, interval time.Duration) []time.Duration {
	var out []time.Duration
	for at := interval / 2; at+interval <= d; at += interval {
		out = append(out, at)
	}
	return out
}
