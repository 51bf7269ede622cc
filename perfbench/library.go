package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"cosched"
)

// The library workloads: one caller, a closed loop over a fixed list of
// instances, calling cosched.SolveContext directly. No server or cache
// code runs.
const (
	// exactInstances OA* batches of exactJobs serial jobs on a quad-core
	// machine: about 140 ms each, so a 25 s window cycles the list more
	// than four times.
	exactInstances = 40
	exactJobs      = 16
	// largeHAInstances HA* batches of largeHAJobs jobs on the O(u)
	// pairwise oracle, on eight-core machines: about 150 ms each, of
	// which the heuristic-table prepare phase is about a third, and the
	// beam trims every level.
	largeHAInstances = 32
	largeHAJobs      = 144
	// probeBuilds is how many instances the admission probe rebuilds and
	// fingerprints after the traced window.
	probeBuilds = 20
)

func setupExact(p plan, _ bool) (bench, error) {
	return setupLibrary(p, cosched.MethodOAStar, cosched.QuadCore, func(seed int64) (*cosched.Instance, error) {
		return cosched.SyntheticSerial(exactJobs, cosched.QuadCore, seed)
	})
}

func setupHeuristicLarge(p plan, _ bool) (bench, error) {
	return setupLibrary(p, cosched.MethodHAStar, cosched.EightCore, func(seed int64) (*cosched.Instance, error) {
		return cosched.SyntheticLarge(largeHAJobs, cosched.EightCore, seed)
	})
}

// libBench drives one library workload.
type libBench struct {
	method  cosched.Method
	machine cosched.MachineKind
	build   func(seed int64) (*cosched.Instance, error)
	insts   []*libInstance
	next    int // position in the cycled list; windows continue from it
	pgMS    []float64
	traced  []cosched.Stats
}

// libInstance is one listed instance with its reference answers.
type libInstance struct {
	seed int64
	inst *cosched.Instance
	pg   float64 // PG reference cost
	ha   float64 // HA* reference cost, for the OA* workload only
	// first is the first answer's cost: the solver is deterministic, so
	// every later pass over the list must repeat it.
	first    float64
	answered bool
}

func setupLibrary(p plan, method cosched.Method, m cosched.MachineKind, build func(int64) (*cosched.Instance, error)) (*libBench, error) {
	b := &libBench{method: method, machine: m, build: build}
	for _, seed := range p.instances {
		inst, err := build(seed)
		if err != nil {
			return nil, fmt.Errorf("build instance %d: %w", seed, err)
		}
		li := &libInstance{seed: seed, inst: inst}
		start := time.Now()
		pg, err := cosched.Solve(inst, cosched.Options{Method: cosched.MethodPG})
		if err != nil {
			return nil, fmt.Errorf("PG reference %d: %w", seed, err)
		}
		b.pgMS = append(b.pgMS, msOf(time.Since(start)))
		li.pg = pg.TotalDegradation
		if method == cosched.MethodOAStar {
			ha, err := cosched.Solve(inst, cosched.Options{Method: cosched.MethodHAStar, Parallelism: 1})
			if err != nil {
				return nil, fmt.Errorf("HA* reference %d: %w", seed, err)
			}
			li.ha = ha.TotalDegradation
		}
		b.insts = append(b.insts, li)
	}
	return b, nil
}

func (b *libBench) run(d time.Duration, tr *tracer) (*window, error) {
	w := &window{}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc := ms.TotalAlloc
	start := time.Now()
	for deadline := start.Add(d); time.Now().Before(deadline); {
		li := b.insts[b.next%len(b.insts)]
		b.next++
		req := fmt.Sprintf("op-%d", b.next)
		t0 := time.Now()
		op := tr.begin("op", 0, req, t0)
		solve := tr.begin("solve", op, req, t0)
		sched, err := cosched.SolveContext(context.Background(), li.inst, cosched.Options{Method: b.method, Parallelism: 1})
		r := opResult{latMS: msOf(time.Since(t0))}
		tr.finish(solve)
		if err == nil {
			tr.phases(solve, req, t0, sched.Stats.Phases)
			err = b.check(li, sched)
		}
		if err == nil {
			r.cost, r.pg = sched.TotalDegradation, li.pg
			if tr != nil {
				b.traced = append(b.traced, sched.Stats)
			}
		}
		r.err = err
		tr.finish(op)
		w.ops = append(w.ops, r)
	}
	w.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms)
	w.alloc = ms.TotalAlloc - alloc
	return w, nil
}

// check verifies one answer against its instance and references.
func (b *libBench) check(li *libInstance, s *cosched.Schedule) error {
	if s.Stats.Degraded {
		return fmt.Errorf("instance %d: degraded answer (%v)", li.seed, s.Stats.AbortReason)
	}
	c := s.TotalDegradation
	if err := checkCost(c); err != nil {
		return fmt.Errorf("instance %d: %w", li.seed, err)
	}
	if err := checkPartition(s.Groups(), li.inst.NumProcesses(), b.machine.Cores()); err != nil {
		return fmt.Errorf("instance %d: %w", li.seed, err)
	}
	if b.method == cosched.MethodOAStar {
		if err := checkNotAbove(c, li.pg, "PG"); err != nil {
			return fmt.Errorf("instance %d: %w", li.seed, err)
		}
		if err := checkNotAbove(c, li.ha, "HA*"); err != nil {
			return fmt.Errorf("instance %d: %w", li.seed, err)
		}
	}
	if li.answered && c != li.first {
		return fmt.Errorf("instance %d: cost %v differs from the first answer's %v", li.seed, c, li.first)
	}
	li.first, li.answered = c, true
	return nil
}

func (b *libBench) layers(tr *tracer, _ *window) (map[string]float64, error) {
	// The admission layers timed directly on this workload's instances.
	for i, li := range b.insts[:min(probeBuilds, len(b.insts))] {
		req := fmt.Sprintf("probe-%d", i)
		probe := tr.begin("probe", 0, req, time.Now())
		id := tr.begin("build", probe, req, time.Now())
		inst, err := b.build(li.seed)
		tr.finish(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("fingerprint", probe, req, time.Now())
		_, err = inst.Fingerprint()
		tr.finish(id)
		if err != nil {
			return nil, err
		}
		tr.finish(probe)
	}

	var exp, gen, dis, pru, beam, queue, alloc, reuse float64
	for _, st := range b.traced {
		exp += float64(st.Expanded)
		gen += float64(st.Generated)
		dis += float64(st.DismissedWorse)
		pru += float64(st.Pruned)
		beam += float64(st.BeamTrimmed)
		queue += float64(st.MaxQueue)
		alloc += float64(st.ElemAllocated)
		reuse += float64(st.ElemReused)
	}
	n := float64(len(b.traced))
	if n == 0 || gen == 0 {
		return nil, fmt.Errorf("traced window verified no search")
	}
	return map[string]float64{
		"astar.expanded":         exp / n,
		"astar.generated":        gen / n,
		"astar.expand_ratio":     exp / gen,
		"astar.dismissed_worse":  dis / n,
		"astar.pruned":           pru / n,
		"astar.beam_trimmed":     beam / n,
		"astar.max_queue":        queue / n,
		"astar.elem_reuse_ratio": reuse / max(alloc+reuse, 1),
		"pg.solve_ms":            mean(b.pgMS),
	}, nil
}

func (b *libBench) close() {}
