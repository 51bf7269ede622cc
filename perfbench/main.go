// Command perfbench is the repository's benchmark. It runs one named
// workload against the solver library or the in-process daemon, checks
// every answer, and prints each metric by name and unit; its last line
// is one JSON object with the keys correct, attempted, failed and
// metrics.
//
// Run it from the repository root through perfbench/run.sh:
//
//	bash perfbench/run.sh --workload serve-mixed --seed 3 --seconds 25 --trace 0
//
// --trace 0 measures one untraced window and reports the end-to-end
// metrics. --trace 1 measures an untraced window, then a traced one, and
// reports the per-layer metrics: layer times are span self times from the
// traced window, and trace.overhead_pct compares the two windows. The
// spans are written to .bench_build/traces when the run ends.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRuns is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupRuns = 3

// workload is one named set of inputs and the loop that drives them.
type workload struct {
	// instances is how many distinct instance seeds the plan draws.
	instances int
	// sloMS is the fixed latency limit behind slo_ok_ratio.
	sloMS float64
	setup func(p plan, traced bool) (bench, error)
}

// bench is a set-up workload, ready to measure.
type bench interface {
	// run measures one window of length d; tr is nil when untraced.
	run(d time.Duration, tr *tracer) (*window, error)
	// layers runs after the traced window tw: it adds the spans the
	// program reports on its own, runs the direct layer probes, and
	// returns the layer values that are not span self times.
	layers(tr *tracer, tw *window) (map[string]float64, error)
	close()
}

// window is what one measured window yields.
type window struct {
	ops     []opResult
	elapsed time.Duration
	alloc   uint64    // heap bytes allocated during the window
	lagMS   []float64 // open-loop generator lag per request
}

// latencies returns the latency of every operation in lane, or of every
// operation when lane is "".
func (w *window) latencies(lane string) []float64 {
	var out []float64
	for _, op := range w.ops {
		if lane == "" || op.lane == lane {
			out = append(out, op.latMS)
		}
	}
	return out
}

// opResult is one operation: a library solve or one daemon request.
type opResult struct {
	lane  string // "" for library ops; "cold" or "warm" for daemon requests
	latMS float64
	// cost is the answer's cost and pg the PG reference cost of the same
	// instance (both set only when the answer passed its checks).
	cost, pg float64
	err      error
	status   int // HTTP status of a daemon request
}

var workloads = map[string]*workload{
	"exact-search":     {instances: exactInstances, sloMS: 500, setup: setupExact},
	"heuristic-large":  {instances: largeHAInstances, sloMS: 500, setup: setupHeuristicLarge},
	"serve-mixed":      {instances: mixedPool, sloMS: 250, setup: setupMixed},
	"serve-warm-large": {instances: warmLargePool, sloMS: 150, setup: setupWarmLarge},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 25, "length of each measured window in seconds")
	traced := fs.Int("trace", 0, "1 adds a traced window and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	rep, err := measure(*name, w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", *name, p)
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// measure sets the workload up, runs its windows and assembles the
// report.
func measure(name string, w *workload, seed int64, d time.Duration, traced bool) (*report, error) {
	p := newPlan(seed, w.instances)
	var setups []float64
	var b bench
	for i := 0; i < setupRuns; i++ {
		if b != nil {
			b.close()
		}
		start := time.Now()
		nb, err := w.setup(p, traced)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		b = nb
	}
	defer b.close()

	// Each window starts from a collected heap, so that the garbage set-up
	// left behind is not charged to the first operations.
	runtime.GC()
	plain, err := b.run(d, nil)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	rep.add(plain)
	if !traced {
		if err := rep.endToEnd(plain, setups, w.sloMS); err != nil {
			return nil, err
		}
		return rep, nil
	}

	tr := newTracer()
	runtime.GC()
	tw, err := b.run(d, tr)
	if err != nil {
		return nil, err
	}
	rep.add(tw)
	extra, err := b.layers(tr, tw)
	if err != nil {
		return nil, err
	}
	if err := rep.perLayer(tr, plain, tw, extra); err != nil {
		return nil, err
	}
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	rep.notes = append(rep.notes, "spans written to "+path)
	return rep, nil
}

// maxGenLagMS is the open-loop generator's allowed lateness, a fifth of
// the warm lane's interval. A run whose warm lane sent its p90 request
// later than this after its due time did not apply the schedule it
// claims, and is marked invalid. Lag below it is normal on a two-CPU
// machine: when the solver and the garbage collector hold both
// processors, a woken goroutine waits for the next preemption, up to
// 10 ms.
const maxGenLagMS = float64(warmInterval/5) / float64(time.Millisecond)

// value is one reported metric.
type value struct {
	name, unit string
	v          float64
	note       string
}

// report is what a run prints.
type report struct {
	attempted, failed int
	problems          []string // anything that makes the run incorrect
	notes             []string
	metrics           []value
}

// add counts a window's operations and its failures.
func (r *report) add(w *window) {
	r.attempted += len(w.ops)
	for _, op := range w.ops {
		if op.err != nil {
			r.failed++
			if r.failed <= 5 {
				r.problems = append(r.problems, fmt.Sprintf("op failed: %v", op.err))
			}
		}
	}
	if len(w.lagMS) > 0 {
		q, err := percentile(w.lagMS, 90)
		switch {
		case err != nil:
			r.problems = append(r.problems, "generator lag: "+err.Error())
		case q.value > maxGenLagMS:
			r.problems = append(r.problems, fmt.Sprintf("invalid run: generator lag p90 %.3f ms exceeds %.0f ms", q.value, maxGenLagMS))
		default:
			r.notes = append(r.notes, fmt.Sprintf("generator lag p90 %.3f ms (%s)", q.value, q.note()))
		}
	}
}

func (r *report) set(name string, v float64, note string) {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			r.metrics = append(r.metrics, value{name: name, unit: d.unit, v: v, note: note})
			return
		}
	}
	panic("perfbench: unknown metric " + name)
}

// endToEnd fills the end-to-end metrics from an untraced window.
func (r *report) endToEnd(w *window, setups []float64, sloMS float64) error {
	r.set("setup_s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
	lat := w.latencies("")
	var ok, sloOK int
	var cost, pg float64
	for _, op := range w.ops {
		if op.err == nil {
			ok++
			cost += op.cost
			pg += op.pg
			if op.latMS <= sloMS {
				sloOK++
			}
		}
	}
	for _, p := range []struct {
		name string
		pct  float64
	}{{"latency_p50_ms", 50}, {"latency_p90_ms", 90}} {
		q, err := percentile(lat, p.pct)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		r.set(p.name, q.value, q.note())
	}
	n := float64(len(w.ops))
	r.set("throughput_per_s", float64(ok)/w.elapsed.Seconds(), fmt.Sprintf("%d ok in %.2f s", ok, w.elapsed.Seconds()))
	r.set("ok_ratio", float64(ok)/n, fmt.Sprintf("%d of %d", ok, len(w.ops)))
	r.set("slo_ok_ratio", float64(sloOK)/n, fmt.Sprintf("within %.0f ms", sloMS))
	if pg <= 0 {
		return errors.New("no verified answer to compare with PG")
	}
	r.set("cost_vs_pg_pct", 100*cost/pg, "")
	r.set("alloc_mb_per_op", float64(w.alloc)/1e6/n, "")
	return nil
}

// perLayer fills the per-layer metrics from the traced window tw and the
// untraced window plain of the same run.
func (r *report) perLayer(tr *tracer, plain, tw *window, extra map[string]float64) error {
	spans := tr.snapshot()
	self := selfTimes(spans)
	bad := make(map[string]bool)
	for _, s := range layerViolations(spans) {
		r.problems = append(r.problems, fmt.Sprintf("layer check: %s %s: children add up to more than its %.6f ms", s.Req, s.Name, s.dur()))
		bad[s.Req] = true
	}
	r.failed += len(bad)
	layer := meanSelf(spans, self)
	for _, d := range perLayer {
		switch {
		case d.span == "":
		case d.unit == "us":
			extra[d.name] = 1000 * layer[d.span]
		default:
			extra[d.name] = layer[d.span]
		}
	}
	notes := make(map[string]string)
	for _, q := range []struct {
		name, lane string
		pct        float64
	}{
		{"hit_latency_p50_ms", "warm", 50},
		{"hit_latency_p90_ms", "warm", 90},
		{"cold_latency_p50_ms", "cold", 50},
	} {
		lat := plain.latencies(q.lane)
		if len(lat) == 0 {
			continue
		}
		v, err := percentile(lat, q.pct)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		extra[q.name], notes[q.name] = v.value, v.note()
	}
	if len(plain.lagMS) > 0 {
		q, err := percentile(plain.lagMS, 90)
		if err != nil {
			return fmt.Errorf("bench.gen_lag_p90_ms: %w", err)
		}
		extra["bench.gen_lag_p90_ms"], notes["bench.gen_lag_p90_ms"] = q.value, q.note()
	}
	qp, err := percentile(plain.latencies(""), 50)
	if err != nil {
		return fmt.Errorf("untraced latency: %w", err)
	}
	qt, err := percentile(tw.latencies(""), 50)
	if err != nil {
		return fmt.Errorf("traced latency: %w", err)
	}
	extra["trace.overhead_pct"] = 100 * (qt.value - qp.value) / qp.value
	notes["trace.overhead_pct"] = fmt.Sprintf("latency p50 traced %.3f ms, untraced %.3f ms", qt.value, qp.value)
	for _, d := range perLayer {
		r.set(d.name, extra[d.name], notes[d.name])
	}
	return nil
}

// print writes the human-readable table, then the JSON result line.
func (r *report) print(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jv, len(r.metrics))
	for _, m := range r.metrics {
		note := ""
		if m.note != "" {
			note = "  (" + m.note + ")"
		}
		fmt.Fprintf(w, "%-26s %14.4f %-6s%s\n", m.name, m.v, m.unit, note)
		metrics[m.name] = jv{Value: m.v, Unit: m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{len(r.problems) == 0 && r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
