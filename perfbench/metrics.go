package main

// metricDef names one reported metric. The same set, with the same
// units, directions and bounds, is declared in BENCHMARK.json at the
// repository root; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// span names the trace spans whose mean self time is this per-layer
	// metric ("" when the metric is not a span self time).
	span string
	// moves is the prediction written down before measuring: which
	// end-to-end metric this layer metric should move, on which
	// workload, and where it should stay put.
	moves string
}

// endToEnd are what a user of the solver or the daemon sees. Every
// workload reports every one of them, from an untraced window.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_p90_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "throughput_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "ok_ratio", unit: "ratio", better: "higher", bound: 0.01},
	{name: "slo_ok_ratio", unit: "ratio", better: "higher", bound: 0.02},
	{name: "cost_vs_pg_pct", unit: "%", better: "lower", bound: 0.05},
	{name: "alloc_mb_per_op", unit: "MB", better: "lower", bound: 0.15},
}

// perLayer come from the traced run (--trace 1). A layer a workload does
// not run reports 0.
var perLayer = []metricDef{
	{name: "astar.search_ms", unit: "ms", better: "lower", span: "search",
		moves: "latency_* and throughput_per_s on exact-search (about 99% of an op) and heuristic-large; cold_latency_p50_ms on serve-mixed"},
	{name: "astar.expanded", unit: "count", better: "lower", moves: "as astar.search_ms"},
	{name: "astar.generated", unit: "count", better: "lower", moves: "as astar.search_ms"},
	{name: "astar.expand_ratio", unit: "ratio", better: "higher", moves: "as astar.search_ms"},
	{name: "astar.dismissed_worse", unit: "count", better: "lower", moves: "as astar.search_ms"},
	{name: "astar.pruned", unit: "count", better: "lower", moves: "as astar.search_ms"},
	{name: "astar.beam_trimmed", unit: "count", better: "lower", moves: "alloc_mb_per_op on heuristic-large, the only workload that trims a beam"},
	{name: "astar.max_queue", unit: "count", better: "lower", moves: "alloc_mb_per_op on exact-search and heuristic-large"},
	{name: "astar.elem_reuse_ratio", unit: "ratio", better: "higher", moves: "alloc_mb_per_op on exact-search and heuristic-large"},
	{name: "astar.prepare_ms", unit: "ms", better: "lower", span: "prepare",
		moves: "latency_p50_ms on heuristic-large; no change on exact-search, where it is under 1% of an op"},
	{name: "degradation.oracle_ms", unit: "ms", better: "lower", span: "oracle", moves: "latency_* on exact-search and heuristic-large"},
	{name: "graph.build_ms", unit: "ms", better: "lower", span: "graph", moves: "latency_* on exact-search and heuristic-large"},
	{name: "cosched.overhead_ms", unit: "ms", better: "lower", span: "solve",
		moves: "latency_* on exact-search and heuristic-large (solve wall time minus its phases)"},
	{name: "cosched.build_ms", unit: "ms", better: "lower", span: "build",
		moves: "latency_* and throughput_per_s on serve-warm-large; no change on serve-mixed"},
	{name: "cosched.fingerprint_ms", unit: "ms", better: "lower", span: "fingerprint",
		moves: "latency_* and throughput_per_s on serve-warm-large; no change on serve-mixed"},
	{name: "server.decode_ms", unit: "ms", better: "lower", span: "decode",
		moves: "latency_* and throughput_per_s on serve-warm-large; no change on serve-mixed"},
	{name: "server.admit_ms", unit: "ms", better: "lower", span: "server",
		moves: "latency_* and throughput_per_s on serve-warm-large; no change on serve-mixed"},
	{name: "server.queue_p50_ms", unit: "ms", better: "lower", moves: "hit_latency_* on serve-mixed"},
	{name: "server.queue_p90_ms", unit: "ms", better: "lower", moves: "hit_latency_* on serve-mixed"},
	{name: "server.solve_ms", unit: "ms", better: "lower", span: "server.solve", moves: "cold_latency_p50_ms on serve-mixed"},
	{name: "server.worker_busy_ratio", unit: "ratio", better: "higher",
		moves: "none; confirms that the cold lane keeps the one worker busy on serve-mixed"},
	{name: "server.encode_ms", unit: "ms", better: "lower", span: "server.encode", moves: "latency_* on serve-warm-large"},
	{name: "wire_ms", unit: "ms", better: "lower", span: "http", moves: "latency_* on serve-warm-large"},
	{name: "solvecache.hit_ratio", unit: "ratio", better: "higher",
		moves: "none; fixed by design: the warm share on serve-mixed, 1.0 on serve-warm-large"},
	{name: "solvecache.do_hit_us", unit: "us", better: "lower", span: "cache.do", moves: "latency_* on serve-warm-large"},
	{name: "server.rejected", unit: "count", better: "lower", moves: "ok_ratio on serve-mixed and serve-warm-large"},
	{name: "pg.solve_ms", unit: "ms", better: "lower", moves: "setup_s on every workload"},
	{name: "bench.gen_lag_p90_ms", unit: "ms", better: "lower",
		moves: "none; the serve-mixed warm lane is invalid above maxGenLagMS"},
	{name: "hit_latency_p50_ms", unit: "ms", better: "lower",
		moves: "none; the end-to-end latency of re-asked pre-warmed requests (the serve-mixed warm lane, every serve-warm-large request), from the untraced window"},
	{name: "hit_latency_p90_ms", unit: "ms", better: "lower", moves: "as hit_latency_p50_ms"},
	{name: "cold_latency_p50_ms", unit: "ms", better: "lower",
		moves: "none; the end-to-end latency of the serve-mixed cold lane, from the untraced window"},
	{name: "trace.op_self_ms", unit: "ms", better: "lower", span: "op",
		moves: "none; the part of an op that no layer span explains"},
	{name: "trace.overhead_pct", unit: "%", better: "lower",
		moves: "none; traced against untraced latency_p50_ms in the same run"},
}
