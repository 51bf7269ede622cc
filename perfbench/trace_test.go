package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	tr := newTracer()
	op := tr.record("op", 0, "r", 0, 10)
	tr.record("a", op, "r", 1, 3)
	tr.record("b", op, "r", 2, 5) // overlaps a: [1,5] is covered once
	tr.record("c", op, "r", 8, 12)
	tr.record("root", 0, "s", 20, 21)
	spans := tr.snapshot()
	self := selfTimes(spans)
	// op [0,10] is covered on [1,5] and [8,10]: 6 ms, leaving 4.
	for i, want := range []float64{4, 2, 3, 4, 1} {
		if !near(self[i], want) {
			t.Errorf("%s self = %g, want %g", spans[i].Name, self[i], want)
		}
	}
	if bad := layerViolations(spans); len(bad) != 0 {
		t.Errorf("violations = %v, want none: the children sum to 9 of 10 ms", bad)
	}
}

func TestLayerCheckRejectsChildrenLongerThanTheOp(t *testing.T) {
	tr := newTracer()
	op := tr.record("op", 0, "r", 0, 10)
	tr.record("server", op, "r", 0, 6)
	tr.record("server.queue", op, "r", 4, 10)
	bad := layerViolations(tr.snapshot())
	if len(bad) != 1 || bad[0].Name != "op" {
		t.Errorf("violations = %v, want op: its children report 12 of its 10 ms", bad)
	}
}

func TestLayerCheckAcceptsNestedSums(t *testing.T) {
	tr := newTracer()
	op := tr.record("op", 0, "r", 0, 10)
	solve := tr.record("solve", op, "r", 0, 9)
	tr.record("prepare", solve, "r", 0, 2)
	tr.record("search", solve, "r", 2, 9)
	spans := tr.snapshot()
	if bad := layerViolations(spans); len(bad) != 0 {
		t.Fatalf("violations = %v, want none", bad)
	}
	m := meanSelf(spans, selfTimes(spans))
	if !near(m["op"], 1) || !near(m["solve"], 0) || !near(m["search"], 7) {
		t.Errorf("mean self times = %v", m)
	}
}

func TestServerSpansSplitTheRoundTrip(t *testing.T) {
	tr := newTracer()
	op := &sentOp{reqID: "warm-1"}
	root := tr.record("op", 0, op.reqID, 0, 30)
	op.http = tr.record("http", root, op.reqID, 1, 29) // 28 ms round trip
	serverSpans(tr, op, accessRecord{QueueMS: 5, SolveMS: 12, EncodeMS: 1, TotalMS: 26, Cache: "miss"})
	hit := &sentOp{reqID: "warm-2"}
	root = tr.record("op", 0, hit.reqID, 40, 50)
	hit.http = tr.record("http", root, hit.reqID, 40, 50)
	// A hit reports the stored answer's solve time; no solve ran.
	serverSpans(tr, hit, accessRecord{QueueMS: 3, SolveMS: 70, EncodeMS: 1, TotalMS: 9, Cache: "hit"})
	spans := tr.snapshot()
	if bad := layerViolations(spans); len(bad) != 0 {
		t.Fatalf("violations = %v", bad)
	}
	self := selfTimes(spans)
	want := map[string][]float64{
		"http":         {2, 1}, // wire: round trip minus server total
		"server":       {8, 5}, // admission: total minus queue, solve, encode
		"op":           {2, 0}, // client time outside the round trip
		"server.solve": {12},
	}
	got := make(map[string][]float64)
	for i, s := range spans {
		got[s.Name] = append(got[s.Name], self[i])
	}
	for name, w := range want {
		if len(got[name]) != len(w) {
			t.Fatalf("%s self times = %v, want %v", name, got[name], w)
		}
		for i := range w {
			if !near(got[name][i], w[i]) {
				t.Errorf("%s self times = %v, want %v", name, got[name], w)
			}
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.record("op", 0, "r", 0, 1); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	tr.finish(0)
	tr.phases(0, "r", time.Now(), nil)
}
