package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cosched"
)

// span is one timed interval of a traced run. Spans of one operation
// share Req; Parent is 0 for a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Req    string  `json:"req"`
	Start  float64 `json:"start_ms"` // since the tracer's epoch
	End    float64 `json:"end_ms"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op returning span ID 0.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(tm time.Time) float64 { return msOf(tm.Sub(t.epoch)) }

// record adds a span with known bounds (ms since the epoch) and returns
// its ID.
func (t *tracer) record(name string, parent int, req string, start, end float64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end})
	return id
}

// begin opens a span starting at from; finish closes it now.
func (t *tracer) begin(name string, parent int, req string, from time.Time) int {
	if t == nil {
		return 0
	}
	at := t.at(from)
	return t.record(name, parent, req, at, at)
}

func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	end := t.at(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// phases adds a library solve's Stats.Phases as children of its solve
// span. Graph searches report their phases in completion order and
// without nesting (oracle, graph, prepare, search), so they are laid end
// to end from the solve's start.
func (t *tracer) phases(solve int, req string, start time.Time, ph []cosched.Phase) {
	if t == nil {
		return
	}
	at := t.at(start)
	for _, p := range ph {
		d := msOf(p.Duration)
		t.record(p.Name, solve, req, at, at+d)
		at += d
	}
}

// get returns the span with the given ID.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time, indexed by span ID - 1: its
// duration minus the part of its interval that its children cover.
func selfTimes(spans []span) []float64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) float64 {
	cs := append([]span(nil), children...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	var total float64
	at := parent.Start
	for _, c := range cs {
		lo, hi := max(c.Start, at), min(c.End, parent.End)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

// clockSlackMS absorbs the rounding of nanosecond clocks converted to
// float milliseconds when child durations are summed.
const clockSlackMS = 1e-6

// layerViolations lists every span whose children's durations add up to
// more than its own: a layer that reports more time than the call it
// ran inside.
func layerViolations(spans []span) []span {
	sum := make(map[int]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			sum[s.Parent] += s.dur()
		}
	}
	var out []span
	for _, s := range spans {
		if c, ok := sum[s.ID]; ok && c > s.dur()+clockSlackMS {
			out = append(out, s)
		}
	}
	return out
}

// meanSelf averages self time per span name.
func meanSelf(spans []span, self []float64) map[string]float64 {
	sum := make(map[string]float64)
	n := make(map[string]int)
	for i, s := range spans {
		sum[s.Name] += self[i]
		n[s.Name]++
	}
	out := make(map[string]float64, len(sum))
	for name, v := range sum {
		out[name] = v / float64(n[name])
	}
	return out
}
