package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cosched"
	"cosched/internal/server"
	"cosched/internal/solvecache"
)

// The daemon workloads: server.New(...).Handler() served over a loopback
// listener with one solver worker, no autoscaler and no cache directory,
// driven from this process over two connections (the machine's CPU
// count).
const (
	// mixedJobs is the size of every serve-mixed request: HA* on this
	// many serial jobs takes about 65 ms.
	mixedJobs = 20
	// mixedPool is how many fingerprints the warm lane re-asks. Each is
	// touched every mixedPool*warmInterval, far sooner than the cold
	// lane's stores can push it out of the cache.
	mixedPool = 4
	// warmInterval spaces the warm lane's requests. It is longer than
	// any cold solve, so each hit waits behind at most the one solve in
	// progress and never behind a growing queue.
	warmInterval = 150 * time.Millisecond
	// largeJobs is the size of every serve-warm-large request; building
	// and fingerprinting its instance on admission is most of a hit.
	largeJobs = 500
	// warmLargePool is how many pre-warmed PG requests serve-warm-large
	// re-asks, and largeCallers how many closed-loop callers ask them.
	warmLargePool = 3
	largeCallers  = 2
	// probeBodies is how many request bodies the admission probe times
	// after the traced window, and doProbes how many resident-key cache
	// lookups it times.
	probeBodies = 24
	doProbes    = 2000
)

// The server's cache settings at their Config zero values (128 entries,
// 64 MiB), which the cache probe copies.
const (
	serverCacheEntries = 128
	serverCacheBytes   = 64 << 20
)

// poolEntry is one pre-warmed request.
type poolEntry struct {
	body  []byte
	procs int
	pg    float64 // PG reference cost
	// cost is what the pre-warm miss stored: every later answer must
	// repeat it.
	cost float64
	key  string // the server's solution-cache key, for the cache probe
	sol  *solvecache.Solution
}

// serveBench drives one daemon workload.
type serveBench struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	access *accessLog // nil in untraced runs
	conns  [2]*http.Client
	pool   []*poolEntry
	mixed  bool

	coldBase, coldNext int64
	poolNext           atomic.Int64
	reqSeq             atomic.Int64
	pgMS               []float64

	traced     []*sentOp
	cacheStats [2]solvecache.Stats // before and after the traced window
	stopped    bool
}

func setupMixed(p plan, traced bool) (bench, error) {
	b, err := boot(traced)
	if err != nil {
		return nil, err
	}
	b.mixed, b.coldBase = true, p.coldBase
	for _, seed := range p.instances {
		if err := b.prewarm(server.SolveRequest{Synthetic: mixedJobs, Seed: seed, Method: "hastar"}, cosched.MethodHAStar); err != nil {
			b.close()
			return nil, err
		}
	}
	return b, nil
}

func setupWarmLarge(p plan, traced bool) (bench, error) {
	b, err := boot(traced)
	if err != nil {
		return nil, err
	}
	for _, seed := range p.instances {
		if err := b.prewarm(server.SolveRequest{SyntheticLarge: largeJobs, Seed: seed, Method: "pg"}, cosched.MethodPG); err != nil {
			b.close()
			return nil, err
		}
	}
	return b, nil
}

// boot starts the daemon on a loopback port. A traced run attaches the
// JSON access log, gated off until the traced window starts.
func boot(traced bool) (*serveBench, error) {
	cfg := server.Config{WorkersMin: 1, WorkersMax: 1, SolveParallelism: 1}
	b := &serveBench{served: make(chan error, 1)}
	if traced {
		b.access = &accessLog{}
		cfg.AccessLog = slog.New(gatedHandler{Handler: slog.NewJSONHandler(b.access, nil), on: &b.access.on})
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background()) //nolint:errcheck // nothing was admitted
		return nil, err
	}
	b.srv, b.hs, b.base = srv, &http.Server{Handler: srv.Handler()}, "http://"+ln.Addr().String()
	go func() { b.served <- b.hs.Serve(ln) }()
	for i := range b.conns {
		// One connection per lane or caller.
		b.conns[i] = &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
	}
	return b, nil
}

// prewarm builds a pool entry's references and stores its answer in the
// daemon's cache with one miss.
func (b *serveBench) prewarm(req server.SolveRequest, m cosched.Method) error {
	inst, err := buildRequest(req)
	if err != nil {
		return err
	}
	e := &poolEntry{procs: inst.NumProcesses()}
	if e.pg, err = b.pgRef(inst); err != nil {
		return err
	}
	fp, err := inst.Fingerprint()
	if err != nil {
		return err
	}
	e.key = fp + "|" + cosched.Options{Method: m, Parallelism: 1}.Fingerprint() + "|solve"
	e.body = requestBody(req)
	status, data, err := b.post(b.conns[0], e.body, fmt.Sprintf("prewarm-%d", len(b.pool)))
	if err != nil {
		return fmt.Errorf("pre-warm: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("pre-warm: status %d: %s", status, data)
	}
	var resp server.SolveResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return fmt.Errorf("pre-warm: %w", err)
	}
	if resp.Cached || resp.Degraded {
		return fmt.Errorf("pre-warm of seed %d: want a full miss, got cached=%v degraded=%v", req.Seed, resp.Cached, resp.Degraded)
	}
	if err := checkPartition(resp.Groups, e.procs, cosched.QuadCore.Cores()); err != nil {
		return fmt.Errorf("pre-warm of seed %d: %w", req.Seed, err)
	}
	e.cost = resp.Cost
	e.sol = &solvecache.Solution{Cost: resp.Cost, AvgCost: resp.AvgCost, Groups: resp.Groups,
		Machines: resp.Machines, SolveMS: resp.SolveMS, SolveID: resp.SolveID}
	b.pool = append(b.pool, e)
	return nil
}

// requestBody encodes a solve request. A SolveRequest holds only
// numbers, strings and nil pointers here, so encoding cannot fail.
func requestBody(req server.SolveRequest) []byte {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return body
}

// coldRequest is the body of the serve-mixed cold-lane request for seed.
func (b *serveBench) coldRequest(seed int64) []byte {
	return requestBody(server.SolveRequest{Synthetic: mixedJobs, Seed: seed, Method: "hastar"})
}

// buildRequest builds the instance a request body describes, as the
// server's admission does. Every request here uses the default
// quad-core machine.
func buildRequest(req server.SolveRequest) (*cosched.Instance, error) {
	if req.SyntheticLarge > 0 {
		return cosched.SyntheticLarge(req.SyntheticLarge, cosched.QuadCore, req.Seed)
	}
	return cosched.SyntheticSerial(req.Synthetic, cosched.QuadCore, req.Seed)
}

// pgRef solves the PG reference for inst, timing it for pg.solve_ms.
func (b *serveBench) pgRef(inst *cosched.Instance) (float64, error) {
	start := time.Now()
	s, err := cosched.Solve(inst, cosched.Options{Method: cosched.MethodPG})
	if err != nil {
		return 0, fmt.Errorf("PG reference: %w", err)
	}
	b.pgMS = append(b.pgMS, msOf(time.Since(start)))
	return s.TotalDegradation, nil
}

// sentOp is one request as the client saw it.
type sentOp struct {
	lane   string
	reqID  string
	entry  *poolEntry // pooled requests
	seed   int64      // cold requests
	latMS  float64
	status int
	resp   *server.SolveResponse
	body   []byte // the error body of a non-200 answer
	err    error
	http   int // span ID of the round trip (0 when untraced)
}

func (b *serveBench) post(c *http.Client, body []byte, reqID string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, b.base+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.RequestIDHeader, reqID)
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// send issues one request and times it from due, which is the send time
// in closed loops and the scheduled time in the open-loop lane.
func (b *serveBench) send(tr *tracer, c *http.Client, lane string, body []byte, due time.Time) *sentOp {
	op := &sentOp{lane: lane, reqID: fmt.Sprintf("%s-%d", lane, b.reqSeq.Add(1))}
	sent := time.Now()
	if due.IsZero() {
		due = sent
	}
	opSpan := tr.begin("op", 0, op.reqID, due)
	op.http = tr.begin("http", opSpan, op.reqID, sent)
	status, data, err := b.post(c, body, op.reqID)
	tr.finish(op.http)
	op.status, op.err = status, err
	if err == nil && status == http.StatusOK {
		op.resp = &server.SolveResponse{}
		if err := json.Unmarshal(data, op.resp); err != nil {
			op.err = fmt.Errorf("decode answer: %w", err)
		}
	} else if err == nil {
		op.body = data
	}
	op.latMS = msOf(time.Since(due))
	tr.finish(opSpan)
	return op
}

func (b *serveBench) run(d time.Duration, tr *tracer) (*window, error) {
	if tr != nil {
		b.access.on.Store(true)
		defer b.access.on.Store(false)
		b.cacheStats[0] = b.srv.CacheStats()
		defer func() { b.cacheStats[1] = b.srv.CacheStats() }()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc := ms.TotalAlloc
	w := &window{}
	start := time.Now()
	var ops []*sentOp
	if b.mixed {
		ops, w.lagMS = b.runMixed(start, d, tr)
	} else {
		ops = b.runWarmLarge(start, d, tr)
	}
	w.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms)
	w.alloc = ms.TotalAlloc - alloc
	if tr != nil {
		b.traced = ops
	}
	// Answers are checked after the window, so that checking never
	// delays a request.
	for _, op := range ops {
		r := opResult{lane: op.lane, latMS: op.latMS, status: op.status}
		if cost, pg, err := b.check(op); err != nil {
			r.err = fmt.Errorf("%s: %w", op.reqID, err)
		} else {
			r.cost, r.pg = cost, pg
		}
		w.ops = append(w.ops, r)
	}
	return w, nil
}

// runMixed runs serve-mixed's two lanes. The cold lane is a closed loop
// of HA* requests whose seeds never repeat; it keeps the one worker
// busy. The warm lane is an open loop re-asking the pre-warmed pool on a
// fixed schedule, and it fires only while the cold lane runs.
func (b *serveBench) runMixed(start time.Time, d time.Duration, tr *tracer) ([]*sentOp, []float64) {
	var (
		mu       sync.Mutex
		ops      []*sentOp
		lags     []float64
		warmDone atomic.Bool
		lane     sync.WaitGroup
	)
	keep := func(op *sentOp) {
		mu.Lock()
		ops = append(ops, op)
		mu.Unlock()
	}
	lane.Add(1)
	go func() {
		defer lane.Done()
		defer warmDone.Store(true)
		var inflight sync.WaitGroup
		for k, off := range dueOffsets(d, warmInterval) {
			due := start.Add(off)
			time.Sleep(time.Until(due))
			lags = append(lags, msOf(time.Since(due)))
			e := b.pool[k%len(b.pool)]
			inflight.Add(1)
			go func() {
				defer inflight.Done()
				op := b.send(tr, b.conns[1], "warm", e.body, due)
				op.entry = e
				keep(op)
			}()
		}
		inflight.Wait()
	}()
	deadline := start.Add(d)
	for time.Now().Before(deadline) || !warmDone.Load() {
		seed := b.coldBase + b.coldNext
		b.coldNext++
		op := b.send(tr, b.conns[0], "cold", b.coldRequest(seed), time.Time{})
		op.seed = seed
		keep(op)
	}
	lane.Wait()
	return ops, lags
}

// runWarmLarge runs serve-warm-large: largeCallers closed loops sharing
// one cycle over the pre-warmed pool, so every request is a hit and its
// time goes to admission, encoding and the wire.
func (b *serveBench) runWarmLarge(start time.Time, d time.Duration, tr *tracer) []*sentOp {
	var (
		mu      sync.Mutex
		ops     []*sentOp
		callers sync.WaitGroup
	)
	deadline := start.Add(d)
	for c := 0; c < largeCallers; c++ {
		conn := b.conns[c]
		callers.Add(1)
		go func() {
			defer callers.Done()
			for time.Now().Before(deadline) {
				e := b.pool[int(b.poolNext.Add(1)-1)%len(b.pool)]
				op := b.send(tr, conn, "warm", e.body, time.Time{})
				op.entry = e
				mu.Lock()
				ops = append(ops, op)
				mu.Unlock()
			}
		}()
	}
	callers.Wait()
	return ops
}

// check verifies one answer and returns its cost and the PG reference
// cost of the same instance.
func (b *serveBench) check(op *sentOp) (cost, pg float64, err error) {
	if op.err != nil {
		return 0, 0, op.err
	}
	if op.status != http.StatusOK {
		return 0, 0, fmt.Errorf("status %d: %s", op.status, bytes.TrimSpace(op.body))
	}
	r := op.resp
	if r.Degraded {
		return 0, 0, fmt.Errorf("degraded answer (%s)", r.AbortReason)
	}
	if err := checkCost(r.Cost); err != nil {
		return 0, 0, err
	}
	procs := 0
	if e := op.entry; e != nil {
		if r.Cost != e.cost {
			return 0, 0, fmt.Errorf("cost %v differs from the %v the pre-warm miss stored", r.Cost, e.cost)
		}
		procs, pg = e.procs, e.pg
	} else {
		inst, err := cosched.SyntheticSerial(mixedJobs, cosched.QuadCore, op.seed)
		if err != nil {
			return 0, 0, err
		}
		if pg, err = b.pgRef(inst); err != nil {
			return 0, 0, err
		}
		procs = inst.NumProcesses()
	}
	if err := checkPartition(r.Groups, procs, cosched.QuadCore.Cores()); err != nil {
		return 0, 0, err
	}
	return r.Cost, pg, nil
}

// rejectedStatus reports the statuses that count as server.rejected.
func rejectedStatus(s int) bool {
	return s == http.StatusTooManyRequests || s == http.StatusServiceUnavailable || s == http.StatusGatewayTimeout
}

func (b *serveBench) layers(tr *tracer, tw *window) (map[string]float64, error) {
	// Stopping the listener waits for every handler to return, and so
	// for every access-log line to be written.
	if err := b.stop(); err != nil {
		return nil, err
	}
	recs, err := b.access.records()
	if err != nil {
		return nil, err
	}
	var hitQueue []float64
	var busyMS float64
	for _, op := range b.traced {
		rec, ok := recs[op.reqID]
		if !ok {
			return nil, fmt.Errorf("no access-log line for %s", op.reqID)
		}
		serverSpans(tr, op, rec)
		switch rec.Cache {
		case "hit":
			hitQueue = append(hitQueue, rec.QueueMS)
		case "miss":
			busyMS += rec.SolveMS
		}
	}
	out := map[string]float64{
		"server.worker_busy_ratio": busyMS / msOf(tw.elapsed),
		"pg.solve_ms":              mean(b.pgMS),
	}
	for _, q := range []struct {
		name string
		pct  float64
	}{{"server.queue_p50_ms", 50}, {"server.queue_p90_ms", 90}} {
		v, err := percentile(hitQueue, q.pct)
		if err != nil {
			return nil, fmt.Errorf("%s of hits: %w", q.name, err)
		}
		out[q.name] = v.value
	}
	before, after := b.cacheStats[0], b.cacheStats[1]
	hits := after.Hits - before.Hits
	if all := hits + after.Misses - before.Misses + after.Shared - before.Shared; all > 0 {
		out["solvecache.hit_ratio"] = float64(hits) / float64(all)
	}
	for _, op := range tw.ops {
		if rejectedStatus(op.status) {
			out["server.rejected"]++
		}
	}
	if err := b.probeAdmission(tr); err != nil {
		return nil, err
	}
	if err := b.probeCache(tr); err != nil {
		return nil, err
	}
	return out, nil
}

// serverSpans adds the server's own timings of one request, read from
// its access-log line, under the request's round-trip span. The log
// gives durations, not start times, so the spans are laid out as the
// server runs them: the handler's total centred in the round trip (the
// wire time split evenly), encoding at its end, the solve (misses only;
// a hit reports the stored answer's solve time) before that, and the
// queue wait before the solve. The handler's self time is then its
// total minus queue, solve and encode: admission.
func serverSpans(tr *tracer, op *sentOp, rec accessRecord) {
	h := tr.get(op.http)
	wire := h.dur() - rec.TotalMS
	end := h.End - wire/2
	srv := tr.record("server", op.http, op.reqID, end-rec.TotalMS, end)
	at := end
	tr.record("server.encode", srv, op.reqID, at-rec.EncodeMS, at)
	at -= rec.EncodeMS
	if rec.Cache == "miss" {
		tr.record("server.solve", srv, op.reqID, at-rec.SolveMS, at)
		at -= rec.SolveMS
	}
	tr.record("server.queue", srv, op.reqID, at-rec.QueueMS, at)
}

// probeAdmission times request decoding, instance building and
// fingerprinting directly, on bodies the traced window sent: the work
// the server's admission does on the handler goroutine.
func (b *serveBench) probeAdmission(tr *tracer) error {
	var bodies [][]byte
	for i := 0; len(bodies) < probeBodies && i < len(b.traced); i++ {
		op := b.traced[i]
		if op.entry != nil {
			bodies = append(bodies, op.entry.body)
			continue
		}
		bodies = append(bodies, b.coldRequest(op.seed))
	}
	for i, body := range bodies {
		req := fmt.Sprintf("probe-%d", i)
		probe := tr.begin("probe", 0, req, time.Now())
		id := tr.begin("decode", probe, req, time.Now())
		var sr server.SolveRequest
		err := json.Unmarshal(body, &sr)
		tr.finish(id)
		if err != nil {
			return err
		}
		id = tr.begin("build", probe, req, time.Now())
		inst, err := buildRequest(sr)
		tr.finish(id)
		if err != nil {
			return err
		}
		id = tr.begin("fingerprint", probe, req, time.Now())
		_, err = inst.Fingerprint()
		tr.finish(id)
		if err != nil {
			return err
		}
		tr.finish(probe)
	}
	return nil
}

var errNotResident = errors.New("cache probe: key not resident")

// probeCache times Do on resident keys of a cache built with the
// server's settings and holding the pool's answers.
func (b *serveBench) probeCache(tr *tracer) error {
	c, err := solvecache.NewWithConfig(solvecache.Config[*solvecache.Solution]{
		Capacity: serverCacheEntries, MaxBytes: serverCacheBytes, SizeOf: (*solvecache.Solution).SizeBytes,
	})
	if err != nil {
		return err
	}
	for _, e := range b.pool {
		c.Put(e.key, e.sol)
	}
	miss := func() (*solvecache.Solution, bool, error) { return nil, false, errNotResident }
	for i := 0; i < doProbes; i++ {
		e := b.pool[i%len(b.pool)]
		id := tr.begin("cache.do", 0, "do", time.Now())
		_, out, err := c.Do(e.key, miss)
		tr.finish(id)
		if err != nil || out != solvecache.Hit {
			return fmt.Errorf("cache probe: outcome %v, err %v", out, err)
		}
	}
	return nil
}

// stop closes the listener and waits for every handler to return.
func (b *serveBench) stop() error {
	if b.stopped {
		return nil
	}
	b.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := b.hs.Shutdown(ctx)
	if serr := <-b.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	for _, c := range b.conns {
		c.CloseIdleConnections()
	}
	return err
}

func (b *serveBench) close() {
	if err := b.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: stop server:", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := b.srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: drain server:", err)
	}
}

// accessLog collects the daemon's JSON access log in memory.
type accessLog struct {
	on  atomic.Bool
	mu  sync.Mutex
	buf bytes.Buffer
}

func (a *accessLog) Write(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.buf.Write(p)
}

// accessRecord is the part of an access-log line the trace uses.
type accessRecord struct {
	ReqID    string  `json:"req_id"`
	QueueMS  float64 `json:"queue_ms"`
	SolveMS  float64 `json:"solve_ms"`
	EncodeMS float64 `json:"encode_ms"`
	TotalMS  float64 `json:"total_ms"`
	Cache    string  `json:"cache"`
}

func (a *accessLog) records() (map[string]accessRecord, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]accessRecord)
	sc := bufio.NewScanner(bytes.NewReader(a.buf.Bytes()))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r accessRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("access log: %w", err)
		}
		out[r.ReqID] = r
	}
	return out, sc.Err()
}

// gatedHandler passes records to its handler only while on is set, so
// the untraced window of a traced run pays no access-log cost. The
// server logs through LogAttrs on the logger it is given, never through
// derived loggers, so WithAttrs and WithGroup need no gate.
type gatedHandler struct {
	slog.Handler
	on *atomic.Bool
}

func (g gatedHandler) Enabled(ctx context.Context, l slog.Level) bool {
	return g.on.Load() && g.Handler.Enabled(ctx, l)
}
