package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"sflow/internal/abstract"
	"sflow/internal/control"
	"sflow/internal/daemon"
	"sflow/internal/flow"
	"sflow/internal/metrics"
	"sflow/internal/overlay"
	"sflow/internal/provision"
	"sflow/internal/qos"
	"sflow/internal/reduce"
	"sflow/internal/reopt"
	"sflow/internal/require"
	"sflow/internal/session"
	"sflow/internal/transport"
)

// The traced run. The same seeded sequence goes, serially on one connection,
// to a daemon.Server running inside this process, and spans are recorded from
// here, around the calls into each layer's public functions; sflowd itself
// carries no tracing yet. Every request has a root "request" span, the real
// round trip, and a "shadow" span whose children replay the layer calls the
// handler made, on the snapshot of the epoch the response named (solves) or
// on mirror objects fed the same sequence (mutations, admissions).

// span is one timed interval.
type span struct {
	Name string `json:"name"`
	// Start and End are nanoseconds since the trace began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Parent indexes the span list; -1 marks a root.
	Parent  int `json:"parent"`
	Request int `json:"request_id"`
	// Self is the duration less what child spans cover, filled in by
	// writeSpans.
	Self int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, request int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Request: request})
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// selfTimes returns each span's duration minus the part of its interval its
// child spans cover. Children must follow their parent in start order, which
// begin guarantees.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	covered := make([]int64, len(spans)) // per parent: where its children's cover ends
	for i, s := range spans {
		self[i] = s.End - s.Start
		covered[i] = s.Start
	}
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		lo, hi := max(s.Start, covered[s.Parent]), min(s.End, spans[s.Parent].End)
		if hi > lo {
			self[s.Parent] -= hi - lo
			covered[s.Parent] = hi
		}
	}
	return self
}

// writeSpans writes the trace to path, each span with its self time.
func writeSpans(path string, spans []span) error {
	for i, self := range selfTimes(spans) {
		spans[i].Self = self
	}
	return writeJSON(path, spans)
}

// countingTable counts the reads a solve makes on the qos.Table it is handed.
type countingTable struct {
	qos.Table
	reads int
}

func (c *countingTable) Metric(src, dst int) qos.Metric { c.reads++; return c.Table.Metric(src, dst) }
func (c *countingTable) Path(src, dst int) []int        { c.reads++; return c.Table.Path(src, dst) }
func (c *countingTable) From(src int) *qos.Result       { c.reads++; return c.Table.From(src) }

// place runs the placement algorithm the way the daemon's solver registry
// does for the two algorithms the workloads request.
func place(alg string, ag *abstract.Graph, src int) (*flow.Graph, qos.Metric, error) {
	if alg == "fixed" {
		r, err := control.Fixed(ag, src)
		if err != nil {
			return nil, qos.Unreachable, err
		}
		return r.Flow, r.Metric, nil
	}
	r, err := reduce.Solve(ag, src, nil)
	if err != nil {
		return nil, qos.Unreachable, err
	}
	return r.Flow, r.Metric, nil
}

// admitAlgorithm is what the daemon hands its allocator for "heuristic": a
// full abstract.Build on the residual overlay, then the placement.
func admitAlgorithm(ov *overlay.Overlay, req *require.Requirement, src int) (*flow.Graph, qos.Metric, error) {
	ag, err := abstract.Build(ov, req)
	if err != nil {
		return nil, qos.Unreachable, err
	}
	return place("heuristic", ag, src)
}

// applyMutation maps one wire mutation onto the session's event methods, as
// the daemon's writer does.
func applyMutation(s *session.Session, m daemon.Mutation) error {
	switch m.Kind {
	case daemon.MutAddInstance:
		return s.AddInstance(m.NID, m.SID, m.Host)
	case daemon.MutRemoveInstance:
		return s.RemoveInstance(m.NID)
	case daemon.MutAddLink:
		return s.AddLink(m.From, m.To, m.Bandwidth, m.Latency)
	case daemon.MutRemoveLink:
		return s.RemoveLink(m.From, m.To)
	case daemon.MutGrowBandwidth:
		return s.GrowLinkBandwidth(m.From, m.To, m.Delta)
	case daemon.MutReduceBandwidth:
		return s.ReduceLinkBandwidth(m.From, m.To, m.Delta)
	}
	return fmt.Errorf("unknown mutation kind %q", m.Kind)
}

// timeUS runs fn n times and returns each run's duration in microseconds.
func timeUS(n int, fn func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		start := time.Now()
		fn()
		out[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	return out
}

// allocsPer runs fn n times and returns the heap allocations and bytes of one
// run, over every goroutine of the process; the caller keeps the rest idle.
func allocsPer(n int, fn func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// traced is the state of one traced run.
type traced struct {
	p   *plan
	tr  tracer
	c   *conn // answer checks and ticket bookkeeping, shared with the load loops
	srv *daemon.Server
	cl  *daemon.Client
	reg *metrics.Registry
	// latest is the snapshot the daemon published last. The run is serial, so
	// it is the epoch every response names.
	latest atomic.Pointer[session.Snapshot]

	// Mirrors fed the same sequence as the daemon: a session for the
	// mutating workloads, an allocator and its ledger for admit-mix.
	sess    *session.Session
	alloc   *provision.Allocator
	ledger  *reopt.Ledger
	tickets map[uint64]uint64 // served ticket -> mirror ticket

	id      int                  // the request in flight
	resp    *daemon.Response     // its answer
	kinds   []opKind             // per request id
	samples map[string][]float64 // exact per-request counts and sizes, by metric name
	lazy    [3]*metrics.Counter  // rows computed, row hits, LRU evictions
	lazySum [3]int64             // their increments around served calls only
	queue   []served             // answered, shadow due
}

// problem records a replay that disagrees with the served answer as a fault
// of the connection, like a wrong answer.
func (t *traced) problem(format string, args ...any) {
	t.c.fail(format, args...)
}

func (t *traced) sample(name string, v int) {
	t.samples[name] = append(t.samples[name], float64(v))
}

// send is the conn's transport: the real round trip, under the request's root
// span. The lazy-row counters are read around it, so that the replays the
// shadow makes on the same tables are not counted as served work.
func (t *traced) send(r *daemon.Request) (*daemon.Response, error) {
	var before [3]int64
	for i, c := range t.lazy {
		before[i] = c.Value()
	}
	root := t.tr.begin("request", -1, t.id)
	resp, err := t.cl.Do(r)
	t.tr.end(root)
	for i, c := range t.lazy {
		t.lazySum[i] += c.Value() - before[i]
	}
	t.resp = resp
	return resp, err
}

// served is one answered request whose shadow is still due.
type served struct {
	id   int
	o    op
	resp *daemon.Response
	sn   *session.Snapshot // the epoch the answer came from
}

// request sends op o as request id under its root span; the conn checks the
// answer. The shadow is queued, not run: replaying between two requests
// leaves the daemon's threads parked and the next round trip pays their
// wake-up, which no client of a busy daemon does. Requests therefore go out
// back to back, and the queue is flushed every def.TraceBatch requests and
// before every mutation, so that a solve's Handle replay still finds the
// epoch that served it.
func (t *traced) request(id int, o op) {
	if o.kind == opMutate || len(t.queue) >= t.p.def.TraceBatch {
		t.flush()
	}
	t.kinds = append(t.kinds, o.kind)
	t.id, t.resp = id, nil
	t.c.do(o)
	if t.resp != nil {
		t.queue = append(t.queue, served{id, o, t.resp, t.latest.Load()})
	}
}

// flush runs the queued shadows in request order.
func (t *traced) flush() {
	for _, q := range t.queue {
		if data, err := json.Marshal(q.o.req); err == nil {
			t.sample("transport.req_bytes", len(data))
		}
		if data, err := json.Marshal(q.resp); err == nil {
			t.sample("transport.resp_bytes", len(data))
		}
		shadow := t.tr.begin("shadow", -1, q.id)
		switch q.o.kind {
		case opSolve:
			t.shadowSolve(q, shadow)
		case opMutate:
			t.shadowMutate(q.id, shadow, q.o)
		case opAdmit:
			t.shadowAdmit(q.id, shadow, q.o, q.resp)
		case opRelease:
			t.shadowRelease(q.id, shadow, q.o)
		case opLinks:
			t.timed("daemon.handle", shadow, q.id, func() { _, _ = t.srv.Handle(q.o.req) })
			t.timed("reopt.links", shadow, q.id, func() { t.ledger.Links() })
		}
		t.tr.end(shadow)
	}
	t.queue = t.queue[:0]
}

func (t *traced) timed(name string, parent, id int, fn func()) {
	s := t.tr.begin(name, parent, id)
	fn()
	t.tr.end(s)
}

// shadowSolve replays a solve's layer calls on the snapshot of the epoch the
// response named, and requires the replay to reproduce the served flow.
func (t *traced) shadowSolve(q served, parent int) {
	id, o, resp, sn := q.id, q.o, q.resp, q.sn
	if sn.Epoch != resp.Epoch {
		t.problem("request %d answered from epoch %d, last published was %d", id, resp.Epoch, sn.Epoch)
		return
	}
	t.timed("daemon.handle", parent, id, func() { _, _ = t.srv.Handle(o.req) })
	table := &countingTable{Table: sn.AllPairs}
	var (
		ag   *abstract.Graph
		fg   *flow.Graph
		data []byte
		err  error
	)
	t.timed("abstract.from_table", parent, id, func() { ag, err = abstract.FromAllPairs(sn.Overlay, o.req.Requirement, table) })
	if err == nil {
		t.timed("reduce.solve", parent, id, func() { fg, _, err = place(o.req.Algorithm, ag, o.req.Source) })
	}
	if err == nil {
		t.timed("flow.encode", parent, id, func() { data, err = json.Marshal(fg) })
	}
	switch {
	case (err != nil) != (resp.Err != ""):
		t.problem("request %d: served err %q, replay err %v", id, resp.Err, err)
	case err == nil && !bytes.Equal(data, resp.Flow):
		t.problem("request %d: the replayed layer calls give another flow than the served one", id)
	case err == nil:
		t.sample("qos.table_reads_per_solve", table.reads)
		t.sample("flow.encode_bytes", len(data))
	}
}

// shadowMutate applies the batch to the mirror session and prices the
// writer's steps: event methods and flush, snapshot, overlay clone.
func (t *traced) shadowMutate(id, parent int, o op) {
	t.timed("session.mutate_flush", parent, id, func() {
		for _, m := range o.req.Mutations {
			if err := applyMutation(t.sess, m); err != nil {
				t.problem("request %d: mirror session: %v", id, err)
			}
		}
		t.sess.Flush()
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t.timed("session.snapshot", parent, id, func() { t.sess.Snapshot() })
	runtime.ReadMemStats(&after)
	t.sample("session.snapshot_bytes", int(after.TotalAlloc-before.TotalAlloc))
	t.timed("overlay.clone", parent, id, func() { t.sess.Overlay().Clone() })
}

// shadowAdmit admits the same request on the mirror allocator, which saw the
// same sequence and so must decide the same, and prices the all-pairs build
// on the residual that dominates it.
func (t *traced) shadowAdmit(id, parent int, o op, resp *daemon.Response) {
	r := o.req
	residual := t.alloc.Residual()
	t.timed("abstract.build_full", parent, id, func() { _, _ = abstract.Build(residual, r.Requirement) })
	var tk *provision.Ticket
	var err error
	t.timed("provision.admit", parent, id, func() {
		tk, err = t.alloc.Admit(provision.AdmitRequest{Req: r.Requirement, Src: r.Source, Demand: r.Demand,
			Class: r.Class, Tag: "heuristic", Alg: admitAlgorithm})
	})
	if (err != nil) != (resp.Err != "") {
		t.problem("request %d: served admit err %q, mirror allocator err %v", id, resp.Err, err)
		return
	}
	if err != nil {
		return
	}
	t.tickets[resp.Ticket] = tk.ID
	if data, merr := json.Marshal(tk.Flow); merr != nil || !bytes.Equal(data, resp.Flow) {
		t.problem("request %d: the mirror allocator granted another flow than the served one", id)
	}
}

func (t *traced) shadowRelease(id, parent int, o op) {
	mirror, ok := t.tickets[o.req.Ticket]
	if !ok {
		t.problem("request %d releases ticket %d, which the mirror never granted", id, o.req.Ticket)
		return
	}
	delete(t.tickets, o.req.Ticket)
	// A preempted tenant fails to release on both sides alike.
	t.timed("provision.release", parent, id, func() { _ = t.alloc.Release(mirror) })
}

// runTraced runs def's serial traced sequence and the layer measurements
// around it, then a short leg on a real sflowd for the sflowd.* group.
func runTraced(env *environment, def *workloadDef, seed int64) (*result, error) {
	// One connection: the open-loop plans then hold the whole schedule in due
	// order. The horizon only has to cover TraceRequests ops.
	horizon := 0.0
	if def.Open {
		horizon = 1.25 * float64(def.TraceRequests) / float64(def.Rate)
	}
	p, err := buildPlan(def, seed, 1, horizon)
	if err != nil {
		return nil, err
	}
	sc := p.sc
	t := &traced{p: p, reg: metrics.New(), tickets: map[uint64]uint64{}, samples: map[string][]float64{}}
	opts := p.opts
	opts.Metrics = t.reg
	opts.PublishHook = func(sn *session.Snapshot) { t.latest.Store(sn) }
	t.srv = daemon.New(sc.Overlay, opts)
	defer t.srv.Close()
	if err := t.srv.Serve("127.0.0.1:0"); err != nil {
		return nil, err
	}
	if t.cl, err = daemon.Dial(t.srv.Addr()); err != nil {
		return nil, err
	}
	defer t.cl.Close()
	for i, name := range []string{"qos_lazy_rows_computed_total", "qos_lazy_row_hits_total", "qos_lazy_lru_evicted_rows_total"} {
		t.lazy[i] = t.reg.Counter(name)
	}
	t.sess = session.New(sc.Overlay, session.Options{Lazy: opts.Lazy, MaxRows: opts.MaxRows})
	if def.Name == "admit-mix" {
		t.ledger = reopt.NewLedger(sc.Overlay, nil)
		mirrorOpts := opts.Admission
		mirrorOpts.Metrics, mirrorOpts.Observer = nil, t.ledger
		t.alloc = provision.NewAllocator(sc.Overlay, mirrorOpts)
		defer t.alloc.Close()
	}

	// A fresh process answers its first thousands of requests a third slower
	// than it does from then on, so the daemon first serves a second of the
	// workload's read request.
	warm := &daemon.Request{Op: daemon.OpLinks}
	if len(p.pool) > 0 {
		warm = p.pool[p.hot].req
	}
	for start := time.Now(); time.Since(start) < traceWarmup; {
		if _, err := t.cl.Do(warm); err != nil {
			return nil, err
		}
	}

	t.c = &conn{id: 0, p: p, send: t.send, base: t.srv.Epoch()}
	t.tr.t0 = time.Now()
	next := p.stream(0)
	attempted := 0
	for attempted < def.TraceRequests {
		o, more := next()
		if !more {
			return nil, fmt.Errorf("%s: the plan ends after %d of %d traced requests", def.Name, attempted, def.TraceRequests)
		}
		for {
			attempted++
			t.request(attempted-1, o)
			if len(t.c.held) <= admitHold {
				break
			}
			o = t.c.releaseOp()
		}
	}
	t.flush()

	// The same read requests again with span recording off: what the
	// recording costs the round trip it measures.
	readKind := opSolve
	if def.Name == "admit-mix" {
		readKind = opLinks
	}
	var untraced []float64
	for len(untraced) < def.TraceRequests/4 {
		o, more := next()
		if !more {
			break
		}
		if o.kind != readKind {
			continue
		}
		start := time.Now()
		if _, err := t.cl.Do(o.req); err != nil {
			return nil, err
		}
		untraced = append(untraced, float64(time.Since(start).Nanoseconds())/1e3)
	}

	r := &result{Workload: def.Name, Seed: seed, Trace: true, Attempted: attempted, Failed: min(t.c.faults, attempted),
		Failures: t.c.failures, Metrics: map[string]float64{}, Samples: map[string]int{}}
	r.Correct = r.Failed == 0
	t.spanMetrics(r, readKind, untraced)
	t.counterMetrics(r, attempted)
	if err := t.layerMetrics(r); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(env.outDir, "trace-"+def.Name+".json"), t.tr.spans); err != nil {
		return nil, err
	}

	// The sflowd.* group comes from a real daemon: a short untraced leg.
	seconds := min(env.seconds, 3)
	p2, err := buildPlan(def, seed, env.connsFor(def), seconds)
	if err != nil {
		return nil, err
	}
	leg, err := driveDaemon(p2, env.bin, seconds, 1, env.outDir)
	if err != nil {
		return nil, err
	}
	if leg.failed > 0 {
		r.Correct = false
		r.Failed += leg.failed
		r.Failures = append(r.Failures, leg.failures...)
	}
	r.Attempted += leg.attempted
	r.Invalid = leg.invalid(def.Open)
	addDaemonDetail(r, leg, def)
	for _, m := range perLayer { // a metric the workload lacks reads 0
		if _, ok := r.Metrics[m.Name]; !ok {
			r.Metrics[m.Name] = 0
		}
	}
	return r, nil
}

// spanMetrics turns the recorded spans into per-layer medians.
func (t *traced) spanMetrics(r *result, readKind opKind, untraced []float64) {
	byName := map[string][]float64{}
	var tracedReads []float64
	for _, s := range t.tr.spans {
		name := s.Name
		us := float64(s.End-s.Start) / 1e3
		if name == "request" {
			name = "request." + t.kinds[s.Request].String()
			if t.kinds[s.Request] == readKind {
				tracedReads = append(tracedReads, us)
			}
		}
		byName[name] = append(byName[name], us)
	}
	for metric, spanName := range map[string]string{
		"daemon.served_rtt_us":    "request.solve",
		"daemon.mutate_us":        "request.mutate",
		"daemon.admit_us":         "request.admit",
		"daemon.handle_us":        "daemon.handle",
		"abstract.from_table_us":  "abstract.from_table",
		"abstract.build_full_us":  "abstract.build_full",
		"reduce.solve_us":         "reduce.solve",
		"flow.encode_us":          "flow.encode",
		"session.mutate_flush_us": "session.mutate_flush",
		"session.snapshot_us":     "session.snapshot",
		"overlay.clone_us":        "overlay.clone",
		"provision.admit_us":      "provision.admit",
		"provision.release_us":    "provision.release",
		"reopt.links_us":          "reopt.links",
	} {
		if xs := byName[spanName]; len(xs) > 0 {
			r.Metrics[metric] = median(xs)
			r.Samples[metric] = len(xs)
		}
	}
	if t.p.def.Name == "admit-mix" {
		// Its only Handle replays are links reads, not the solve the
		// daemon.handle_* group describes.
		delete(r.Metrics, "daemon.handle_us")
		delete(r.Samples, "daemon.handle_us")
	}
	for name, xs := range t.samples {
		r.Metrics[name] = median(xs)
		r.Samples[name] = len(xs)
	}
	m := r.Metrics
	if m["daemon.handle_us"] > 0 {
		m["daemon.handle_self_us"] = m["daemon.handle_us"] - m["abstract.from_table_us"] - m["reduce.solve_us"] - m["flow.encode_us"]
	}
	if with, without := median(tracedReads), median(untraced); without > 0 {
		m["trace.overhead_share"] = (with - without) / without
		r.Samples["trace.overhead_share"] = len(untraced)
	}
}

// counterSum adds up every counter of the snapshot called name, whatever its
// labels.
func counterSum(snap *metrics.Snapshot, name string) float64 {
	var sum int64
	for _, c := range snap.Counters {
		if c.Key == name || strings.HasPrefix(c.Key, name+"{") {
			sum += c.Value
		}
	}
	return float64(sum)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics reads the traced daemon's registry: work counts, and the
// ratios of useful to attempted work.
func (t *traced) counterMetrics(r *result, requests int) {
	snap := t.reg.Snapshot()
	c := func(name string) float64 { return counterSum(snap, name) }
	m := r.Metrics
	n := float64(requests)
	epochs := c("daemon_epochs_published_total")
	m["daemon.epochs_published"] = epochs
	m["daemon.mutations_per_epoch"] = ratio(c("daemon_mutations_total"), epochs-1)
	m["qos.relaxations_per_row"] = ratio(c("qos_relaxations_total"), c("qos_shortest_widest_runs_total"))
	computed, hits, evicted := float64(t.lazySum[0]), float64(t.lazySum[1]), float64(t.lazySum[2])
	m["qos.rows_computed_per_op"] = computed / n
	m["qos.row_hit_ratio"] = ratio(hits, hits+computed)
	m["qos.lru_evicted_per_op"] = evicted / n
	recomputed, saved := c("qos_incremental_recomputed_sources_total"), c("qos_incremental_saved_sources_total")
	m["qos.flush_recomputed_per_mutation"] = ratio(recomputed, c("daemon_mutations_total"))
	m["qos.flush_saved_ratio"] = ratio(saved, saved+recomputed)
	admitted, rejected := c("alloc_admitted_total"), c("alloc_rejected_total")
	m["provision.reject_ratio"] = ratio(rejected, admitted+rejected)
	m["provision.preempted_per_admit"] = ratio(c("alloc_preempted_total"), admitted)
	m["reopt.ledger_updates_per_op"] = c("reopt_ledger_updates_total") / n
}

// rawCodec passes payload bytes through: the echo pair prices framing and
// the socket alone.
type rawCodec struct{}

func (rawCodec) Encode(msg any) ([]byte, error)  { return msg.([]byte), nil }
func (rawCodec) Decode(data []byte) (any, error) { return data, nil }

// measureEcho prices a bare transport round trip with payloads of the given
// sizes. The handler burns `burn` of CPU before it replies and the burn is
// taken off again: with none, both sides answer within the time a thread
// spins before it parks, and the round trip is the framing and the socket
// alone; with a handler's worth, both sides park and the round trip also
// pays their wake-ups, as every served request does.
func measureEcho(reqBytes, respBytes, n int, burn time.Duration) (rttUS []float64, allocs float64, err error) {
	reply := make([]byte, respBytes)
	srv, err := transport.NewRPCServer("127.0.0.1:0", rawCodec{}, func(any) (any, error) {
		for start := time.Now(); time.Since(start) < burn; {
		}
		return reply, nil
	})
	if err != nil {
		return nil, 0, err
	}
	defer srv.Close()
	cl, err := transport.DialRPC(srv.Addr(), rawCodec{})
	if err != nil {
		return nil, 0, err
	}
	defer cl.Close()
	req := make([]byte, reqBytes)
	call := func() {
		if _, cerr := cl.Call(req); cerr != nil && err == nil {
			err = cerr
		}
	}
	timeUS(100, call) // warm the connection
	rttUS = timeUS(n, call)
	for i := range rttUS {
		rttUS[i] -= float64(burn.Nanoseconds()) / 1e3
	}
	allocs, _ = allocsPer(200, call)
	return rttUS, allocs, err
}

// layerMetrics times single layers in loops of their own, after the traced
// sequence, with the process otherwise idle.
func (t *traced) layerMetrics(r *result) error {
	p, sc, m := t.p, t.p.sc, r.Metrics
	n := p.def.TraceRequests

	reqBytes, respBytes := int(m["transport.req_bytes"]), int(m["transport.resp_bytes"])
	rtt, allocs, err := measureEcho(reqBytes, respBytes, n, 0)
	if err != nil {
		return fmt.Errorf("echo: %w", err)
	}
	m["transport.echo_rtt_us"], m["transport.echo_allocs"] = median(rtt), allocs
	if m["daemon.served_rtt_us"] > 0 {
		m["daemon.wire_us"] = m["daemon.served_rtt_us"] - m["transport.echo_rtt_us"] - m["daemon.handle_us"]
		burn := time.Duration(m["daemon.handle_us"] * float64(time.Microsecond))
		if rtt, _, err = measureEcho(reqBytes, respBytes, n/4, burn); err != nil {
			return fmt.Errorf("echo: %w", err)
		}
		m["transport.echo_parked_rtt_us"] = median(rtt)
	}

	sn := t.latest.Load()
	if len(p.pool) > 0 {
		hot := p.pool[p.hot].req
		m["daemon.handle_allocs"], m["daemon.handle_bytes"] = allocsPer(100, func() { _, _ = t.srv.Handle(hot) })
		if out, err := t.srv.Handle(hot); err == nil {
			// The daemon's codecs are encoding/json on these two types.
			m["daemon.codec_us"] = median(timeUS(200, func() {
				reqData, _ := json.Marshal(hot)
				_ = json.Unmarshal(reqData, new(daemon.Request))
				respData, _ := json.Marshal(out)
				_ = json.Unmarshal(respData, new(daemon.Response))
			}))
		}
		if ag, err := abstract.FromAllPairs(sn.Overlay, hot.Requirement, sn.AllPairs); err == nil {
			m["reduce.solve_allocs"], _ = allocsPer(100, func() { _, _, _ = place(hot.Algorithm, ag, hot.Source) })
		}
		// A row the hot solve just read is resident, also in a lazy table.
		src := hot.Source
		dst := sn.Overlay.InstancesOf(hot.Requirement.Downstream(hot.Requirement.Source())[0])[0]
		const reads = 20000
		start := time.Now()
		for i := 0; i < reads; i++ {
			sn.AllPairs.Metric(src, dst)
		}
		m["qos.table_read_us"] = float64(time.Since(start).Nanoseconds()) / 1e3 / reads
	}
	if t.alloc != nil {
		a := provision.NewAllocator(sc.Overlay, provision.AllocatorOptions{Classes: p.opts.Admission.Classes})
		m["provision.admit_allocs"], _ = allocsPer(50, func() {
			if tk, err := a.Admit(provision.AdmitRequest{Req: sc.Req, Src: sc.SourceNID, Demand: admitDemands[0], Alg: admitAlgorithm}); err == nil {
				_ = a.Release(tk.ID)
			}
		})
		a.Close()
	}

	// The kernel on the boot overlay, over the rows the workload reads.
	m["qos.freeze_us"] = median(timeUS(5, func() { qos.FreezeGraph(sc.Overlay) }))
	g := qos.FreezeGraph(sc.Overlay)
	rows := map[int]bool{}
	var sources []int
	for i := range p.pool {
		for _, src := range p.readSet(i) {
			if !rows[src] {
				rows[src] = true
				sources = append(sources, src)
			}
		}
	}
	if len(sources) == 0 { // admit-mix has no pool: the scenario requirement's rows
		sources = abstract.SlotSources(sc.Overlay, sc.Req)
	}
	scratch := qos.NewScratch()
	qos.ShortestWidestCSR(g, sources[0], scratch) // size the scratch before timing
	var rowUS []float64
	_, rowBytes := allocsPer(1, func() {
		for _, src := range sources {
			rowUS = append(rowUS, timeUS(1, func() { qos.ShortestWidestCSR(g, src, scratch) })...)
		}
	})
	m["qos.row_us"], m["qos.row_bytes"] = median(rowUS), rowBytes/float64(len(sources))
	r.Samples["qos.row_us"] = len(rowUS)
	if !p.opts.Lazy {
		m["qos.allpairs_us"] = median(timeUS(3, func() { qos.ComputeAllPairsWorkers(sc.Overlay, 1) }))
	}
	if _, priced := m["session.snapshot_us"]; !priced {
		// No mutation priced these on the way: price them on the idle mirror.
		m["session.snapshot_us"] = median(timeUS(20, func() { t.sess.Snapshot() }))
		_, m["session.snapshot_bytes"] = allocsPer(20, func() { t.sess.Snapshot() })
		m["overlay.clone_us"] = median(timeUS(20, func() { sc.Overlay.Clone() }))
	}
	var genErr error
	m["scenario.generate_us"] = median(timeUS(3, func() { _, genErr = p.scenario() }))
	return genErr
}

// dominance lists, per workload, the shares that show a layer owns the
// workload or is minor on it. printDominance prints them beside their limits;
// they are the README's predictions, checked on every traced run.
var dominance = []struct {
	workload, what string
	share          func(m map[string]float64) float64
	min, max       float64
}{
	{"solve-hot", "reduce.solve_us / daemon.handle_us", func(m map[string]float64) float64 {
		return ratio(m["reduce.solve_us"], m["daemon.handle_us"])
	}, 0.60, 1},
	{"solve-hot", "(echo_parked_rtt + codec + handle) / served_rtt", func(m map[string]float64) float64 {
		return ratio(m["transport.echo_parked_rtt_us"]+m["daemon.codec_us"]+m["daemon.handle_us"], m["daemon.served_rtt_us"])
	}, 0.85, 1.15},
	{"solve-hot", "qos.rows_computed_per_op", func(m map[string]float64) float64 { return m["qos.rows_computed_per_op"] }, 0, 0},
	{"solve-hot", "trace.overhead_share", func(m map[string]float64) float64 { return m["trace.overhead_share"] }, -1, 0.05},
	{"wire-min", "reduce.solve_us / daemon.served_rtt_us", func(m map[string]float64) float64 {
		return ratio(m["reduce.solve_us"], m["daemon.served_rtt_us"])
	}, 0, 0.35},
	{"wire-min", "(echo_rtt + wire) / served_rtt", func(m map[string]float64) float64 {
		return ratio(m["transport.echo_rtt_us"]+m["daemon.wire_us"], m["daemon.served_rtt_us"])
	}, 0.50, 1},
	{"admit-mix", "abstract.build_full_us / provision.admit_us", func(m map[string]float64) float64 {
		return ratio(m["abstract.build_full_us"], m["provision.admit_us"])
	}, 0.40, 1},
	{"lazy-large", "qos.rows_computed_per_op x qos.row_us / sflowd.cpu_us_per_op", func(m map[string]float64) float64 {
		return ratio(m["qos.rows_computed_per_op"]*m["qos.row_us"], m["sflowd.cpu_us_per_op"])
	}, 0.60, 1.2},
}
