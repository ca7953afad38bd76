// Package daemon implements sflowd's serving core: a long-lived server that
// owns one overlay and answers Solve/Repair/mutation RPCs from many
// concurrent clients.
//
// Reads never lock. The server keeps the overlay and its all-pairs
// shortest-widest table in immutable epochs: a solve handler loads the
// current epoch through one atomic pointer read, pins it with an atomic
// reader count, and routes entirely against that frozen state — no mutex
// appears anywhere on the path (metrics handles are atomics, the abstract
// build is allocation-plus-arithmetic). Writes are serialized through a
// single writer goroutine that batches queued mutations into one
// session.Session pass, takes a session.Snapshot, and publishes it as the
// next epoch with one atomic store. Old epochs are retired — dropped from
// the tracked list and counted — once their reader count drains to zero;
// in-flight readers keep answering from the epoch they pinned. See DESIGN.md,
// "Serving architecture".
package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sflow/internal/abstract"
	"sflow/internal/core"
	"sflow/internal/flow"
	"sflow/internal/metrics"
	"sflow/internal/overlay"
	"sflow/internal/provision"
	"sflow/internal/qos"
	"sflow/internal/reopt"
	"sflow/internal/require"
	"sflow/internal/session"
	"sflow/internal/solve"
	"sflow/internal/transport"
)

// epoch is one immutable publication: a frozen overlay plus the matching
// all-pairs table. readers counts the solve/info handlers currently routing
// against it; the writer retires an epoch only after readers drains to zero.
type epoch struct {
	id uint64
	ov *overlay.Overlay
	// ap is the epoch's shortest-widest table: a pinned *qos.AllPairs
	// snapshot, whose still-missing rows in lazy mode compute in each
	// solve's batch fill or on first read (single-flight across the epoch's
	// concurrent readers) from the freeze it shares with the session —
	// immutable either way. The session takes the rows back at its next
	// mutation, so the next epoch starts with them.
	ap      qos.Table
	readers atomic.Int64
}

// Routing is the routing configuration a Server hands whole to every table
// it builds: the serving session (and so every published epoch) and the
// reoptimizer's mirror session. Lazy serves demand-driven: no all-pairs
// computation at boot, rows materialize the first time a solve reads them,
// churn evicts instead of recomputing, and served answers are byte-identical
// to eager mode. MaxRows bounds each lazy table's resident rows. Metrics
// also receives the server's counters and latency histograms, and is the
// default registry of the admission side.
type Routing = qos.Options

// Options tunes a Server. The zero value is ready to use.
type Options struct {
	// Routing is embedded, so opts.Lazy, opts.MaxRows, opts.Workers and
	// opts.Metrics select its fields.
	Routing
	// PublishHook, when non-nil, runs on the writer goroutine with every
	// snapshot immediately before it becomes visible to readers. Tests use
	// it to record the exact state each epoch was published with.
	PublishHook func(*session.Snapshot)
	// Admission tunes the server's multi-tenant capacity allocator
	// (priority classes, quotas, preemption, instance capacity). The
	// allocator accounts against a private residual copy of the boot
	// overlay: admissions reserve capacity from the boot-time substrate,
	// independent of later epoch mutations, so admission decisions stay
	// replayable from the recorded log alone. Admissions read the
	// allocator's incrementally maintained residual table
	// (provision.Allocator.Placement): the first admit builds it, and each
	// later one recomputes only the rows the reservations and releases
	// since could have changed (alloc_table_rows_recomputed_total and
	// alloc_table_rows_kept_total count them). The allocator, its residual,
	// the link ledger and the reoptimizer's planner are built together by
	// the first admission-side request (admit, release, tenants, links, a
	// reoptimizer step or Allocator), so a server that never admits never
	// builds any of them and registers no alloc_* or reopt_* metric.
	// Admission.Metrics defaults to Routing.Metrics.
	Admission provision.AllocatorOptions
	// Reopt configures the congestion-driven reoptimizer. The link-load
	// ledger behind the `links` RPC is built with the allocator, whatever
	// these say; the background migration loop runs only when
	// Reopt.Enabled is set.
	Reopt ReoptOptions
}

// ReoptOptions tunes the server's congestion-driven reoptimizer.
type ReoptOptions struct {
	// Enabled starts the background reoptimizer loop: every Interval the
	// planner feeds the link ledger to the hysteresis detector and migrates
	// tenants off sustained-hot links (no-regression gated; see
	// internal/reopt).
	Enabled bool
	// Detector configures the hysteresis congestion detector (see
	// reopt.DetectorConfig for defaults).
	Detector reopt.DetectorConfig
	// Interval is the planner's step period. <=0 defaults to 1s.
	Interval time.Duration
	// MaxMovesPerLink caps migrations per hot link per step (default 8).
	MaxMovesPerLink int
}

// writerCmd is one queued write-side request and its reply slot.
type writerCmd struct {
	req   *Request
	reply chan *Response
}

// Server owns one overlay behind an epoch-published session.
type Server struct {
	sess *session.Session // owned by the writer goroutine after New
	cur  atomic.Pointer[epoch]
	hook func(*session.Snapshot)

	// boot is the boot epoch's overlay, an immutable copy-on-write clone of
	// the caller's: the one substrate the admission side is built from. It
	// shares every map and list that later epochs have not rewritten, so
	// keeping it alive costs only what the mutations since boot changed.
	// opts keeps what that build needs.
	boot *overlay.Overlay
	opts Options

	// admOnce guards adm: the admission side, built by the first request
	// that needs it (see admission), or marked never-built by Close.
	admOnce   sync.Once
	adm       *admissionState
	reoptDone chan struct{}

	mutCh chan writerCmd
	stop  chan struct{}
	done  chan struct{}

	rpc    *transport.RPCServer
	closed atomic.Bool

	// retired epochs not yet drained of readers; writer-goroutine-owned.
	retired []*epoch

	// Pre-resolved metric handles: updates on the read path are pure
	// atomics (resolving a name takes the registry lock, so it happens
	// once, here). All are nil-safe no-ops without a registry.
	solves       *metrics.Counter
	mutations    *metrics.Counter
	repairs      *metrics.Counter
	admits       *metrics.Counter
	releases     *metrics.Counter
	published    *metrics.Counter
	retiredTotal *metrics.Counter
	solveUS      *metrics.Histogram
	admitUS      *metrics.Histogram
	publishUS    *metrics.Histogram
}

// admissionState is the server's admission side: the multi-tenant capacity
// allocator, the link ledger observing it and the reoptimizer's planner, all
// over the boot substrate.
type admissionState struct {
	// alloc serializes its own operations, so admit/release/tenants
	// handlers run on RPC goroutines without involving the epoch writer.
	alloc *provision.Allocator
	// ledger folds the allocator's committed transitions into per-link
	// loads (it backs the `links` RPC); planner is the congestion-driven
	// migrator, stepped only by the background loop
	// (Options.Reopt.Enabled) or ReoptimizeOnce.
	ledger  *reopt.Ledger
	planner *reopt.Planner
}

// ErrClosed is the error an admission-side call made after Close gets.
var ErrClosed = errors.New("daemon: shutting down")

// New builds a server over a private clone of ov, publishes the initial
// epoch and starts the writer goroutine. It builds only the serving state;
// the admission side waits for its first request (see Options.Admission).
// Call Serve to accept clients and Close to shut down.
func New(ov *overlay.Overlay, opts Options) *Server {
	s := &Server{
		sess:      session.New(ov, opts.Routing),
		hook:      opts.PublishHook,
		opts:      opts,
		reoptDone: make(chan struct{}),
		mutCh:     make(chan writerCmd, 256),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	if reg := opts.Metrics; reg != nil {
		s.solves = reg.Counter("daemon_solves_total")
		s.mutations = reg.Counter("daemon_mutations_total")
		s.repairs = reg.Counter("daemon_repairs_total")
		s.admits = reg.Counter("daemon_admits_total")
		s.releases = reg.Counter("daemon_releases_total")
		s.published = reg.Counter("daemon_epochs_published_total")
		s.retiredTotal = reg.Counter("daemon_epochs_retired_total")
		s.solveUS = reg.Histogram("daemon_solve_us",
			metrics.ExponentialBounds(10, 10, 6), metrics.Volatile())
		s.admitUS = reg.Histogram("daemon_admit_us",
			metrics.ExponentialBounds(10, 10, 6), metrics.Volatile())
		s.publishUS = reg.Histogram("daemon_publish_us",
			metrics.ExponentialBounds(10, 10, 6), metrics.Volatile())
	}
	boot := s.sess.Snapshot()
	s.boot = boot.Overlay
	s.publish(boot)
	go s.writerLoop()
	if opts.Reopt.Enabled {
		interval := opts.Reopt.Interval
		if interval <= 0 {
			interval = time.Second
		}
		go s.reoptLoop(interval)
	} else {
		close(s.reoptDone)
	}
	return s
}

// admission returns the admission side, building it over the boot substrate
// on first use; concurrent first callers build it once. Once Close has run,
// it returns ErrClosed unless the side was built before.
func (s *Server) admission() (*admissionState, error) {
	s.admOnce.Do(func() { s.adm = newAdmission(s.boot, s.opts) })
	if s.adm == nil {
		return nil, ErrClosed
	}
	return s.adm, nil
}

// newAdmission builds the allocator, the ledger and the planner over boot,
// which stays unchanged for their lifetime: the allocator takes a residual
// clone of it, the ledger and the planner read it directly.
func newAdmission(boot *overlay.Overlay, opts Options) *admissionState {
	aopts := opts.Admission
	if aopts.Metrics == nil {
		aopts.Metrics = opts.Routing.Metrics
	}
	// The link ledger observes every committed allocator transition, so it
	// is installed before the allocator exists. A caller-provided observer
	// still sees everything, after the ledger.
	ledger := reopt.NewLedger(boot, opts.Metrics)
	if prev := aopts.Observer; prev != nil {
		aopts.Observer = fanoutObserver{ledger, prev}
	} else {
		aopts.Observer = ledger
	}
	alloc := provision.NewAllocator(boot, aopts)
	return &admissionState{
		alloc:  alloc,
		ledger: ledger,
		planner: reopt.NewPlanner(alloc, ledger, boot, reopt.PlannerConfig{
			Detector:        opts.Reopt.Detector,
			MaxMovesPerLink: opts.Reopt.MaxMovesPerLink,
			Routing:         opts.Routing,
		}),
	}
}

// fanoutObserver forwards allocator transitions to several observers in
// order.
type fanoutObserver []provision.Observer

func (f fanoutObserver) TenantAdmitted(t *provision.Ticket) {
	for _, o := range f {
		o.TenantAdmitted(t)
	}
}

func (f fanoutObserver) TenantDeparted(t *provision.Ticket, kind provision.EventKind) {
	for _, o := range f {
		o.TenantDeparted(t, kind)
	}
}

func (f fanoutObserver) TenantMigrated(old, fresh *provision.Ticket) {
	for _, o := range f {
		o.TenantMigrated(old, fresh)
	}
}

// reoptLoop is the background reoptimizer: one planner step per tick. The
// planner serializes its migrations through the allocator's writer loop, so
// the only concurrency here is with admit/release RPC handlers — exactly the
// traffic the planner is built to run against.
func (s *Server) reoptLoop(interval time.Duration) {
	defer close(s.reoptDone)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			if adm, err := s.admission(); err == nil {
				adm.planner.Step()
			}
		}
	}
}

// ReoptimizeOnce runs one synchronous planner step and returns its report,
// building the admission side first if no request has yet. It is the
// test/CLI entry point; the background loop (Options.Reopt.Enabled) calls the
// same Step. Do not call concurrently with a running background loop. After
// Close on a server that never built its admission side it returns an empty
// report.
func (s *Server) ReoptimizeOnce() reopt.StepReport {
	adm, err := s.admission()
	if err != nil {
		return reopt.StepReport{}
	}
	return adm.planner.Step()
}

// Serve starts answering RPCs on addr ("127.0.0.1:0" picks a free port; read
// it back with Addr).
func (s *Server) Serve(addr string) error {
	rpc, err := transport.NewRPCServer(addr, serverCodec{}, s.Handle)
	if err != nil {
		return err
	}
	s.rpc = rpc
	return nil
}

// Addr returns the served address. Panics if Serve was not called.
func (s *Server) Addr() string { return s.rpc.Addr() }

// Close drains client connections, then stops the writer goroutine and, if
// it was built, the allocator. Safe to call more than once. The order
// matters: the RPC server is closed first so every in-flight handler
// (possibly parked on the writer queue) completes while the writer is still
// alive. An admission side never built by then never will be: later
// admission-side calls get ErrClosed.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	if s.rpc != nil {
		s.rpc.Close()
	}
	close(s.stop)
	<-s.done
	// The reoptimizer stops before the allocator: a planner step mid-flight
	// still needs the allocator's writer loop for its migrations.
	<-s.reoptDone
	// The allocator closes after the RPC server: no admit/release handler
	// can still be running. Running the once here waits out a build in
	// flight, or settles that none will happen.
	s.admOnce.Do(func() {})
	if s.adm != nil {
		s.adm.alloc.Close()
	}
	// Final retirement sweep: with no handlers left every tracked epoch has
	// drained.
	s.sweepRetired()
}

// Allocator exposes the server's capacity allocator, building the admission
// side if no request has yet; tests use it to run the sequential-replay
// oracle against the recorded admission log. After Close it returns the
// allocator if it was built (its operations then report
// provision.ErrClosed), and ErrClosed otherwise.
func (s *Server) Allocator() (*provision.Allocator, error) {
	adm, err := s.admission()
	if err != nil {
		return nil, err
	}
	return adm.alloc, nil
}

// Epoch returns the currently published epoch id.
func (s *Server) Epoch() uint64 { return s.cur.Load().id }

// LiveEpochs returns how many published-then-superseded epochs are still
// tracked because readers had them pinned at the last sweep, plus one for
// the current epoch.
func (s *Server) LiveEpochs() int {
	// Writer-owned slice: only meaningful when the writer is quiescent
	// (tests); the current epoch is always live.
	return len(s.retired) + 1
}

// Handle answers one decoded request. It is the transport.RPCHandler the
// server registers; tests may call it directly. Read operations (solve,
// info) run entirely on the caller's goroutine against the pinned epoch;
// write operations queue to the writer goroutine and block for their reply.
func (s *Server) Handle(req any) (any, error) {
	r, ok := req.(*Request)
	if !ok {
		return nil, fmt.Errorf("daemon: handling %T, want *Request", req)
	}
	switch r.Op {
	case OpSolve:
		return s.solve(r), nil
	case OpInfo:
		return s.info(), nil
	case OpAdmit:
		return s.admit(r), nil
	case OpRelease:
		return s.release(r), nil
	case OpTenants:
		return s.tenants(), nil
	case OpLinks:
		return s.links(), nil
	case OpMutate, OpRepair, OpStats:
		return s.submit(r), nil
	default:
		return &Response{Err: fmt.Sprintf("daemon: unknown op %q", r.Op)}, nil
	}
}

// --- read path -------------------------------------------------------------

// pin loads the current epoch and registers as a reader. The matching
// unpin MUST run on the same epoch. Both are single atomic operations.
func (s *Server) pin() *epoch {
	e := s.cur.Load()
	e.readers.Add(1)
	return e
}

func unpin(e *epoch) { e.readers.Add(-1) }

// solve answers OpSolve against the pinned epoch. On an eager epoch
// everything on this path is lock-free: one atomic epoch load, atomic reader
// pin, a pure-computation abstract build and algorithm run, atomic metric
// updates. A lazy epoch first fills the rows the solve reads in one batch,
// under its table's own mutex.
func (s *Server) solve(r *Request) *Response {
	start := time.Now()
	e := s.pin()
	defer unpin(e)
	resp := &Response{Epoch: e.id}

	fn, ok := solve.Lookup(r.Algorithm)
	if !ok {
		resp.Err = fmt.Sprintf("daemon: unknown algorithm %q", r.Algorithm)
		return resp
	}
	if r.Requirement == nil {
		resp.Err = "daemon: solve without a requirement"
		return resp
	}
	sol, err := func() (solve.Solution, error) {
		ag, err := abstract.FromAllPairs(e.ov, r.Requirement, e.ap)
		if err != nil {
			return solve.Solution{}, err
		}
		ag.Prefetch()
		return fn(ag, r.Source)
	}()
	if err != nil {
		resp.Err = err.Error()
		var partial *core.PartialFederationError
		if errors.As(err, &partial) && partial.Flow != nil {
			resp.Partial = true
			if data, merr := partial.Flow.MarshalJSON(); merr == nil {
				resp.Flow = data
			}
		}
	} else {
		data, merr := sol.Flow.MarshalJSON()
		if merr != nil {
			resp.Err = fmt.Sprintf("daemon: encoding flow: %v", merr)
		} else {
			resp.Flow = data
			resp.Metric = &sol.Metric
		}
	}
	s.solves.Inc()
	s.solveUS.Observe(time.Since(start).Microseconds())
	return resp
}

// info answers OpInfo against the pinned epoch.
func (s *Server) info() *Response {
	e := s.pin()
	defer unpin(e)
	resp := &Response{Epoch: e.id, Instances: e.ov.NumInstances()}
	if data, err := json.Marshal(e.ov); err == nil {
		resp.Overlay = data
	} else {
		resp.Err = fmt.Sprintf("daemon: encoding overlay: %v", err)
	}
	return resp
}

// --- admission path --------------------------------------------------------

// admissionPlacement adapts one named solver to the allocator's Place shape.
// The daemon serves the deterministic registry algorithms only ("random"
// included: its rng is re-seeded per call), so every recorded admission log
// replays exactly.
func admissionPlacement(name string) (provision.Place, error) {
	fn, ok := solve.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("daemon: unknown algorithm %q", name)
	}
	return func(ag *abstract.Graph, src int) (*flow.Graph, qos.Metric, error) {
		sol, err := fn(ag, src)
		if err != nil {
			return nil, qos.Unreachable, err
		}
		return sol.Flow, sol.Metric, nil
	}, nil
}

// admissionAlgorithm is one named solver as a provision.Algorithm that
// builds its abstract graph from scratch over whatever overlay it is handed:
// what Replay of a daemon's admission log runs. The server itself admits
// through its allocator's Placement, which reads the allocator's maintained residual
// table instead and answers byte-identically.
func admissionAlgorithm(name string) (provision.Algorithm, error) {
	place, err := admissionPlacement(name)
	if err != nil {
		return nil, err
	}
	return func(ov *overlay.Overlay, req *require.Requirement, src int) (*flow.Graph, qos.Metric, error) {
		ag, err := abstract.Build(ov, req)
		if err != nil {
			return nil, qos.Unreachable, err
		}
		return place(ag, src)
	}, nil
}

// admit answers OpAdmit on the RPC goroutine: the allocator's writer loop is
// the serialization point, no epoch is pinned (admissions account against the
// allocator's residual, not the served epoch).
func (s *Server) admit(r *Request) *Response {
	start := time.Now()
	resp := &Response{Epoch: s.cur.Load().id}
	if r.Requirement == nil {
		resp.Err = "daemon: admit without a requirement"
		return resp
	}
	name := r.Algorithm
	if name == "" {
		name = "heuristic"
	}
	place, err := admissionPlacement(name)
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	adm, err := s.admission()
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	tk, err := adm.alloc.Admit(provision.AdmitRequest{
		Req:    r.Requirement,
		Src:    r.Source,
		Demand: r.Demand,
		Class:  r.Class,
		TTL:    time.Duration(r.TTLMS) * time.Millisecond,
		Tag:    name,
		Alg:    adm.alloc.Placement(place),
	})
	if err != nil {
		resp.Err = err.Error()
		var aerr *provision.AdmissionError
		if errors.As(err, &aerr) {
			resp.Reason = string(aerr.Reason)
		}
		return resp
	}
	resp.Ticket = tk.ID
	m := tk.Metric
	resp.Metric = &m
	if data, merr := tk.Flow.MarshalJSON(); merr == nil {
		resp.Flow = data
	} else {
		resp.Err = fmt.Sprintf("daemon: encoding flow: %v", merr)
	}
	s.admits.Inc()
	s.admitUS.Observe(time.Since(start).Microseconds())
	return resp
}

// release answers OpRelease on the RPC goroutine.
func (s *Server) release(r *Request) *Response {
	resp := &Response{Epoch: s.cur.Load().id}
	adm, err := s.admission()
	if err == nil {
		err = adm.alloc.Release(r.Ticket)
	}
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	resp.Ticket = r.Ticket
	s.releases.Inc()
	return resp
}

// tenants answers OpTenants: the admitted set, per-class fairness counters
// and residual utilization, all snapshotted through the allocator's writer
// loop.
func (s *Server) tenants() *Response {
	resp := &Response{Epoch: s.cur.Load().id}
	adm, err := s.admission()
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	resp.Tenants = adm.alloc.Tenants()
	resp.Classes = adm.alloc.ClassCounters()
	resp.Utilization = adm.alloc.Utilization()
	return resp
}

// links answers OpLinks from the ledger on the RPC goroutine. Hot reflects
// the planner's detector state (sustained congestion with hysteresis), not
// the instantaneous threshold, so a spike the detector has not confirmed yet
// reads as Hot=false.
func (s *Server) links() *Response {
	adm, err := s.admission()
	if err != nil {
		return &Response{Epoch: s.cur.Load().id, Err: err.Error()}
	}
	lls := adm.ledger.Links()
	out := make([]LinkStatus, len(lls))
	det := adm.planner.Detector()
	for i, ll := range lls {
		out[i] = LinkStatus{
			From: ll.From, To: ll.To,
			Capacity:    ll.Capacity,
			Load:        ll.Load,
			Utilization: ll.Utilization(),
			Tenants:     ll.Tenants,
			Hot:         det.Hot(reopt.Link{ll.From, ll.To}),
		}
	}
	return &Response{Epoch: s.cur.Load().id, Links: out}
}

// --- write path ------------------------------------------------------------

// submit queues a write-side request to the writer goroutine and blocks for
// the reply. The reply arrives only after the request's effects are
// published, so a client that mutates and then solves on the same connection
// reads its own write.
func (s *Server) submit(r *Request) *Response {
	reply := make(chan *Response, 1)
	select {
	case s.mutCh <- writerCmd{req: r, reply: reply}:
	case <-s.stop:
		return &Response{Err: ErrClosed.Error()}
	}
	select {
	case resp := <-reply:
		return resp
	case <-s.stop:
		return &Response{Err: ErrClosed.Error()}
	}
}

// writerLoop is the single writer: it drains queued commands into a batch,
// applies them to the session in arrival order, publishes one fresh epoch
// for the whole batch, and only then replies.
func (s *Server) writerLoop() {
	defer close(s.done)
	for {
		var first writerCmd
		select {
		case <-s.stop:
			return
		case first = <-s.mutCh:
		}
		batch := []writerCmd{first}
	drain:
		for {
			select {
			case c := <-s.mutCh:
				batch = append(batch, c)
			default:
				break drain
			}
		}

		responses := make([]*Response, len(batch))
		mutated := false
		for i, c := range batch {
			resp, changed := s.applyWriter(c.req)
			responses[i] = resp
			mutated = mutated || changed
		}
		epochID := s.cur.Load().id
		if mutated {
			start := time.Now()
			sn := s.sess.Snapshot()
			s.publish(sn)
			s.publishUS.Observe(time.Since(start).Microseconds())
			epochID = sn.Epoch
		}
		for i, c := range batch {
			responses[i].Epoch = epochID
			c.reply <- responses[i]
		}
	}
}

// applyWriter executes one write-side request on the writer goroutine,
// reporting whether it changed the overlay (and so requires a publication).
func (s *Server) applyWriter(r *Request) (*Response, bool) {
	switch r.Op {
	case OpMutate:
		resp := &Response{}
		changed := false
		for i, m := range r.Mutations {
			if err := s.applyMutation(m); err != nil {
				resp.Err = fmt.Sprintf("daemon: mutation %d (%s): %v", i, m.Kind, err)
				break
			}
			changed = true
			s.mutations.Inc()
		}
		return resp, changed

	case OpRepair:
		resp := &Response{}
		if r.Requirement == nil {
			resp.Err = "daemon: repair without a requirement"
			return resp, false
		}
		perr := &core.PartialFederationError{Unresponsive: append([]int(nil), r.Unresponsive...)}
		res, err := s.sess.RepairPartial(r.Requirement, r.Source, perr, core.Options{})
		s.repairs.Inc()
		if err != nil {
			resp.Err = err.Error()
			// Removals may have landed before the failure; publish anyway.
			return resp, true
		}
		if data, merr := res.Flow.MarshalJSON(); merr == nil {
			resp.Flow = data
		}
		m := res.Metric
		resp.Metric = &m
		resp.Affected = res.Affected
		resp.Moved = res.Moved
		return resp, true

	case OpStats:
		st := s.sess.Stats()
		return &Response{Stats: &st}, false
	}
	return &Response{Err: fmt.Sprintf("daemon: unknown writer op %q", r.Op)}, false
}

// applyMutation maps one wire Mutation onto the session's event methods.
func (s *Server) applyMutation(m Mutation) error {
	switch m.Kind {
	case MutAddInstance:
		return s.sess.AddInstance(m.NID, m.SID, m.Host)
	case MutRemoveInstance:
		return s.sess.RemoveInstance(m.NID)
	case MutAddLink:
		return s.sess.AddLink(m.From, m.To, m.Bandwidth, m.Latency)
	case MutRemoveLink:
		return s.sess.RemoveLink(m.From, m.To)
	case MutGrowBandwidth:
		return s.sess.GrowLinkBandwidth(m.From, m.To, m.Delta)
	case MutReduceBandwidth:
		return s.sess.ReduceLinkBandwidth(m.From, m.To, m.Delta)
	default:
		return fmt.Errorf("unknown mutation kind %q", m.Kind)
	}
}

// publish makes sn the current epoch. Runs on the writer goroutine (and once
// from New before the writer starts). The hook fires before the atomic store
// so no reader can observe an epoch the hook has not recorded.
func (s *Server) publish(sn *session.Snapshot) {
	if s.hook != nil {
		s.hook(sn)
	}
	e := &epoch{id: sn.Epoch, ov: sn.Overlay, ap: sn.AllPairs}
	if prev := s.cur.Swap(e); prev != nil {
		s.retired = append(s.retired, prev)
	}
	s.published.Inc()
	s.sweepRetired()
}

// sweepRetired drops superseded epochs whose reader count has drained. An
// epoch some reader still pins stays tracked and fully usable — readers
// finish on the epoch they loaded, they are never migrated.
func (s *Server) sweepRetired() {
	live := s.retired[:0]
	for _, old := range s.retired {
		if old.readers.Load() == 0 {
			s.retiredTotal.Inc()
			continue
		}
		live = append(live, old)
	}
	// Clear the tail so drained epochs are collectable immediately.
	for i := len(live); i < len(s.retired); i++ {
		s.retired[i] = nil
	}
	s.retired = live
}

// --- client ----------------------------------------------------------------

// Client is one connection to a daemon. Like the underlying RPC client it is
// a closed loop: one goroutine, one outstanding call; open one Client per
// concurrent caller.
type Client struct {
	rpc *transport.RPCClient
}

// Dial connects to a daemon at addr.
func Dial(addr string) (*Client, error) {
	rpc, err := transport.DialRPC(addr, clientCodec{})
	if err != nil {
		return nil, err
	}
	return &Client{rpc: rpc}, nil
}

// Close releases the connection.
func (c *Client) Close() { c.rpc.Close() }

// Do sends one raw request. The error covers transport failures only;
// protocol failures arrive in Response.Err.
func (c *Client) Do(req *Request) (*Response, error) {
	out, err := c.rpc.Call(req)
	if err != nil {
		return nil, err
	}
	resp, ok := out.(*Response)
	if !ok {
		return nil, fmt.Errorf("daemon: response is %T", out)
	}
	return resp, nil
}

// Solve runs the named algorithm for req from the source instance src.
func (c *Client) Solve(algorithm string, req *require.Requirement, src int) (*Response, error) {
	return c.Do(&Request{Op: OpSolve, Algorithm: algorithm, Requirement: req, Source: src})
}

// Mutate applies mutations in order; on the first failure the rest of the
// batch is skipped and Response.Err reports the failing index.
func (c *Client) Mutate(mutations ...Mutation) (*Response, error) {
	return c.Do(&Request{Op: OpMutate, Mutations: mutations})
}

// Repair removes the unresponsive instances and re-federates req around
// them.
func (c *Client) Repair(req *require.Requirement, src int, unresponsive []int) (*Response, error) {
	return c.Do(&Request{Op: OpRepair, Requirement: req, Source: src, Unresponsive: unresponsive})
}

// Info fetches the current epoch and overlay.
func (c *Client) Info() (*Response, error) { return c.Do(&Request{Op: OpInfo}) }

// Admit requests admission of req at demand (Kbit/s) from src, federated by
// the named algorithm ("" defaults to "heuristic") in the given priority
// class. ttlMS > 0 leases the admission for that many milliseconds. On
// rejection Response.Err is set and Response.Reason carries the
// machine-readable cause.
func (c *Client) Admit(algorithm string, req *require.Requirement, src int, demand int64, class int, ttlMS int64) (*Response, error) {
	return c.Do(&Request{Op: OpAdmit, Algorithm: algorithm, Requirement: req,
		Source: src, Demand: demand, Class: class, TTLMS: ttlMS})
}

// Release departs the admitted tenant holding ticket.
func (c *Client) Release(ticket uint64) (*Response, error) {
	return c.Do(&Request{Op: OpRelease, Ticket: ticket})
}

// Tenants fetches the admitted tenants, per-class counters and residual
// utilization.
func (c *Client) Tenants() (*Response, error) { return c.Do(&Request{Op: OpTenants}) }

// Links fetches per-link traffic accounting: capacity, admitted load,
// utilization and the reoptimizer's hot flag for every boot-overlay link.
func (c *Client) Links() (*Response, error) { return c.Do(&Request{Op: OpLinks}) }

// Stats fetches session statistics.
func (c *Client) Stats() (*Response, error) { return c.Do(&Request{Op: OpStats}) }
