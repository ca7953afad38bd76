// Package core implements sFlow, the paper's contribution: a fully
// distributed algorithm that federates service instances into a service flow
// graph satisfying a DAG-shaped service requirement (Sec 4).
//
// The consumer injects an sfederate message at the source service instance.
// Every instance that receives sfederate:
//
//  1. waits until one message has arrived per upstream service stream (merge
//     synchronisation),
//  2. computes a locally optimal partial service flow graph over its local
//     overlay view (two hops by default) using the baseline algorithm plus
//     the reduction heuristics of Sec 3.4,
//  3. commits the streams to its immediate downstream services, and forwards
//     sfederate — carrying the partial flow graph, the remaining requirement
//     and the pinned instance choices — to the chosen instances.
//
// Splitting nodes decide the instances of downstream *merging* services and
// pin them, so parallel branches converge on the same instance (the paper's
// split-and-merge reduction applied implicitly by the splitter). Merges that
// no common splitter could see are arbitrated through a first-claim
// rendezvous; a branch that loses the race re-computes its local choice with
// the winning instance pinned — the re-computation overhead the paper
// observes in Fig 10(b).
//
// Sink instances report the completed flow graph back to the consumer.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"sflow/internal/abstract"
	"sflow/internal/flow"
	"sflow/internal/linkstate"
	"sflow/internal/metrics"
	"sflow/internal/overlay"
	"sflow/internal/qos"
	"sflow/internal/reduce"
	"sflow/internal/require"
	"sflow/internal/trace"
	"sflow/internal/transport"
)

// userNID is the virtual node representing the service consumer: it injects
// the initial sfederate message and collects sink reports.
const userNID = -1

// ErrStuck is returned when federation cannot complete (for example, an
// immediate downstream service has no instance inside a node's local view).
var ErrStuck = errors.New("core: federation stuck")

// Options tunes the distributed algorithm.
type Options struct {
	// Hops is the local-view radius; the paper assumes every node knows
	// the overlay within two hops (default 2).
	Hops int
	// Concurrent runs the protocol on the goroutine transport instead of
	// the deterministic DES transport.
	Concurrent bool
	// Loopback runs the protocol over real loopback TCP sockets with
	// JSON-framed messages (implies concurrent execution; no virtual
	// clock). Exercises the full serialisation path.
	Loopback bool
	// LinkState builds every node's local view from a scoped link-state
	// exchange (internal/linkstate) instead of reading it off the global
	// overlay — the mechanism the paper's local-knowledge assumption
	// stands on, made explicit.
	LinkState bool
	// DisableReductions is the ablation switch: nodes pick each immediate
	// downstream instance by the widest direct link only, with no
	// lookahead and no fragment solving.
	DisableReductions bool
	// Trace, when non-nil, records the protocol event timeline.
	Trace *trace.Recorder
	// Metrics, when non-nil, receives aggregate protocol instrumentation
	// (messages, wire bytes, recomputations, repairs, ...) across runs.
	// Counter totals are deterministic on the DES transport; wall-clock
	// accumulations are registered volatile.
	Metrics *metrics.Registry
	// Pins forces specific services onto specific instances (SID -> NID).
	// Used by Repair to keep unaffected placements stable; normal
	// federations leave it nil.
	Pins map[int]int
	// Faults, when non-nil, wraps the run's transport in the seeded
	// fault-injecting decorator (message loss, duplication, reordering,
	// node crashes) and implies Reliable. The consumer's virtual node is
	// always crash-exempt.
	Faults *transport.Faults
	// Reliable enables the reliability sublayer — per-message sequence
	// numbers, receiver-side dedup, ack/retransmit with exponential
	// backoff, and a per-federation deadline that degrades an
	// uncompletable run into a *PartialFederationError. Off by default: a
	// clean run is exactly the historical protocol.
	Reliable bool
	// RetryBudget caps the retransmissions per message before its
	// destination is declared unresponsive (default 5).
	RetryBudget int
	// RetryBackoffUS is the first retransmission delay in microseconds
	// (virtual time on the DES transport, wall clock elsewhere); each
	// further attempt doubles it. The default 25000 sits above the round
	// trip of the longest generated overlay links, so a clean DES run
	// never retransmits spuriously, and keeps the default budget's full
	// backoff chain inside the default deadline.
	RetryBackoffUS int64
	// DeadlineUS is the per-federation timeout in microseconds: a
	// reliable run that has not completed by then gives up and returns a
	// *PartialFederationError (default 1_000_000).
	DeadlineUS int64
}

func (o Options) withDefaults() Options {
	if o.Hops == 0 {
		o.Hops = 2
	}
	if o.Faults != nil {
		o.Reliable = true
	}
	if o.RetryBudget == 0 {
		o.RetryBudget = 5
	}
	if o.RetryBackoffUS == 0 {
		o.RetryBackoffUS = 25_000
	}
	if o.DeadlineUS == 0 {
		o.DeadlineUS = 1_000_000
	}
	return o
}

// Stats describes one federation run.
type Stats struct {
	// Messages is the total number of protocol messages delivered
	// (sfederate + sink reports).
	Messages int
	// Recomputations counts local computations repeated because a merge
	// claim was lost to a parallel branch.
	Recomputations int
	// LocalComputations counts local computations, including repeats.
	LocalComputations int
	// NodesInvolved is the number of distinct service instances that
	// processed an sfederate message.
	NodesInvolved int
	// Retries counts protocol messages retransmitted by the reliability
	// sublayer (zero when it is disabled).
	Retries int
	// Dedups counts duplicate deliveries suppressed by the receiver-side
	// sequence-number dedup (zero when the sublayer is disabled).
	Dedups int
	// VirtualTime is the DES virtual time (microseconds) from injection
	// until the last sink report (zero on the goroutine transport).
	VirtualTime int64
	// ComputeTime is the accumulated wall-clock time spent in local
	// computations across all nodes.
	ComputeTime time.Duration
}

// Result is the outcome of a federation.
type Result struct {
	// Flow is the completed service flow graph.
	Flow *flow.Graph
	// Metric is its end-to-end quality.
	Metric qos.Metric
	// Stats describes the protocol run.
	Stats Stats
}

// sfederate is the protocol message of Sec 4. The requirement itself is
// globally known (it is part of the consumer's request); the message carries
// the accumulated partial flow graph and the pinned instance choices.
type sfederate struct {
	partial *flow.Graph
	pins    map[int]int
}

// report is the sink-to-consumer completion message.
type report struct {
	sinkSID int
	partial *flow.Graph
}

// coreInstr caches the metric handles of one federation run. The zero value
// (nil handles) is the uninstrumented fast path: every update below is a
// nil-check no-op.
type coreInstr struct {
	federations    *metrics.Counter
	sfederateSent  *metrics.Counter
	reportsSent    *metrics.Counter
	delivered      *metrics.Counter
	localComputes  *metrics.Counter
	recomputations *metrics.Counter
	attempts       *metrics.Histogram
	computeUS      *metrics.Counter
	retries        *metrics.Counter
	dedups         *metrics.Counter
	unresponsive   *metrics.Counter
	timeouts       *metrics.Counter
	partials       *metrics.Counter
}

// instrFor resolves the protocol counters once per run; reg may be nil. The
// delivered counter is labelled with the transport so runs over DES,
// goroutines and loopback TCP stay distinguishable in one registry.
func instrFor(reg *metrics.Registry, transportName string) coreInstr {
	if reg == nil {
		return coreInstr{}
	}
	return coreInstr{
		federations:    reg.Counter("core_federations_total"),
		sfederateSent:  reg.Counter("core_sfederate_sent_total"),
		reportsSent:    reg.Counter("core_reports_total"),
		delivered:      reg.Counter("core_messages_delivered_total", metrics.WithLabels(metrics.Label{Name: "transport", Value: transportName})),
		localComputes:  reg.Counter("core_local_computations_total"),
		recomputations: reg.Counter("core_recomputations_total"),
		attempts:       reg.Histogram("core_convergence_attempts", []int64{1, 2, 3, 5, 8}),
		computeUS:      reg.Counter("core_compute_us_total", metrics.Volatile()),
		retries:        reg.Counter("core_retries_total"),
		dedups:         reg.Counter("core_dedups_total"),
		unresponsive:   reg.Counter("core_unresponsive_peers_total"),
		timeouts:       reg.Counter("core_federation_timeouts_total"),
		partials:       reg.Counter("core_partial_federations_total"),
	}
}

// Federate runs the distributed sFlow algorithm for req over ov, starting at
// the source service instance src.
func Federate(ov *overlay.Overlay, req *require.Requirement, src int, opts Options) (*Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if got := ov.SIDOf(src); got != req.Source() {
		return nil, fmt.Errorf("core: source instance %d provides service %d, requirement starts at %d",
			src, got, req.Source())
	}
	for sid, nid := range opts.Pins {
		if got := ov.SIDOf(nid); got != sid {
			return nil, fmt.Errorf("core: pin %d for service %d provides service %d", nid, sid, got)
		}
	}
	e := &engine{
		ov:     ov,
		req:    req,
		opts:   opts.withDefaults(),
		claims: make(map[int]int),
		nodes:  make(map[int]*nodeState),
		sinks:  make(map[int]*flow.Graph),
	}
	// Pinned merge services are pre-claimed so no branch can race them.
	for sid, nid := range opts.Pins {
		if req.InDegree(sid) > 1 {
			e.claims[sid] = nid
		}
	}
	if e.opts.LinkState {
		dbs, err := linkstate.Exchange(ov, e.opts.Hops)
		if err != nil {
			return nil, err
		}
		e.views = make(map[int]*overlay.Overlay, len(dbs))
		for nid, db := range dbs {
			view, err := db.View()
			if err != nil {
				return nil, fmt.Errorf("core: link-state view of node %d: %w", nid, err)
			}
			e.views[nid] = view
		}
	}
	switch {
	case e.opts.Loopback:
		e.ins = instrFor(e.opts.Metrics, "tcp")
		ids := append([]int{userNID}, ov.Nodes()...)
		tr, err := transport.NewTCP(ids, e.handle, wireCodec{
			tx: e.opts.Metrics.Counter("core_wire_tx_bytes_total"),
			rx: e.opts.Metrics.Counter("core_wire_rx_bytes_total"),
		})
		if err != nil {
			return nil, err
		}
		e.tr = tr
	case e.opts.Concurrent:
		e.ins = instrFor(e.opts.Metrics, "goroutine")
		ids := append([]int{userNID}, ov.Nodes()...)
		e.tr = transport.NewGoroutine(ids, e.handle)
	default:
		e.ins = instrFor(e.opts.Metrics, "des")
		e.tr = transport.NewDES(e.linkLatency, e.handle)
	}
	if e.opts.Faults != nil {
		cfg := *e.opts.Faults
		// The consumer's virtual node must survive: it injects the
		// request and collects the sink reports.
		cfg.CrashExempt = append(append([]int{}, cfg.CrashExempt...), userNID)
		if cfg.Metrics == nil {
			cfg.Metrics = e.opts.Metrics
		}
		faulty, err := transport.NewFaulty(e.tr, cfg)
		if err != nil {
			if closer, ok := e.tr.(interface{ Close() }); ok {
				closer.Close()
			}
			return nil, err
		}
		e.tr = faulty
	}
	e.ins.federations.Inc()

	if e.opts.Reliable {
		e.rel = relState{
			enabled:      true,
			budget:       e.opts.RetryBudget,
			backoffUS:    e.opts.RetryBackoffUS,
			nextSeq:      make(map[int]uint64),
			seen:         make(map[pkey]bool),
			pending:      make(map[pkey]*pendingMsg),
			unresponsive: make(map[int]bool),
		}
		cancel := e.tr.After(e.opts.DeadlineUS, func() {
			e.mu.Lock()
			expired := !e.rel.done && len(e.sinks) != len(e.req.Sinks())
			var newlyDead []pkey
			if expired {
				// Anything still awaiting an ack at the deadline is as good
				// as unresponsive — the retry chain never completed for it.
				for k := range e.rel.pending {
					if !e.rel.unresponsive[k.dst] {
						e.rel.unresponsive[k.dst] = true
						newlyDead = append(newlyDead, k)
					}
				}
			}
			e.mu.Unlock()
			if expired {
				e.ins.timeouts.Inc()
				e.ins.unresponsive.Add(int64(len(newlyDead)))
				for _, k := range newlyDead {
					e.trace(trace.KindGiveUp, k.src, k.dst, -1, "federation deadline expired")
				}
			}
			e.shutdownReliable()
		})
		e.mu.Lock()
		e.rel.cancelDeadline = cancel
		e.mu.Unlock()
	}

	e.trace(trace.KindSend, userNID, src, req.Source(), "sfederate")
	e.ins.sfederateSent.Inc()
	e.sendProto(userNID, src, sfederate{partial: flow.New(), pins: clonePins(e.opts.Pins)})
	delivered := e.tr.Run()
	e.ins.delivered.Add(int64(delivered))

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return nil, e.err
	}
	if len(e.sinks) != len(req.Sinks()) {
		if e.rel.enabled {
			return nil, e.partialError(delivered)
		}
		return nil, fmt.Errorf("%w: %d of %d sinks reported", ErrStuck, len(e.sinks), len(req.Sinks()))
	}
	final := flow.New()
	for _, sid := range req.Sinks() {
		if err := final.Merge(e.sinks[sid]); err != nil {
			return nil, fmt.Errorf("core: merge sink reports: %w", err)
		}
	}
	if err := final.Validate(req, ov); err != nil {
		return nil, fmt.Errorf("core: final flow graph invalid: %w", err)
	}
	e.stats.Messages = delivered
	e.stats.NodesInvolved = len(e.nodes)
	e.stats.VirtualTime = e.doneAt
	return &Result{Flow: final, Metric: final.Quality(req), Stats: e.stats}, nil
}

// engine is the shared state of one federation run.
type engine struct {
	ov   *overlay.Overlay
	req  *require.Requirement
	opts Options
	ins  coreInstr
	tr   transport.Transport

	views map[int]*overlay.Overlay // link-state views (nil: oracle views)

	mu     sync.Mutex
	claims map[int]int        // merge service SID -> first-claimed NID
	nodes  map[int]*nodeState // per participating instance
	sinks  map[int]*flow.Graph
	doneAt int64
	err    error
	stats  Stats
	rel    relState // reliability sublayer (see reliable.go)
}

// nodeState is the per-instance protocol state.
type nodeState struct {
	nid, sid  int
	expected  int
	arrived   int
	partial   *flow.Graph
	pins      map[int]int
	processed bool
}

// linkLatency is the DES latency function: the overlay link latency between
// the endpoints; consumer injection and sink reports are local (zero).
func (e *engine) linkLatency(from, to int) int64 {
	if from == userNID || to == userNID {
		return 0
	}
	if m, ok := e.ov.LinkMetric(from, to); ok {
		return m.Latency
	}
	// A multi-hop overlay route: use its shortest-widest latency. This
	// only happens for streams expanded through bridging instances.
	return 0
}

// trace records one protocol event when tracing is enabled.
func (e *engine) trace(kind trace.Kind, node, peer, service int, detail string) {
	if e.opts.Trace == nil {
		return
	}
	e.opts.Trace.Add(trace.Event{
		Time: e.tr.Now(), Kind: kind,
		Node: node, Peer: peer, Service: service, Detail: detail,
	})
}

// handle dispatches a delivered message. It is the transport handler; under
// the goroutine transport it runs concurrently for different nodes.
func (e *engine) handle(from, to int, msg any) {
	switch m := msg.(type) {
	case sfederate:
		e.trace(trace.KindDeliver, to, from, -1, "sfederate")
		e.onSfederate(to, m)
	case report:
		e.trace(trace.KindDeliver, to, from, m.sinkSID, "report")
		e.onReport(m)
	case reliable:
		e.onReliable(from, to, m)
	case ack:
		e.onAck(from, to, m)
	default:
		e.fail(fmt.Errorf("core: unknown message %T", msg))
	}
}

func (e *engine) onSfederate(to int, m sfederate) {
	e.mu.Lock()
	if e.err != nil {
		e.mu.Unlock()
		return
	}
	ns, ok := e.nodes[to]
	if !ok {
		sid := e.ov.SIDOf(to)
		expected := e.req.InDegree(sid)
		if expected == 0 {
			expected = 1 // the source's single consumer injection
		}
		ns = &nodeState{nid: to, sid: sid, expected: expected, partial: flow.New(), pins: map[int]int{}}
		e.nodes[to] = ns
	}
	ns.arrived++
	if err := ns.partial.Merge(m.partial); err != nil {
		e.err = fmt.Errorf("core: node %d merging branches: %w", to, err)
		e.mu.Unlock()
		e.shutdownReliable()
		return
	}
	for sid, nid := range m.pins {
		ns.pins[sid] = nid
	}
	if ns.arrived < ns.expected || ns.processed {
		overrun := ns.arrived > ns.expected
		if overrun {
			e.err = fmt.Errorf("core: node %d received %d arrivals, expected %d", to, ns.arrived, ns.expected)
		}
		e.mu.Unlock()
		if overrun {
			e.shutdownReliable()
		}
		return
	}
	ns.processed = true
	e.mu.Unlock()

	e.process(ns)
}

func (e *engine) onReport(m report) {
	e.mu.Lock()
	if e.err != nil {
		e.mu.Unlock()
		return
	}
	if _, dup := e.sinks[m.sinkSID]; dup {
		// The reliability sublayer dedups before dispatch, so a duplicate
		// here is a protocol bug on any transport.
		e.err = fmt.Errorf("core: duplicate report for sink service %d", m.sinkSID)
		e.mu.Unlock()
		e.shutdownReliable()
		return
	}
	e.sinks[m.sinkSID] = m.partial
	if t := e.tr.Now(); t > e.doneAt {
		e.doneAt = t
	}
	complete := len(e.sinks) == len(e.req.Sinks())
	e.mu.Unlock()
	if complete {
		// Every sink has reported: stop retransmission timers and the
		// deadline so the transport can reach quiescence.
		e.shutdownReliable()
	}
}

// process runs the local computation of one node and forwards the results.
func (e *engine) process(ns *nodeState) {
	downstream := e.req.Downstream(ns.sid)
	if len(downstream) == 0 {
		// Sink: report the accumulated flow graph to the consumer.
		e.trace(trace.KindReport, ns.nid, userNID, ns.sid, "")
		e.ins.reportsSent.Inc()
		e.sendProto(ns.nid, userNID, report{sinkSID: ns.sid, partial: ns.partial.Clone()})
		return
	}

	start := time.Now()
	choice, err := e.localCompute(ns)
	elapsed := time.Since(start)
	e.ins.computeUS.Add(elapsed.Microseconds())

	e.mu.Lock()
	e.stats.ComputeTime += elapsed
	if err != nil && e.err == nil {
		e.err = err
	}
	failed := e.err != nil
	e.mu.Unlock()
	if failed {
		e.shutdownReliable()
		return
	}

	for _, d := range downstream {
		edge := choice.edges[d]
		if err := ns.partial.AddEdge(edge); err != nil {
			e.fail(fmt.Errorf("core: node %d commit edge to service %d: %w", ns.nid, d, err))
			return
		}
	}
	for _, d := range downstream {
		to := choice.edges[d].ToNID
		e.trace(trace.KindSend, ns.nid, to, d, "sfederate")
		e.ins.sfederateSent.Inc()
		e.sendProto(ns.nid, to, sfederate{partial: ns.partial.Clone(), pins: clonePins(choice.pins)})
	}
}

// localChoice is the outcome of one node's local computation.
type localChoice struct {
	// edges maps each immediate downstream service to the committed flow
	// edge reaching its chosen instance.
	edges map[int]flow.Edge
	// pins are the instance choices to propagate (received pins plus the
	// merge-service claims this node made or adopted).
	pins map[int]int
}

// localCompute implements steps 2 of the protocol: solve the visible portion
// of the remaining requirement on the local view, arbitrate merge claims,
// and re-compute when a claim was lost.
// viewOf returns the node's local view: from the link-state exchange when
// enabled, otherwise straight off the global overlay (the oracle the two are
// proven equivalent against).
func (e *engine) viewOf(nid int) *overlay.Overlay {
	if e.views != nil {
		return e.views[nid]
	}
	return e.ov.LocalView(nid, e.opts.Hops)
}

func (e *engine) localCompute(ns *nodeState) (*localChoice, error) {
	view := e.viewOf(ns.nid)
	downstream := e.req.Downstream(ns.sid)
	for _, d := range downstream {
		if len(view.InstancesOf(d)) == 0 {
			return nil, fmt.Errorf("%w: node %d sees no instance of immediate downstream service %d",
				ErrStuck, ns.nid, d)
		}
	}

	pins := clonePins(ns.pins)
	excluded := make(map[int]bool) // services truncated from the local horizon
	for attempt := 0; ; attempt++ {
		if attempt > e.req.NumServices()+1 {
			return nil, fmt.Errorf("%w: node %d cannot converge on merge claims", ErrStuck, ns.nid)
		}
		local, err := e.localRequirement(ns, view, pins, excluded)
		if err != nil {
			return nil, err
		}
		assign, edges, err := e.solveLocal(ns, view, local, pins)
		if err != nil {
			return nil, err
		}
		conflicts, invisible := e.arbitrate(local, view, assign, pins)
		if len(conflicts) == 0 && len(invisible) == 0 {
			for sid, nid := range assign {
				if e.req.InDegree(sid) > 1 {
					pins[sid] = nid
				}
			}
			e.mu.Lock()
			e.stats.LocalComputations++
			e.mu.Unlock()
			e.ins.localComputes.Inc()
			e.ins.attempts.Observe(int64(attempt) + 1)
			e.trace(trace.KindCompute, ns.nid, -1, ns.sid,
				fmt.Sprintf("%d downstream streams", len(edges)))
			return &localChoice{edges: edges, pins: pins}, nil
		}
		// Lost one or more claims: pin the winners (or truncate the
		// horizon where the winner is out of sight) and re-compute.
		for sid, nid := range conflicts {
			pins[sid] = nid
		}
		for _, sid := range invisible {
			if containsInt(downstream, sid) {
				return nil, fmt.Errorf("%w: node %d must use instance %d of service %d but cannot see it",
					ErrStuck, ns.nid, e.claimOf(sid), sid)
			}
			excluded[sid] = true
		}
		e.mu.Lock()
		e.stats.Recomputations++
		e.stats.LocalComputations++
		e.mu.Unlock()
		e.ins.recomputations.Inc()
		e.ins.localComputes.Inc()
		e.trace(trace.KindRecompute, ns.nid, -1, ns.sid,
			fmt.Sprintf("%d lost claims", len(conflicts)+len(invisible)))
	}
}

// arbitrate registers this node's choices for merge services in the claim
// registry. It returns the claims that were lost to another branch but whose
// winning instance is visible (conflicts: SID -> winning NID), and the lost
// claims whose winner is outside the local view (invisible SIDs).
func (e *engine) arbitrate(local *require.Requirement, view *overlay.Overlay, assign map[int]int, pins map[int]int) (map[int]int, []int) {
	conflicts := make(map[int]int)
	var invisible []int
	var newClaims [][2]int
	e.mu.Lock()
	for _, sid := range local.Services() {
		if e.req.InDegree(sid) <= 1 {
			continue
		}
		nid, ok := assign[sid]
		if !ok {
			continue
		}
		winner, claimed := e.claims[sid]
		if !claimed {
			e.claims[sid] = nid
			newClaims = append(newClaims, [2]int{sid, nid})
			continue
		}
		if winner == nid {
			continue
		}
		if _, vis := view.Instance(winner); vis {
			conflicts[sid] = winner
		} else {
			invisible = append(invisible, sid)
		}
	}
	e.mu.Unlock()
	for _, c := range newClaims {
		e.trace(trace.KindClaim, c[1], -1, c[0], "merge instance pinned")
	}
	sort.Ints(invisible)
	return conflicts, invisible
}

func (e *engine) claimOf(sid int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.claims[sid]
}

// localRequirement builds the portion of the remaining requirement this node
// can reason about: services within Hops levels downstream of its own
// service that have at least one instance in the local view, minus the
// explicitly excluded ones, restricted to what stays reachable from the
// node's service.
func (e *engine) localRequirement(ns *nodeState, view *overlay.Overlay, pins map[int]int, excluded map[int]bool) (*require.Requirement, error) {
	sub := e.req.SubFrom(ns.sid)
	dag := sub.DAG()

	// Depth of each service below ns.sid in the remaining requirement.
	depth := map[int]int{ns.sid: 0}
	order := sub.TopoOrder()
	for _, sid := range order {
		d, ok := depth[sid]
		if !ok {
			continue
		}
		for _, next := range sub.Downstream(sid) {
			if cur, ok := depth[next]; !ok || d+1 < cur {
				depth[next] = d + 1
			}
		}
	}
	for _, sid := range order {
		if sid == ns.sid {
			continue
		}
		drop := excluded[sid] || depth[sid] > e.opts.Hops || len(view.InstancesOf(sid)) == 0
		if !drop {
			// A pinned service whose pinned instance is out of view
			// cannot be reasoned about locally either.
			if nid, ok := pins[sid]; ok {
				if _, vis := view.Instance(nid); !vis {
					drop = true
				}
			}
		}
		if drop {
			dag.RemoveNode(sid)
		}
	}
	keep := dag.Reachable(ns.sid)
	dag = dag.InducedSubgraph(keep)

	local, err := require.Build(dag.Nodes(), dag.Edges())
	if err != nil {
		return nil, fmt.Errorf("core: node %d local requirement: %w", ns.nid, err)
	}
	for _, d := range e.req.Downstream(ns.sid) {
		if !local.Has(d) {
			return nil, fmt.Errorf("%w: node %d lost immediate downstream service %d from its horizon",
				ErrStuck, ns.nid, d)
		}
	}
	return local, nil
}

// solveLocal computes the node's tentative assignment for the local
// requirement and the committed edges for its immediate downstream services.
func (e *engine) solveLocal(ns *nodeState, view *overlay.Overlay, local *require.Requirement, pins map[int]int) (map[int]int, map[int]flow.Edge, error) {
	downstream := e.req.Downstream(ns.sid)
	if e.opts.DisableReductions {
		return e.solveGreedy(ns, view, pins, downstream)
	}
	ag, err := abstract.BuildWith(view, local, qos.Options{Metrics: e.opts.Metrics})
	if err != nil {
		return nil, nil, fmt.Errorf("core: node %d: %w", ns.nid, err)
	}
	localPins := make(map[int]int)
	for sid, nid := range pins {
		if local.Has(sid) && sid != ns.sid {
			localPins[sid] = nid
		}
	}
	res, err := reduce.Solve(ag, ns.nid, localPins)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: node %d local solve: %v", ErrStuck, ns.nid, err)
	}
	edges := make(map[int]flow.Edge, len(downstream))
	for _, d := range downstream {
		eg, ok := res.Flow.Edge(ns.sid, d)
		if !ok {
			return nil, nil, fmt.Errorf("%w: node %d local solve produced no stream to service %d",
				ErrStuck, ns.nid, d)
		}
		edges[d] = eg
	}
	return res.Flow.Assignment(), edges, nil
}

// solveGreedy is the ablation: pick, per immediate downstream service, the
// instance behind the widest direct link (shortest-widest order), honouring
// pins.
func (e *engine) solveGreedy(ns *nodeState, view *overlay.Overlay, pins map[int]int, downstream []int) (map[int]int, map[int]flow.Edge, error) {
	assign := map[int]int{ns.sid: ns.nid}
	edges := make(map[int]flow.Edge, len(downstream))
	for _, d := range downstream {
		cands := view.InstancesOf(d)
		if nid, ok := pins[d]; ok {
			cands = []int{nid}
		}
		best, bestM := -1, qos.Unreachable
		for _, nid := range cands {
			m, ok := view.LinkMetric(ns.nid, nid)
			if !ok {
				continue
			}
			if best == -1 || m.Better(bestM) {
				best, bestM = nid, m
			}
		}
		if best == -1 {
			// No direct link (a pinned instance may only be
			// reachable through a relay): fall back to the view's
			// shortest-widest route.
			res := qos.ShortestWidestCSR(qos.FreezeGraph(view), ns.nid, nil)
			for _, nid := range cands {
				if m := res.Metric(nid); m.Reachable() && (best == -1 || m.Better(bestM)) {
					best, bestM = nid, m
				}
			}
			if best == -1 {
				return nil, nil, fmt.Errorf("%w: node %d cannot reach any instance of service %d",
					ErrStuck, ns.nid, d)
			}
			edges[d] = flow.Edge{
				FromSID: ns.sid, ToSID: d, FromNID: ns.nid, ToNID: best,
				Path: res.PathTo(best), Metric: bestM,
			}
		} else {
			edges[d] = flow.Edge{
				FromSID: ns.sid, ToSID: d, FromNID: ns.nid, ToNID: best,
				Path: []int{ns.nid, best}, Metric: bestM,
			}
		}
		assign[d] = best
	}
	return assign, edges, nil
}

func (e *engine) fail(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
	e.shutdownReliable()
}

func clonePins(p map[int]int) map[int]int {
	out := make(map[int]int, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
