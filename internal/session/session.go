// Package session implements the incremental federation session behind the
// paper's "agile" claim: a long-lived overlay whose expensive derived state —
// the all-pairs shortest-widest table and the service abstract graphs built
// on it — is maintained under mutation events instead of rebuilt per solve.
//
// Every overlay change (a link re-weighted, added or removed; an instance
// joining or leaving) flows through the session as the bandwidth change of
// each arc it touched, which the qos.AllPairs table checks against every
// row's own widths and tree arcs. A solve after k changed links recomputes
// only the sources whose rows those changes could move, not all of them; on
// single-link churn that is typically a small fraction of the overlay (see
// results/bench-dynamics.txt).
//
// The maintained caches are provably equivalent to from-scratch rebuilds —
// not just metric-equal but byte-identical, selected paths included — which
// the equivalence-oracle tests in this package assert after every event of
// long random mutation traces.
//
// Recomputation runs on qos's dense CSR engine: the session's overlay is
// frozen once per mutated epoch and dirty sources rerun on per-worker
// reusable scratch buffers (see DESIGN.md, "Hot-path engine").
package session

import (
	"fmt"
	"sync/atomic"
	"time"

	"sflow/internal/abstract"
	"sflow/internal/core"
	"sflow/internal/metrics"
	"sflow/internal/overlay"
	"sflow/internal/qos"
	"sflow/internal/require"
)

// Options tunes a session: its table's fan-out, fill policy, row bound and
// instrumentation, passed to qos.New unchanged. The zero value is an eager,
// uninstrumented session. Metrics also receives the session's own counters
// (events by kind) and a volatile flush-latency histogram.
type Options = qos.Options

// Stats accumulates what a session did over its lifetime. All fields are
// deterministic for a deterministic event stream.
type Stats struct {
	// Events counts accepted mutation events.
	Events int64
	// Flushes counts incremental recomputation passes.
	Flushes int64
	// RecomputedSources counts per-source shortest-widest runs the flushes
	// performed.
	RecomputedSources int64
	// SavedSources counts the per-source runs a from-scratch rebuild would
	// have performed at each flush but the incremental maintenance skipped.
	SavedSources int64
	// EvictedRows counts the materialized rows churn invalidated in lazy
	// mode (lazy flushes evict instead of recomputing; the other flush
	// counters above stay zero in lazy mode).
	EvictedRows int64
}

// Session owns a private copy of an overlay and keeps its all-pairs
// shortest-widest table incrementally up to date under mutations.
//
// Concurrency contract: a Session is NOT safe for concurrent use. Every
// method except the read-only accessors Overlay and Stats must be called
// from one goroutine at a time — in a long-lived deployment, dedicate one
// writer goroutine to the session and publish immutable Snapshots to
// concurrent readers (the RCU pattern internal/daemon implements). The
// recompute fan-out bounded by Options.Workers is the session's only internal
// parallelism.
//
// Misuse fails loudly instead of corrupting the maintained table: each
// guarded method sets an atomic in-use flag for its duration and panics with
// an explicit message when it finds the flag already set. The detector is
// best-effort (two calls that do not overlap in time interleave undetected —
// run the race detector to catch those), but an overlapping pair that would
// have silently corrupted the all-pairs cache now crashes with a clear
// diagnosis at the exact call site.
type Session struct {
	ov    *overlay.Overlay
	inc   *qos.AllPairs
	lazy  bool
	stats Stats
	epoch uint64

	// inUse is the concurrent-misuse detector: 0 when idle, 1 while a
	// guarded method runs.
	inUse atomic.Int32

	events  *metrics.Counter
	flushUS *metrics.Histogram
}

// enter flags the session as busy; it panics if another guarded call is
// already running, which can only happen when two goroutines use the session
// concurrently in violation of its contract.
func (s *Session) enter(op string) {
	if !s.inUse.CompareAndSwap(0, 1) {
		panic("session: concurrent " + op + " detected — a Session must be used by one goroutine at a time; " +
			"dedicate a writer goroutine and serve readers from Snapshot (see the Session type documentation)")
	}
}

// exit clears the busy flag set by enter.
func (s *Session) exit() { s.inUse.Store(0) }

// New starts a session over a private clone of ov (later mutations of the
// caller's overlay do not affect the session, and vice versa).
func New(ov *overlay.Overlay, opts Options) *Session {
	own := ov.Clone()
	s := &Session{
		ov:   own,
		inc:  qos.New(own, opts),
		lazy: opts.Lazy,
	}
	if opts.Metrics != nil {
		s.events = opts.Metrics.Counter("session_events_total")
		s.flushUS = opts.Metrics.Histogram("session_flush_us",
			metrics.ExponentialBounds(10, 10, 6), metrics.Volatile())
	}
	return s
}

// Overlay returns the session's overlay. Callers must treat it as read-only:
// mutating it directly (instead of through the session's event methods)
// silently invalidates the maintained caches.
func (s *Session) Overlay() *overlay.Overlay { return s.ov }

// Lazy reports whether the session maintains its table demand-driven.
func (s *Session) Lazy() bool { return s.lazy }

// Stats returns what the session has done so far.
func (s *Session) Stats() Stats { return s.stats }

// event records one accepted mutation.
func (s *Session) event() {
	s.stats.Events++
	s.events.Inc()
}

// AddInstance applies an InstanceJoined event: a new service instance with
// no links yet (links follow as AddLink events).
func (s *Session) AddInstance(nid, sid, host int) error {
	s.enter("AddInstance")
	defer s.exit()
	if err := s.ov.AddInstance(nid, sid, host); err != nil {
		return err
	}
	s.inc.NodeAdded(nid)
	s.event()
	return nil
}

// RemoveInstance applies an InstanceLeft event: the instance and every
// incident service link disappear.
func (s *Session) RemoveInstance(nid int) error {
	s.enter("RemoveInstance")
	defer s.exit()
	return s.removeInstance(nid)
}

// removeInstance is RemoveInstance without the misuse guard, for internal
// reuse from already-guarded paths (RepairPartial's removal callback).
func (s *Session) removeInstance(nid int) error {
	// Capture the incident arcs before the overlay drops them: each one
	// goes to 0.
	outs := append([]qos.Arc(nil), s.ov.Out(nid)...)
	ins := append([]qos.Arc(nil), s.ov.In(nid)...)
	if err := s.ov.RemoveInstance(nid); err != nil {
		return err
	}
	for _, a := range outs {
		s.inc.ArcChanged(nid, a.To, a.Bandwidth, 0)
	}
	for _, a := range ins {
		s.inc.ArcChanged(a.To, nid, a.Bandwidth, 0)
	}
	s.inc.NodeRemoved(nid)
	s.event()
	return nil
}

// AddLink applies a LinkAdded event.
func (s *Session) AddLink(from, to int, bandwidth, latency int64) error {
	s.enter("AddLink")
	defer s.exit()
	if err := s.ov.AddLink(from, to, bandwidth, latency); err != nil {
		return err
	}
	s.inc.ArcChanged(from, to, 0, bandwidth)
	s.event()
	return nil
}

// RemoveLink applies a LinkRemoved event.
func (s *Session) RemoveLink(from, to int) error {
	s.enter("RemoveLink")
	defer s.exit()
	cur, _ := s.ov.LinkMetric(from, to)
	if err := s.ov.RemoveLink(from, to); err != nil {
		return err
	}
	s.inc.ArcChanged(from, to, cur.Bandwidth, 0)
	s.event()
	return nil
}

// GrowLinkBandwidth applies a LinkBandwidthChanged event that releases
// capacity on from -> to.
func (s *Session) GrowLinkBandwidth(from, to int, delta int64) error {
	s.enter("GrowLinkBandwidth")
	defer s.exit()
	cur, _ := s.ov.LinkMetric(from, to)
	if err := s.ov.GrowLinkBandwidth(from, to, delta); err != nil {
		return err
	}
	s.inc.ArcChanged(from, to, cur.Bandwidth, cur.Bandwidth+delta)
	s.event()
	return nil
}

// ReduceLinkBandwidth applies a LinkBandwidthChanged event that reserves
// capacity on from -> to; reducing to zero or below removes the link, as in
// the overlay mutator it wraps.
func (s *Session) ReduceLinkBandwidth(from, to int, delta int64) error {
	s.enter("ReduceLinkBandwidth")
	defer s.exit()
	cur, _ := s.ov.LinkMetric(from, to)
	if err := s.ov.ReduceLinkBandwidth(from, to, delta); err != nil {
		return err
	}
	s.inc.ArcChanged(from, to, cur.Bandwidth, max(cur.Bandwidth-delta, 0))
	s.event()
	return nil
}

// Flush recomputes every source the pending events dirtied and returns how
// many per-source runs that took. A from-scratch rebuild would have run one
// per instance; the difference is the saving the session exists for.
func (s *Session) Flush() int {
	s.enter("Flush")
	defer s.exit()
	return s.flush()
}

// flush is Flush without the misuse guard, for internal reuse.
func (s *Session) flush() int {
	if !s.inc.Pending() {
		return 0
	}
	start := time.Now()
	n := s.inc.Flush()
	s.flushUS.Observe(time.Since(start).Microseconds())
	s.stats.Flushes++
	if s.lazy {
		s.stats.EvictedRows += int64(n)
	} else {
		s.stats.RecomputedSources += int64(n)
		s.stats.SavedSources += int64(s.ov.NumInstances() - n)
	}
	return n
}

// Dirty returns the sources a Flush would currently recompute, ascending.
func (s *Session) Dirty() []int {
	s.enter("Dirty")
	defer s.exit()
	return s.inc.Dirty()
}

// Table flushes pending recomputation and returns the maintained table. It
// answers exactly like a fresh qos.New on the current overlay, byte for
// byte; in lazy mode rows still compute only when read. The returned table
// is the live maintained one — later events move it; use Snapshot for an
// immutable view.
func (s *Session) Table() *qos.AllPairs {
	s.enter("Table")
	defer s.exit()
	s.flush()
	return s.inc
}

// Abstract flushes pending recomputation and returns the service abstract
// graph of req over the session's overlay, backed by the maintained table
// instead of a rebuild; in lazy mode the rows a solve over it reads are
// filled first, in one batch. It fails exactly when abstract.Build would:
// some required service has no instance left.
func (s *Session) Abstract(req *require.Requirement) (*abstract.Graph, error) {
	s.enter("Abstract")
	defer s.exit()
	s.flush()
	ag, err := abstract.FromAllPairs(s.ov, req, s.inc)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	ag.Prefetch()
	return ag, nil
}

// Snapshot is an immutable, internally consistent view of a session at one
// publication point: the overlay and the all-pairs shortest-widest table
// describe exactly the same state, and neither moves when the session applies
// later events. Snapshots are safe to share between any number of concurrent
// readers — they are the publication half of the reader/writer (RCU) split a
// long-lived serving process builds on the session.
type Snapshot struct {
	// Epoch numbers the publication, strictly increasing per session.
	Epoch uint64
	// Overlay is a copy-on-write clone of the session's overlay: it shares
	// every map and list the session has not written since, and the
	// session's later mutations copy what they write, so they never show
	// here. Readers must still treat it as read-only among themselves.
	Overlay *overlay.Overlay
	// AllPairs answers exactly like a fresh qos.New(Overlay, …) for every
	// row read and shares no mutable state with the session's live table: a
	// pinned *qos.AllPairs, which in lazy mode computes still-missing rows
	// on demand from the freeze it shares with the session (safe for
	// concurrent readers either way). The session's next event takes the
	// lazy snapshot's rows back into the live table.
	AllPairs qos.Table
}

// Snapshot flushes pending recomputation and publishes the current state as
// an immutable Snapshot. The overlay is cloned copy-on-write in O(1) and the
// table snapshotted (a copy of its row pointers over immutable per-source
// results), so the cost is O(sources), independent of how much routing state
// the epoch carries. The session's next write to the overlay copies the maps
// and lists it touches; in lazy mode its next flush patches a copy of the
// freeze's arc arrays the snapshot still routes on.
func (s *Session) Snapshot() *Snapshot {
	s.enter("Snapshot")
	defer s.exit()
	s.flush()
	s.epoch++
	return &Snapshot{
		Epoch:    s.epoch,
		Overlay:  s.ov.Clone(),
		AllPairs: s.inc.Snapshot(),
	}
}

// Abstract builds the service abstract graph of req over the snapshot —
// the read-side counterpart of Session.Abstract (a lazy table fills the rows
// a solve reads first, in one batch), safe to call from any number of
// goroutines concurrently.
func (sn *Snapshot) Abstract(req *require.Requirement) (*abstract.Graph, error) {
	ag, err := abstract.FromAllPairs(sn.Overlay, req, sn.AllPairs)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	ag.Prefetch()
	return ag, nil
}

// RepairPartial re-federates after a distributed federation over the
// session's overlay gave up with a *core.PartialFederationError. Unlike the
// stateless core.RepairPartial it does not clone the overlay: the
// unresponsive instances leave the session itself (they really are gone, and
// later solves should see that), and every removal flows through the
// session's event methods so the maintained caches stay exact — the re-solve
// after a repair recomputes only the sources the departures dirtied.
func (s *Session) RepairPartial(req *require.Requirement, src int, perr *core.PartialFederationError, opts core.Options) (*core.RepairResult, error) {
	s.enter("RepairPartial")
	defer s.exit()
	return core.RepairPartialOn(s.ov, s.removeInstance, req, src, perr, opts)
}

// Federate runs the distributed sFlow protocol over the session's overlay.
// The protocol computes from scoped local views, not from the session's
// all-pairs caches, but running it through the session keeps one source of
// truth for the overlay a long-lived deployment is operating on.
func (s *Session) Federate(req *require.Requirement, src int, opts core.Options) (*core.Result, error) {
	s.enter("Federate")
	defer s.exit()
	return core.Federate(s.ov, req, src, opts)
}
