// Incremental maintenance of an all-pairs shortest-widest table under graph
// mutations.
//
// The key observation is that shortestWidest(g, s) is a deterministic pure
// function of the out-arc lists it actually reads, and it reads Out(u) only
// for nodes u reachable from s (phase 1 pops exactly the reachable set and
// phase 2 / the fallback walk subsets of it). A mutation that changes Out(u)
// therefore cannot change — not even in tie-breaking — the result of any
// source that could not reach u. Every row records the set its run reached
// (the nodes with a metric), so a mutation asks each current row whether it
// reached u, and that is an exact dirty set: recomputing just those sources
// reproduces the from-scratch table bit for bit, selected paths included.
package qos

import (
	"sort"

	"sflow/internal/csr"
	"sflow/internal/metrics"
)

// Incremental maintains the AllPairs shortest-widest table of a mutable
// graph. The caller owns the graph and reports every mutation through
// OutChanged / NodeAdded / NodeRemoved; Flush (or AllPairs) then recomputes
// only the affected sources. Incremental is not safe for concurrent use —
// the internal recompute fan-out is its only parallelism.
type Incremental struct {
	g       Graph
	workers int
	ins     instr

	ap *AllPairs
	// dirty holds the sources whose cached result may be stale.
	dirty map[int]struct{}

	// frozen is the CSR snapshot the dense recompute kernels run on,
	// re-frozen (array storage reused) at the first flush after any
	// mutation. scratches hold one reusable dense-kernel Scratch per flush
	// worker, so steady-state flush relaxations allocate nothing.
	frozen    *csr.Graph
	stale     bool
	scratches []*Scratch

	// lazy, when non-nil, replaces the eager table: mutation reports forward
	// into it, Flush evicts instead of recomputing, and reads go through
	// Table() / Lazy(). The eager fields above stay nil in lazy mode.
	lazy *LazyAllPairs

	flushes, recomputed, saved *metrics.Counter
}

// NewIncremental computes the initial all-pairs table of g. workers bounds the
// per-source fan-out of the initial computation and of every Flush (<= 0
// means GOMAXPROCS, 1 forces sequential). reg, when non-nil, receives
// qos_incremental_* counters alongside the usual routing instrumentation.
func NewIncremental(g Graph, workers int, reg *metrics.Registry) *Incremental {
	ins := instrFor(reg)
	inc := &Incremental{
		g:       g,
		workers: workers,
		ins:     ins,
		ap:      computeAllPairs(g, workers, false, ins),
		dirty:   make(map[int]struct{}),
		stale:   true,
	}
	if reg != nil {
		inc.flushes = reg.Counter("qos_incremental_flushes_total")
		inc.recomputed = reg.Counter("qos_incremental_recomputed_sources_total")
		inc.saved = reg.Counter("qos_incremental_saved_sources_total")
	}
	return inc
}

// NewIncrementalLazy builds an Incremental in lazy mode: no routing runs up
// front, rows materialize on first read through Table() (or Lazy()), and
// Flush evicts stale rows instead of recomputing them — a source touched by
// churn that no consumer reads never costs a Dijkstra. workers bounds
// Prefetch/Materialize fan-out. The mutation-report contract (OutChanged /
// NodeAdded / NodeRemoved, single writer) is identical to eager mode.
func NewIncrementalLazy(g Graph, workers int, reg *metrics.Registry) *Incremental {
	return NewIncrementalLazyOpts(g, workers, LazyOptions{Metrics: reg})
}

// NewIncrementalLazyOpts is NewIncrementalLazy with the full lazy-table option
// set (notably LazyOptions.MaxRows, the bounded row cache).
func NewIncrementalLazyOpts(g Graph, workers int, opts LazyOptions) *Incremental {
	reg := opts.Metrics
	inc := &Incremental{
		g:       g,
		workers: workers,
		lazy:    NewLazyAllPairsOpts(g, opts),
	}
	if reg != nil {
		inc.flushes = reg.Counter("qos_incremental_flushes_total")
		inc.recomputed = reg.Counter("qos_incremental_recomputed_sources_total")
		inc.saved = reg.Counter("qos_incremental_saved_sources_total")
	}
	return inc
}

// Lazy returns the demand-driven table when the Incremental was built with
// NewIncrementalLazy, nil otherwise.
func (inc *Incremental) Lazy() *LazyAllPairs { return inc.lazy }

// Table returns the read interface of the maintained table without forcing
// materialization: the lazy table in lazy mode (pending invalidation is
// applied on the next read), the flushed eager table otherwise.
func (inc *Incremental) Table() Table {
	if inc.lazy != nil {
		return inc.lazy
	}
	return inc.AllPairs()
}

// dirtyReaders queues every source whose current row was computed by a run
// that read Out(u): the sources that reach u, u itself among them (a row
// reaches its own source).
func (inc *Incremental) dirtyReaders(u int) {
	for src, res := range inc.ap.results {
		if res.Metric(u).Reachable() {
			inc.dirty[src] = struct{}{}
		}
	}
}

// OutChanged records that the out-arcs of u changed (a link out of u was
// added, removed, or re-weighted): every source that could reach u — and
// only those — must recompute.
func (inc *Incremental) OutChanged(u int) {
	if inc.lazy != nil {
		inc.lazy.OutChanged(u)
		return
	}
	inc.stale = true
	inc.dirtyReaders(u)
}

// NodeAdded records that n joined the graph. The new source needs its own
// run; existing sources cannot reach a node that has no in-links yet, and
// the links that follow arrive as OutChanged events.
func (inc *Incremental) NodeAdded(n int) {
	if inc.lazy != nil {
		inc.lazy.NodeAdded(n)
		return
	}
	inc.stale = true
	inc.dirty[n] = struct{}{}
}

// NodeRemoved records that n left the graph along with its incident arcs.
// The caller must additionally report OutChanged for every former in-neighbor
// of n (their out-arc lists shrank). Sources that reached n are dirtied here
// as well, which over-approximates safely even if the caller's OutChanged
// calls already cover them.
func (inc *Incremental) NodeRemoved(n int) {
	if inc.lazy != nil {
		inc.lazy.NodeRemoved(n)
		return
	}
	inc.stale = true
	inc.dirtyReaders(n)
	delete(inc.ap.results, n)
	delete(inc.dirty, n)
}

// Dirty returns the sources currently queued for recomputation (eager mode)
// or eviction (lazy mode), ascending.
func (inc *Incremental) Dirty() []int {
	if inc.lazy != nil {
		return inc.lazy.Dirty()
	}
	out := make([]int, 0, len(inc.dirty))
	for src := range inc.dirty {
		out = append(out, src)
	}
	sort.Ints(out)
	return out
}

// Flush recomputes every dirty source and returns how many were recomputed.
// The maintained table afterwards equals a from-scratch ComputeAllPairs on
// the current graph, byte for byte.
//
// In lazy mode Flush runs no routing at all: it evicts the dirty rows (the
// returned count) and defers recomputation to the next read of each source —
// flush work is pinned to the rows consumers actually touched, never the
// whole dirty set.
func (inc *Incremental) Flush() int {
	if inc.lazy != nil {
		evicted := inc.lazy.Flush()
		if evicted > 0 {
			inc.flushes.Inc()
		}
		return evicted
	}
	if len(inc.dirty) == 0 {
		return 0
	}
	nodes := inc.g.Nodes()
	current := make(map[int]struct{}, len(nodes))
	for _, n := range nodes {
		current[n] = struct{}{}
	}
	srcs := make([]int, 0, len(inc.dirty))
	for src := range inc.dirty {
		if _, ok := current[src]; ok {
			srcs = append(srcs, src)
		} else {
			// A dirty source that left before the flush: drop it.
			delete(inc.ap.results, src)
		}
	}
	sort.Ints(srcs)
	inc.dirty = make(map[int]struct{})

	if len(srcs) > 0 && (inc.frozen == nil || inc.stale) {
		inc.frozen = FreezeGraphInto(inc.frozen, inc.g)
		inc.stale = false
	}
	var fresh []*Result
	fresh, inc.scratches = denseRows(inc.frozen, srcs, inc.workers, inc.scratches, inc.ins)
	for i, src := range srcs {
		inc.ap.results[src] = fresh[i]
	}
	inc.flushes.Inc()
	inc.recomputed.Add(int64(len(srcs)))
	inc.saved.Add(int64(len(nodes) - len(srcs)))
	return len(srcs)
}

// AllPairs flushes pending recomputation and returns the maintained table.
// The returned value is updated in place by later flushes; callers that need
// a stable snapshot must not mutate the graph while holding on to results.
//
// In lazy mode this materializes every row — it defeats the point of
// laziness and exists for equivalence checks; demand-driven consumers should
// use Table() instead.
func (inc *Incremental) AllPairs() *AllPairs {
	if inc.lazy != nil {
		inc.lazy.Flush()
		return inc.lazy.Materialize(inc.workers)
	}
	inc.Flush()
	return inc.ap
}

// Equal reports whether two all-pairs tables are deeply equal: same sources,
// and per source the same reachable set, metrics and selected paths.
func (ap *AllPairs) Equal(o *AllPairs) bool { return TablesEqual(ap, o) }
