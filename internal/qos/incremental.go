// Incremental maintenance of an all-pairs shortest-widest table under graph
// mutations.
//
// Every mutation this module makes changes one arc's bandwidth, with 0
// meaning absent: a link is re-weighted, added or removed, and an instance
// leaving is every incident arc going to 0. The owner reports each one as
// ArcChanged(u, v, b, b2), and each row decides from its own stored widths
// and tree arcs whether that change can move it (Result.canMove: the
// worsening and improvement rules). A row the rules keep is byte-identical to
// a fresh row, selected paths included; checking a batch's changes one after
// another is sound because a kept row equals the fresh row after every step.
//
// The dense kernels run on a private CSR freeze of the graph. A flush whose
// batch kept the node set, and whose every changed arc already has a slot in
// the freeze (a saturated arc keeps its slot as a dead arc), patches those
// slots in place and re-derives the widest-first order of the touched rows
// only; anything else re-freezes.
package qos

import (
	"slices"

	"sflow/internal/csr"
	"sflow/internal/metrics"
)

// IncrementalStats counts what an eager Incremental's invalidation and
// freeze upkeep did. Every field is deterministic for a deterministic
// mutation stream.
type IncrementalStats struct {
	// DirtiedWorsening and DirtiedImprovement count rows queued for
	// recomputation by the worsening (b2 < b) and the improvement (b2 > b)
	// rule; a row already queued is not counted again.
	DirtiedWorsening, DirtiedImprovement int64
	// RefreezesNodes counts re-freezes forced by a node-set change,
	// RefreezesArc those forced by an arc the freeze had no single slot for.
	// The freeze built at construction is not counted.
	RefreezesNodes, RefreezesArc int64
	// Patches counts flushes that brought the freeze up to date by
	// rewriting arc slots in place.
	Patches int64
}

// Re-freeze causes, also the cause label of qos_incremental_refreezes_total.
const (
	causeNodes = "nodes"
	causeArc   = "arc"
)

// Incremental maintains the AllPairs shortest-widest table of a mutable
// graph. The caller owns the graph and reports every mutation through
// ArcChanged / NodeAdded / NodeRemoved; Flush (or AllPairs) then recomputes
// only the affected sources. Incremental is not safe for concurrent use —
// the internal recompute fan-out is its only parallelism.
type Incremental struct {
	g       Graph
	workers int
	ins     instr

	ap *AllPairs
	// nodes is the node list the rows follow: rows[i] is the row of
	// nodes[i] (nil for a node whose row is still owed, or a node that left
	// since the last flush), and dirty[i] marks it for recomputation. At
	// every flush the list is the freeze's node order, so i is also the
	// row's dense source index. NodeAdded appends; a flush after any
	// node-set notice reconciles the list with the graph's.
	nodes        []int
	rows         []*Result
	dirty        []bool
	ndirty       int
	nodesChanged bool

	// frozen is the private CSR freeze the recompute kernels run on and view
	// its derived arc data, shared read-only by every worker's Scratch.
	// patches lists the arcs reported since the freeze was last brought up
	// to date; refreeze names why the next flush must re-freeze instead of
	// patching ("" when it need not).
	frozen    *csr.Graph
	declared  int // nodes[:declared] were the freeze's node list
	view      arcView
	patches   [][2]int
	slots     []int32 // patch scratch: the slots rewritten
	touched   []int32 // and their rows
	refreeze  string
	srcs      []int32
	scratches []*Scratch
	stats     IncrementalStats

	// lazy, when non-nil, replaces the eager table: mutation reports forward
	// into it, Flush evicts instead of recomputing, and reads go through
	// Table() / Lazy(). The eager fields above stay nil in lazy mode.
	lazy *LazyAllPairs

	flushes, recomputed, saved  *metrics.Counter
	dirtiedWorse, dirtiedBetter *metrics.Counter
	refreezeNodes, refreezeArc  *metrics.Counter
}

// counters resolves the qos_incremental_* counters (nil handles, and no-op
// updates, on a nil registry).
func (inc *Incremental) counters(reg *metrics.Registry) {
	rule := func(r string) metrics.Option { return metrics.WithLabels(metrics.Label{Name: "rule", Value: r}) }
	cause := func(c string) metrics.Option { return metrics.WithLabels(metrics.Label{Name: "cause", Value: c}) }
	inc.flushes = reg.Counter("qos_incremental_flushes_total")
	inc.recomputed = reg.Counter("qos_incremental_recomputed_sources_total")
	inc.saved = reg.Counter("qos_incremental_saved_sources_total")
	inc.dirtiedWorse = reg.Counter("qos_incremental_rows_dirtied_total", rule("worsening"))
	inc.dirtiedBetter = reg.Counter("qos_incremental_rows_dirtied_total", rule("improvement"))
	inc.refreezeNodes = reg.Counter("qos_incremental_refreezes_total", cause(causeNodes))
	inc.refreezeArc = reg.Counter("qos_incremental_refreezes_total", cause(causeArc))
}

// NewIncremental computes the initial all-pairs table of g. workers bounds the
// per-source fan-out of the initial computation and of every Flush (<= 0
// means GOMAXPROCS, 1 forces sequential). reg, when non-nil, receives
// qos_incremental_* counters alongside the usual routing instrumentation.
func NewIncremental(g Graph, workers int, reg *metrics.Registry) *Incremental {
	nodes := g.Nodes()
	inc := &Incremental{
		g:       g,
		workers: workers,
		ins:     instrFor(reg),
		nodes:   slices.Clone(nodes),
		dirty:   make([]bool, len(nodes)),
		ap:      &AllPairs{results: make(map[int]*Result, len(nodes))},
	}
	inc.counters(reg)
	inc.freeze()
	inc.srcs = make([]int32, len(nodes))
	for i := range inc.srcs {
		inc.srcs[i] = int32(i)
	}
	inc.rows, inc.scratches = denseRows(&inc.view, inc.srcs, workers, nil, inc.ins)
	for i, n := range inc.nodes {
		inc.ap.results[n] = inc.rows[i]
	}
	return inc
}

// NewIncrementalLazy builds an Incremental in lazy mode: no routing runs up
// front, rows materialize on first read through Table() (or Lazy()), and
// Flush evicts stale rows instead of recomputing them — a source touched by
// churn that no consumer reads never costs a Dijkstra. workers bounds
// Prefetch/Materialize fan-out. The mutation-report contract (ArcChanged /
// NodeAdded / NodeRemoved, single writer) is identical to eager mode.
func NewIncrementalLazy(g Graph, workers int, reg *metrics.Registry) *Incremental {
	return NewIncrementalLazyOpts(g, workers, LazyOptions{Metrics: reg})
}

// NewIncrementalLazyOpts is NewIncrementalLazy with the full lazy-table option
// set (notably LazyOptions.MaxRows, the bounded row cache).
func NewIncrementalLazyOpts(g Graph, workers int, opts LazyOptions) *Incremental {
	inc := &Incremental{
		g:       g,
		workers: workers,
		lazy:    NewLazyAllPairsOpts(g, opts),
	}
	inc.counters(opts.Metrics)
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

// Stats returns the eager table's invalidation and freeze counts so far
// (the zero value in lazy mode, apart from the dirtied rows).
func (inc *Incremental) Stats() IncrementalStats { return inc.stats }

// ArcChanged records that arc u -> v went from bandwidth b to b2, where 0
// (or less) means the arc is absent: a link added, removed, grown or
// reduced. A latency change is reported as the arc going to 0 and coming
// back. Every row the worsening or improvement rule cannot rule out is
// queued for the next flush; the rows are walked as a slice, and u and v are
// resolved once per freeze mapping the rows carry.
func (inc *Incremental) ArcChanged(u, v int, b, b2 int64) {
	b, b2 = max(b, 0), max(b2, 0)
	if b == b2 {
		return
	}
	worse := b2 < b
	var n int64
	if inc.lazy != nil {
		n = inc.lazy.arcChanged(u, v, b, b2)
	} else {
		// A patch list longer than the freeze's arc count stopped being
		// cheaper than a re-freeze.
		if inc.refreeze == "" && len(inc.patches) >= inc.frozen.NumArcs() {
			inc.refreeze = causeArc
		}
		if inc.refreeze == "" {
			inc.patches = append(inc.patches, [2]int{u, v})
		}
		ends := arcEnds{u: u, v: v}
		for i, r := range inc.rows {
			if r == nil || inc.dirty[i] {
				continue
			}
			if iu, iv := ends.of(r); r.canMove(iu, iv, b, b2) {
				inc.dirty[i] = true
				n++
			}
		}
		inc.ndirty += int(n)
	}
	if worse {
		inc.stats.DirtiedWorsening += n
		inc.dirtiedWorse.Add(n)
	} else {
		inc.stats.DirtiedImprovement += n
		inc.dirtiedBetter.Add(n)
	}
}

// NodeAdded records that n joined the graph: the new source needs its own
// run, and its links arrive as ArcChanged reports.
func (inc *Incremental) NodeAdded(n int) {
	if inc.lazy != nil {
		inc.lazy.NodeAdded(n)
		return
	}
	inc.nodesChanged = true
	inc.nodes = append(inc.nodes, n)
	inc.rows = append(inc.rows, nil)
	inc.dirty = append(inc.dirty, true)
	inc.ndirty++
}

// NodeRemoved records that n left the graph. The caller reports every arc
// incident to n going to 0 as well: a row that reached n had a tree arc into
// it, which is how such rows are caught. NodeRemoved itself only drops n's
// own row.
func (inc *Incremental) NodeRemoved(n int) {
	if inc.lazy != nil {
		inc.lazy.NodeRemoved(n)
		return
	}
	inc.nodesChanged = true
	delete(inc.ap.results, n)
	for i := len(inc.nodes) - 1; i >= 0; i-- {
		if inc.nodes[i] == n && (inc.rows[i] != nil || inc.dirty[i]) {
			if inc.dirty[i] {
				inc.ndirty--
			}
			inc.rows[i], inc.dirty[i] = nil, false
			return
		}
	}
}

// Pending reports whether a Flush would have anything to do: rows queued
// for recomputation (eager mode) or eviction (lazy mode). It allocates
// nothing.
func (inc *Incremental) Pending() bool {
	if inc.lazy != nil {
		return inc.lazy.pending()
	}
	return inc.ndirty > 0
}

// Dirty returns the sources currently queued for recomputation (eager mode)
// or eviction (lazy mode), ascending.
func (inc *Incremental) Dirty() []int {
	if inc.lazy != nil {
		return inc.lazy.Dirty()
	}
	out := make([]int, 0, inc.ndirty)
	for i, d := range inc.dirty {
		if d {
			out = append(out, inc.nodes[i])
		}
	}
	slices.Sort(out)
	return out
}

// reconcile lines the row list up with the graph's node list after
// node-set notices: rows move to the positions the next freeze gives their
// sources, a node without a row is queued, and a row whose node left is
// dropped. It re-freezes at the next flush when the list differs from the
// freeze's.
func (inc *Incremental) reconcile() {
	inc.nodesChanged = false
	nodes := slices.Clone(inc.g.Nodes()) // NodeAdded appends to the list
	type slot struct {
		row   *Result
		dirty bool
	}
	have := make(map[int]slot, len(inc.nodes))
	for i, n := range inc.nodes {
		if inc.rows[i] != nil || inc.dirty[i] {
			have[n] = slot{inc.rows[i], inc.dirty[i]}
		}
	}
	rows := make([]*Result, len(nodes))
	dirty := make([]bool, len(nodes))
	inc.ndirty = 0
	for i, n := range nodes {
		s, ok := have[n]
		rows[i], dirty[i] = s.row, s.dirty || !ok
		if dirty[i] {
			inc.ndirty++
		}
		delete(have, n)
	}
	for n := range have {
		delete(inc.ap.results, n) // left without a NodeRemoved notice
	}
	if !slices.Equal(nodes, inc.frozen.IDs[:inc.declared]) {
		inc.refreeze = causeNodes
	}
	inc.nodes, inc.rows, inc.dirty = nodes, rows, dirty
}

// freeze re-freezes the graph over the row list's node order, reusing the
// previous freeze's arrays, and derives the view afresh.
func (inc *Incremental) freeze() {
	inc.frozen = freezeNodes(inc.frozen, inc.g, inc.nodes)
	inc.declared = len(inc.nodes)
	inc.view.derive(inc.frozen)
}

// syncFreeze brings the private freeze up to date with the graph: patched
// in place when every reported arc has exactly one slot and the node list
// held, re-frozen otherwise.
func (inc *Incremental) syncFreeze() {
	if inc.refreeze == "" && len(inc.patches) > 0 && !inc.patch() {
		inc.refreeze = causeArc
	}
	switch inc.refreeze {
	case causeNodes:
		inc.stats.RefreezesNodes++
		inc.refreezeNodes.Inc()
	case causeArc:
		inc.stats.RefreezesArc++
		inc.refreezeArc.Inc()
	}
	if inc.refreeze != "" {
		inc.freeze()
		inc.refreeze = ""
	}
	inc.patches = inc.patches[:0]
}

// patch writes each reported arc's live bandwidth and latency into its slot
// of the freeze and re-derives the touched rows of the view. It reports
// false, leaving a freeze only a re-freeze can repair, when an arc has no
// single slot or the graph holds it twice.
func (inc *Incremental) patch() bool {
	fz := inc.frozen
	inc.slots, inc.touched = inc.slots[:0], inc.touched[:0]
	for _, p := range inc.patches {
		iu, ok1 := fz.Index(p[0])
		iv, ok2 := fz.Index(p[1])
		if !ok1 || !ok2 {
			return false
		}
		e, ok := fz.Slot(iu, iv)
		if !ok {
			return false
		}
		bw, lat, seen := int64(0), fz.Lat[e], 0
		for _, a := range inc.g.Out(p[0]) {
			if a.To == p[1] {
				bw, lat = a.Bandwidth, a.Latency
				seen++
			}
		}
		if seen > 1 {
			return false
		}
		fz.SetArc(e, bw, lat)
		inc.slots = append(inc.slots, e)
		inc.touched = append(inc.touched, iu)
	}
	slices.Sort(inc.touched)
	inc.view.patch(inc.slots, slices.Compact(inc.touched))
	inc.stats.Patches++
	return true
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
	if inc.nodesChanged {
		inc.reconcile()
	}
	if inc.ndirty == 0 {
		// Patching is cheap enough to keep up with; a re-freeze waits for a
		// row that needs it.
		if inc.refreeze == "" {
			inc.syncFreeze()
		}
		return 0
	}
	inc.syncFreeze()
	srcs := inc.srcs[:0]
	for i, d := range inc.dirty {
		if d {
			srcs = append(srcs, int32(i))
		}
	}
	inc.srcs = srcs
	var fresh []*Result
	fresh, inc.scratches = denseRows(&inc.view, srcs, inc.workers, inc.scratches, inc.ins)
	for k, i := range srcs {
		inc.rows[i], inc.dirty[i] = fresh[k], false
		inc.ap.results[inc.nodes[i]] = fresh[k]
	}
	inc.ndirty = 0
	inc.flushes.Inc()
	inc.recomputed.Add(int64(len(srcs)))
	inc.saved.Add(int64(len(inc.nodes) - len(srcs)))
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
