// The all-pairs shortest-widest table, maintained under graph mutations.
//
// The paper's baseline starts from the shortest-widest row of every node;
// the federation algorithms on top read rows through the Table interface.
// One type, AllPairs, holds those rows: the node list, one immutable *Result
// per node aligned with a private CSR freeze's dense index, and dirty marks.
// Its fill policy decides only when an owed row is computed:
//
//   - eager: every row at construction, and every dirty row at Flush;
//   - lazy: a row on its first read (single-flight per row, optionally under
//     a MaxRows LRU bound), while Flush evicts dirty rows instead of
//     recomputing them. A row nobody reads never costs a Dijkstra, which is
//     what makes 10k–100k-node overlays interactive.
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
// The kernels run on the private freeze: an eager fill's workers share one
// view derived from it, a lazy fill's pooled scratches derive their own. A
// flush whose batch kept the node set, and whose every changed arc already has a slot in the freeze (a
// saturated arc keeps its slot as a dead arc), patches those slots in place
// and re-derives the widest-first order of the touched rows only; anything
// else re-freezes.
//
// Snapshot copies the row-pointer slice; rows are immutable once published,
// so the two tables share them. A snapshot that still owes rows (lazy mode)
// also shares the freeze to compute them from, and the live table then
// re-freezes into fresh arrays instead of patching the shared ones. An eager
// snapshot is always complete and shares no freeze.
//
// Concurrency: the read methods (Metric, Path, From, Sources, Prefetch) are
// safe for any number of concurrent readers. The mutation methods
// (ArcChanged, NodeAdded, NodeRemoved, Flush, Snapshot) must be serialized
// with each other and with reads of the live table — session.Session's
// one-goroutine contract and the daemon's RCU epochs provide that, and
// concurrent readers only ever touch immutable snapshots.
package qos

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"sflow/internal/csr"
	"sflow/internal/metrics"
)

// Table is the read interface over an all-pairs shortest-widest computation —
// what the abstract-graph builder and the Solve registry actually consume.
// For every row read, an eager and a lazy *AllPairs are byte-identical
// (selected paths and instrumentation included), which the
// scale-equivalence battery pins.
type Table interface {
	// Metric returns the shortest-widest quality from src to dst.
	Metric(src, dst int) Metric
	// Path returns the selected shortest-widest path from src to dst (nil
	// if unreachable). The returned slice is the caller's to keep.
	Path(src, dst int) []int
	// From returns the single-source result rooted at src (nil if src is
	// not a node of the graph).
	From(src int) *Result
	// Sources returns the sources the table covers, ascending.
	Sources() []int
}

var _ Table = (*AllPairs)(nil)

// TablesEqual reports whether two tables answer identically: same sources,
// and per source the same reachable set, metrics and selected paths. It reads
// every row of both tables, computing lazy ones — an equivalence-test
// helper, not a hot-path operation.
func TablesEqual(a, b Table) bool {
	as := a.Sources()
	if !slices.Equal(as, b.Sources()) {
		return false
	}
	for _, src := range as {
		ra, rb := a.From(src), b.From(src)
		if (ra == nil) != (rb == nil) || (ra != nil && !ra.Equal(rb)) {
			return false
		}
	}
	return true
}

// Options configures an AllPairs table. The zero value is an eager,
// uninstrumented table with the default fan-out.
type Options struct {
	// Workers bounds the fan-out of eager fills and of Prefetch: 1 forces
	// sequential runs, <= 0 means sequential under 24 nodes (per-source
	// runs on tiny graphs finish faster than goroutine fan-out costs) and
	// runtime.GOMAXPROCS(0) otherwise. Rows are identical at any count.
	Workers int
	// Lazy computes a row on its first read instead of up front, and makes
	// Flush evict the rows a mutation could move instead of recomputing
	// them.
	Lazy bool
	// MaxRows bounds how many completed rows a lazy table keeps (<= 0
	// means unbounded): beyond it the least recently read row is dropped
	// and recomputes, byte-identically, on its next read. Rows still in
	// flight never count against the bound. Ignored in eager mode.
	MaxRows int
	// Metrics, when non-nil, receives the routing counters, qos_lazy_*
	// counters and resident-row gauges in lazy mode, and qos_incremental_*
	// counters from the first reported mutation on.
	Metrics *metrics.Registry
}

// Stats counts what a table did. Every field is deterministic for a
// deterministic mutation stream and read sequence.
type Stats struct {
	// DirtiedWorsening and DirtiedImprovement count rows queued for
	// recomputation (eager) or eviction (lazy) by the worsening (b2 < b)
	// and the improvement (b2 > b) rule; a row already queued is not
	// counted again.
	DirtiedWorsening, DirtiedImprovement int64
	// RefreezesNodes counts re-freezes forced by a node-set change,
	// RefreezesArc those forced by an arc the freeze had no single slot for.
	// Neither the freeze built at construction nor one forced by a snapshot
	// sharing the freeze is counted.
	RefreezesNodes, RefreezesArc int64
	// Patches counts flushes that brought the freeze up to date by
	// rewriting arc slots in place.
	Patches int64

	// The lazy fill's counts: rows computed on read, reads served by a
	// resident row, reads that waited for another reader's computation of
	// the same row, rows evicted by mutations and rows dropped by the
	// MaxRows bound.
	Computed, Hits, DedupWaits, Evicted, LRUEvicted int64
}

// Re-freeze causes, also the cause label of qos_incremental_refreezes_total.
const (
	causeNodes = "nodes"
	causeArc   = "arc"
)

// parallelAllPairsMin is the node count below which Workers <= 0 stays
// sequential.
const parallelAllPairsMin = 24

// AllPairs is the shortest-widest table of a graph. See the file comment for
// the fill policies, the snapshot rule and the concurrency contract.
type AllPairs struct {
	// g is the live graph the caller mutates and reports on; nil in a
	// snapshot, which can never go stale.
	g       Graph
	lazy    bool
	workers int
	maxRows int
	ins     instr
	m       tableMetrics

	// mu guards rows, flight, the resident counts and the recency list in
	// lazy mode, where reads fill rows. Eager reads take no lock.
	mu sync.Mutex

	// nodes is the node list the rows follow: rows[i] is the row of
	// nodes[i], nil while it is owed, and dirty[i] queues it for the next
	// flush. At every flush the list is the freeze's node order, so i is
	// also the row's dense source index. NodeAdded appends; a flush after
	// any node-set notice reconciles the list with the graph's.
	nodes        []int
	rows         []*Result
	dirty        []bool
	ndirty       int
	nodesChanged bool
	// index maps a node id to its row and declared bounds the rows the
	// freeze covers. The index and nodes[:declared] are replaced on
	// re-freeze, never written, so snapshots share them.
	index    map[int]int32
	declared int

	// frozen is the CSR freeze the kernels run on, read-only while kernels
	// run, and view its derived arc data in eager mode. shared marks the
	// freeze as held by a snapshot that still owes rows. patches lists the arcs reported since
	// the freeze was last brought up to date; refreeze names why the next
	// flush must re-freeze instead of patching ("" when it need not).
	frozen    *csr.Graph
	view      *arcView
	shared    bool
	patches   [][2]int
	slots     []int32 // patch scratch: the slots rewritten
	touched   []int32 // and their rows
	refreeze  string
	srcs      []int32
	scratches []*Scratch
	stats     Stats

	// Lazy fill: flight holds the single-flight latch of each row being
	// computed; resident counts the completed rows and residentBytes sums
	// their Result.Bytes. With MaxRows set, lru tracks the completed rows'
	// recency by source, most recent at lruHead. pool shares kernel scratch
	// between concurrent fills, snapshots included.
	flight                                          map[int32]*lazyRow
	resident                                        int
	residentBytes                                   int64
	lru                                             map[int]*lruNode
	lruHead, lruTail                                *lruNode
	pool                                            *sync.Pool
	computed, hits, dedupWaits, evicted, lruEvicted atomic.Int64
}

// lazyRow is the single-flight latch of one row: the reader that started it
// computes res (published under the table mutex) and closes done; everyone
// else waits on done.
type lazyRow struct {
	done chan struct{}
	res  *Result
}

// lruNode is one completed row's position in the recency list. Nodes live
// outside the rows because a snapshot shares rows with its parent but keeps
// its own recency.
type lruNode struct {
	src        int
	prev, next *lruNode
}

// tableMetrics holds a table's counter handles, copied into its snapshots
// (nil handles are no-op updates). The qos_incremental_* family is resolved
// on the first mutation report, so a table that never changes adds nothing
// to a registry beyond its routing counters.
type tableMetrics struct {
	reg                                                    *metrics.Registry
	mutated                                                bool
	flushes, recomputed, saved                             *metrics.Counter
	dirtiedWorse, dirtiedBetter                            *metrics.Counter
	refreezeNodes, refreezeArc                             *metrics.Counter
	rowsComputed, rowHits, dedups, evictions, lruEvictions *metrics.Counter
	// The resident gauges show the cache of whichever table last gained or
	// lost a row: the pinned epoch serving reads, or the live table right
	// after a flush.
	residentRows, residentSize *metrics.Gauge
}

// New builds the table of g. An eager table computes every row here; a lazy
// one neither routes nor freezes until it is first read, flushed or
// snapshotted.
func New(g Graph, opts Options) *AllPairs {
	t := &AllPairs{
		g:       g,
		lazy:    opts.Lazy,
		workers: opts.Workers,
		ins:     instrFor(opts.Metrics),
		m:       tableMetrics{reg: opts.Metrics},
	}
	if !t.lazy {
		t.view = &arcView{}
		t.start()
		t.srcs = make([]int32, len(t.nodes))
		for i := range t.srcs {
			t.srcs[i] = int32(i)
		}
		t.scratches = denseRows(t.view, t.srcs, t.rows, t.fanout(), nil, t.ins)
		return t
	}
	t.maxRows = opts.MaxRows
	t.flight = make(map[int32]*lazyRow)
	t.pool = &sync.Pool{New: func() any { return NewScratch() }}
	if t.maxRows > 0 {
		t.lru = make(map[int]*lruNode)
	}
	if reg := opts.Metrics; reg != nil {
		t.m.rowsComputed = reg.Counter("qos_lazy_rows_computed_total")
		t.m.rowHits = reg.Counter("qos_lazy_row_hits_total")
		t.m.dedups = reg.Counter("qos_lazy_dedup_waits_total")
		t.m.evictions = reg.Counter("qos_lazy_evicted_rows_total")
		t.m.lruEvictions = reg.Counter("qos_lazy_lru_evicted_rows_total")
		t.m.residentRows = reg.Gauge("qos_lazy_resident_rows", metrics.Volatile())
		t.m.residentSize = reg.Gauge("qos_lazy_resident_bytes", metrics.Volatile())
	}
	return t
}

// ComputeAllPairsWorkers is New(g, Options{Workers: workers}): the eager
// table of g.
func ComputeAllPairsWorkers(g Graph, workers int) *AllPairs {
	return New(g, Options{Workers: workers})
}

// fanout is the worker count of one fill.
func (t *AllPairs) fanout() int {
	switch {
	case t.workers > 0:
		return t.workers
	case len(t.nodes) < parallelAllPairsMin:
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// denseRows computes the row of every src in srcs (dense indexes of the
// view's graph) into rows[src], fanned out over up to workers goroutines with
// one Scratch each. Every worker reads the one view. scratches is the
// caller's reusable supply, returned grown to the worker count.
func denseRows(v *arcView, srcs []int32, rows []*Result, workers int, scratches []*Scratch, ins instr) []*Scratch {
	workers = min(workers, len(srcs))
	for len(scratches) < workers {
		scratches = append(scratches, NewScratch())
	}
	for _, sc := range scratches[:workers] {
		sc.view = v
	}
	fanOut(len(srcs), workers, func(w, i int) {
		rows[srcs[i]] = shortestWidestDense(v.g, srcs[i], scratches[w], ins)
	})
	return scratches
}

// fanOut calls do(w, i) once for every i in [0, n), from workers goroutines
// numbered w, or inline when one worker is enough.
func fanOut(n, workers int, do func(w, i int)) {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			do(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				do(w, i)
			}
		}()
	}
	wg.Wait()
}

// From returns the row of src (nil if src is not a node of the graph). A
// lazy table computes a missing row here, byte-identical to the eager row,
// and applies the live table's pending mutation reports first; an eager
// table answers from its last flush.
func (t *AllPairs) From(src int) *Result {
	if t.lazy {
		return t.fill(src)
	}
	if i, ok := t.index[src]; ok && int(i) < t.declared {
		return t.rows[i]
	}
	return nil
}

// fill is the lazy From.
func (t *AllPairs) fill(src int) *Result {
	t.mu.Lock()
	if t.g != nil {
		t.applyLocked()
	}
	i, ok := t.index[src]
	if !ok || int(i) >= t.declared {
		t.mu.Unlock()
		return nil
	}
	if r := t.rows[i]; r != nil {
		// A hit, and the freshest entry of the recency list.
		t.lruTouchLocked(src)
		t.mu.Unlock()
		t.hits.Add(1)
		t.m.rowHits.Inc()
		return r
	}
	if f, ok := t.flight[i]; ok {
		// res is published under mu before done closes, so the read below
		// is ordered by the close.
		t.mu.Unlock()
		t.dedupWaits.Add(1)
		t.m.dedups.Inc()
		<-f.done
		return f.res
	}
	f := &lazyRow{done: make(chan struct{})}
	t.flight[i] = f
	frozen := t.frozen
	t.mu.Unlock()

	sc := t.pool.Get().(*Scratch)
	res := shortestWidestDense(frozen, i, sc, t.ins)
	t.pool.Put(sc)

	// Accounting, recency and the MaxRows bound move in one critical
	// section, so no reader can observe a row outside the bound.
	t.mu.Lock()
	f.res = res
	delete(t.flight, i)
	t.rows[i] = res
	t.resident++
	t.residentBytes += int64(res.Bytes())
	t.lruTouchLocked(src)
	t.lruEnforceLocked()
	t.publishResidentLocked()
	t.mu.Unlock()
	close(f.done)
	t.computed.Add(1)
	t.m.rowsComputed.Inc()
	return res
}

// Metric returns the shortest-widest quality from src to dst.
func (t *AllPairs) Metric(src, dst int) Metric {
	if r := t.From(src); r != nil {
		return r.Metric(dst)
	}
	return Unreachable
}

// Path returns the selected shortest-widest path from src to dst (nil if
// unreachable). The returned slice is fresh: rows store no paths to alias.
func (t *AllPairs) Path(src, dst int) []int {
	if r := t.From(src); r != nil {
		return r.PathTo(dst)
	}
	return nil
}

// Sources returns every source the table covers — all graph nodes,
// ascending, whether or not their rows are resident.
func (t *AllPairs) Sources() []int {
	if t.lazy {
		t.mu.Lock()
		if t.g != nil {
			t.applyLocked()
		}
		defer t.mu.Unlock()
	}
	return slices.Sorted(slices.Values(t.nodes[:t.declared]))
}

// ComputedRows returns the sources whose rows are resident, ascending.
func (t *AllPairs) ComputedRows() []int {
	t.mu.Lock()
	var out []int
	for _, r := range t.rows {
		if r != nil {
			out = append(out, r.Source)
		}
	}
	t.mu.Unlock()
	slices.Sort(out)
	return out
}

// MaxRows returns the lazy row-cache bound (<= 0 means unbounded).
func (t *AllPairs) MaxRows() int { return t.maxRows }

// Prefetch computes the missing rows of srcs, fanned out over the table's
// workers. It never changes an answer — a row is byte-identical whether
// computed here or on first read — it only moves the cost onto more cores.
func (t *AllPairs) Prefetch(srcs []int) {
	if t.lazy && t.g != nil {
		t.mu.Lock()
		t.applyLocked() // the fan-out is sized by the node list
		t.mu.Unlock()
	}
	fanOut(len(srcs), t.fanout(), func(_, i int) { t.From(srcs[i]) })
}

// Stats returns what the table has done so far.
func (t *AllPairs) Stats() Stats {
	t.mu.Lock()
	st := t.stats
	t.mu.Unlock()
	st.Computed, st.Hits, st.DedupWaits = t.computed.Load(), t.hits.Load(), t.dedupWaits.Load()
	st.Evicted, st.LRUEvicted = t.evicted.Load(), t.lruEvicted.Load()
	return st
}

// reported resolves the qos_incremental_* counters on the first mutation
// report.
func (m *tableMetrics) reported() {
	if m.mutated || m.reg == nil {
		return
	}
	m.mutated = true
	reg := m.reg
	rule := func(r string) metrics.Option { return metrics.WithLabels(metrics.Label{Name: "rule", Value: r}) }
	cause := func(c string) metrics.Option { return metrics.WithLabels(metrics.Label{Name: "cause", Value: c}) }
	m.flushes = reg.Counter("qos_incremental_flushes_total")
	m.recomputed = reg.Counter("qos_incremental_recomputed_sources_total")
	m.saved = reg.Counter("qos_incremental_saved_sources_total")
	m.dirtiedWorse = reg.Counter("qos_incremental_rows_dirtied_total", rule("worsening"))
	m.dirtiedBetter = reg.Counter("qos_incremental_rows_dirtied_total", rule("improvement"))
	m.refreezeNodes = reg.Counter("qos_incremental_refreezes_total", cause(causeNodes))
	m.refreezeArc = reg.Counter("qos_incremental_refreezes_total", cause(causeArc))
}

// ArcChanged records that arc u -> v went from bandwidth b to b2, where 0
// (or less) means the arc is absent: a link added, removed, grown or
// reduced. A latency change is reported as the arc going to 0 and coming
// back. Every resident row the worsening or improvement rule cannot rule out
// is queued for the next flush; rows nobody computed need nothing.
func (t *AllPairs) ArcChanged(u, v int, b, b2 int64) {
	b, b2 = max(b, 0), max(b2, 0)
	if b == b2 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m.reported()
	if t.frozen == nil {
		return // a lazy table not frozen yet holds no row and no freeze
	}
	// A patch list longer than the freeze's arc count stopped being
	// cheaper than a re-freeze.
	if t.refreeze == "" && len(t.patches) >= t.frozen.NumArcs() {
		t.refreeze = causeArc
	}
	if t.refreeze == "" {
		t.patches = append(t.patches, [2]int{u, v})
	}
	// Rows of one freeze share one mapping, so u and v are resolved once
	// per mapping the walk meets.
	ends := arcEnds{u: u, v: v}
	var n int64
	for i, r := range t.rows {
		if r == nil || t.dirty[i] {
			continue
		}
		if iu, iv := ends.of(r); r.canMove(iu, iv, b, b2) {
			t.dirty[i] = true
			n++
		}
	}
	t.ndirty += int(n)
	if b2 < b {
		t.stats.DirtiedWorsening += n
		t.m.dirtiedWorse.Add(n)
	} else {
		t.stats.DirtiedImprovement += n
		t.m.dirtiedBetter.Add(n)
	}
}

// NodeAdded records that n joined the graph: its links arrive as ArcChanged
// reports, and its row is owed (queued in eager mode).
func (t *AllPairs) NodeAdded(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m.reported()
	t.nodesChanged = true
	t.nodes = append(t.nodes, n)
	t.rows = append(t.rows, nil)
	t.dirty = append(t.dirty, !t.lazy)
	if !t.lazy {
		t.ndirty++
	}
}

// NodeRemoved records that n left the graph. The caller reports every arc
// incident to n going to 0 as well: a row that reached n had a tree arc into
// it, which is how such rows are caught. NodeRemoved itself only gives up
// n's own row (eager) or queues it for eviction (lazy).
func (t *AllPairs) NodeRemoved(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m.reported()
	t.nodesChanged = true
	for i := len(t.nodes) - 1; i >= 0; i-- {
		if t.nodes[i] != n || (t.rows[i] == nil && !t.dirty[i]) {
			continue
		}
		if t.lazy {
			if !t.dirty[i] {
				t.dirty[i] = true
				t.ndirty++
			}
			return
		}
		if t.dirty[i] {
			t.ndirty--
		}
		t.rows[i], t.dirty[i] = nil, false
		return
	}
}

// Pending reports whether a Flush would have anything to do: rows queued
// for recomputation or eviction, or a node-set change to reconcile. It
// allocates nothing.
func (t *AllPairs) Pending() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ndirty > 0 || t.nodesChanged
}

// Dirty returns the sources currently queued for recomputation (eager) or
// eviction (lazy), ascending.
func (t *AllPairs) Dirty() []int {
	t.mu.Lock()
	out := make([]int, 0, t.ndirty)
	for i, d := range t.dirty {
		if d {
			out = append(out, t.nodes[i])
		}
	}
	t.mu.Unlock()
	slices.Sort(out)
	return out
}

// Flush brings the table up to date with every reported mutation. An eager
// table recomputes its dirty rows and returns how many it recomputed; it
// then equals a fresh New on the current graph, byte for byte. A lazy table
// runs no routing: it evicts its dirty rows and returns how many it evicted,
// and an evicted row recomputes only if someone reads it again.
func (t *AllPairs) Flush() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.lazy {
		return t.applyLocked()
	}
	if t.nodesChanged {
		t.reconcile()
	}
	if t.ndirty == 0 {
		// Patching is cheap enough to keep up with, and a node-set change
		// moves the index reads go through; an arc re-freeze waits for a
		// row that needs it.
		if t.refreeze != causeArc {
			t.syncFreeze()
		}
		return 0
	}
	t.syncFreeze()
	srcs := t.srcs[:0]
	for i, d := range t.dirty {
		if d {
			srcs = append(srcs, int32(i))
		}
	}
	t.srcs = srcs
	t.scratches = denseRows(t.view, srcs, t.rows, t.fanout(), t.scratches, t.ins)
	for _, i := range srcs {
		t.dirty[i] = false
	}
	t.ndirty = 0
	t.m.flushes.Inc()
	t.m.recomputed.Add(int64(len(srcs)))
	t.m.saved.Add(int64(len(t.nodes) - len(srcs)))
	return len(srcs)
}

// applyLocked is the lazy flush: it evicts the dirty rows, reconciles the
// node list and brings the freeze up to date, and returns how many rows it
// evicted. The caller holds mu.
func (t *AllPairs) applyLocked() int {
	if t.frozen == nil {
		t.start()
		return 0
	}
	evicted := 0
	if t.ndirty > 0 {
		for i, d := range t.dirty {
			if r := t.rows[i]; d && r != nil {
				t.dropLocked(r.Source)
				evicted++
			}
			t.dirty[i] = false
		}
		t.ndirty = 0
		t.evicted.Add(int64(evicted))
		t.m.evictions.Add(int64(evicted))
		t.m.flushes.Inc()
		t.publishResidentLocked()
	}
	if t.nodesChanged {
		t.reconcile()
	}
	t.syncFreeze()
	return evicted
}

// reconcile lines the row list up with the graph's node list after
// node-set notices: rows move to the positions the next freeze gives their
// sources, an eager table queues a node without a row, and a row whose node
// left is dropped. It re-freezes at the next flush when the list differs
// from the freeze's.
func (t *AllPairs) reconcile() {
	t.nodesChanged = false
	nodes := slices.Clone(t.g.Nodes()) // NodeAdded appends to the list
	type slot struct {
		row   *Result
		dirty bool
	}
	have := make(map[int]slot, len(t.nodes))
	for i, n := range t.nodes {
		if t.rows[i] != nil || t.dirty[i] {
			have[n] = slot{t.rows[i], t.dirty[i]}
		}
	}
	rows := make([]*Result, len(nodes))
	dirty := make([]bool, len(nodes))
	t.ndirty = 0
	for i, n := range nodes {
		s, ok := have[n]
		rows[i], dirty[i] = s.row, s.dirty || (!ok && !t.lazy)
		if dirty[i] {
			t.ndirty++
		}
		delete(have, n)
	}
	for n := range have {
		if t.lazy {
			t.dropLocked(n) // left without a NodeRemoved notice
		}
	}
	if !slices.Equal(nodes, t.frozen.IDs[:t.declared]) {
		t.refreeze = causeNodes
	}
	t.nodes, t.rows, t.dirty = nodes, rows, dirty
}

// start takes the graph's node list, every row owed, and freezes it: at New
// in eager mode, at first use in lazy mode, when no row exists yet.
func (t *AllPairs) start() {
	t.nodes = slices.Clone(t.g.Nodes())
	t.rows, t.dirty = make([]*Result, len(t.nodes)), make([]bool, len(t.nodes))
	t.nodesChanged = false
	t.freeze()
}

// freeze re-freezes the graph over the row list's node order, reusing the
// previous freeze's arrays unless a snapshot still routes on them, and
// derives the eager view afresh.
func (t *AllPairs) freeze() {
	if t.shared {
		t.frozen, t.shared = nil, false
	}
	t.frozen = freezeNodes(t.frozen, t.g, t.nodes)
	t.declared = len(t.nodes)
	t.index = t.frozen.IndexMap()
	if t.view != nil {
		t.view.derive(t.frozen)
	}
}

// syncFreeze brings the freeze up to date with the graph: patched in place
// when every reported arc has exactly one slot, the node list held and no
// snapshot shares the freeze; re-frozen otherwise.
func (t *AllPairs) syncFreeze() {
	if t.refreeze == "" && len(t.patches) > 0 {
		switch {
		case t.shared:
			t.freeze() // into fresh arrays: a snapshot routes on these
		case !t.patch():
			t.refreeze = causeArc
		}
	}
	switch t.refreeze {
	case causeNodes:
		t.stats.RefreezesNodes++
		t.m.refreezeNodes.Inc()
	case causeArc:
		t.stats.RefreezesArc++
		t.m.refreezeArc.Inc()
	}
	if t.refreeze != "" {
		t.freeze()
		t.refreeze = ""
	}
	t.patches = t.patches[:0]
}

// patch writes each reported arc's live bandwidth and latency into its slot
// of the freeze and re-derives the touched rows of the eager view (a lazy
// fill's scratches see the freeze's generation move and derive anew). It reports
// false, leaving a freeze only a re-freeze can repair, when an arc has no
// single slot or the graph holds it twice.
func (t *AllPairs) patch() bool {
	fz := t.frozen
	t.slots, t.touched = t.slots[:0], t.touched[:0]
	for _, p := range t.patches {
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
		for _, a := range t.g.Out(p[0]) {
			if a.To == p[1] {
				bw, lat = a.Bandwidth, a.Latency
				seen++
			}
		}
		if seen > 1 {
			return false
		}
		fz.SetArc(e, bw, lat)
		t.slots = append(t.slots, e)
		t.touched = append(t.touched, iu)
	}
	if t.view != nil {
		slices.Sort(t.touched)
		t.view.patch(t.slots, slices.Compact(t.touched))
	}
	t.stats.Patches++
	return true
}

// Snapshot flushes pending reports and returns an immutable copy of the
// table that later mutations cannot disturb. It copies the row-pointer slice
// (rows are immutable once published) and shares the node index. A lazy
// snapshot inherits the MaxRows bound with its own recency state, seeded in
// the parent's order, and computes the rows it still owes from the freeze it
// shares with the parent; its cache then ages independently, and its
// computations still land in the parent's counters. Safe for any number of
// concurrent readers.
func (t *AllPairs) Snapshot() *AllPairs {
	t.Flush()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &AllPairs{
		lazy:     t.lazy,
		workers:  t.workers,
		maxRows:  t.maxRows,
		ins:      t.ins,
		m:        t.m,
		rows:     slices.Clone(t.rows),
		index:    t.index,
		declared: t.declared,
		nodes:    t.nodes[:t.declared],
	}
	if !t.lazy {
		return s
	}
	s.flight = make(map[int32]*lazyRow)
	s.pool = t.pool
	s.resident, s.residentBytes = t.resident, t.residentBytes
	if t.resident < len(t.rows) {
		s.frozen, t.shared = t.frozen, true
	}
	if s.maxRows > 0 {
		s.lru = make(map[int]*lruNode, t.resident)
		// Walk the parent's recency list oldest-first so the snapshot ends
		// up in the same order.
		for n := t.lruTail; n != nil; n = n.prev {
			s.lruTouchLocked(n.src)
		}
	}
	return s
}

// dropLocked forgets src's resident row and its recency state. The caller
// holds mu.
func (t *AllPairs) dropLocked(src int) {
	if n, ok := t.lru[src]; ok {
		t.lruUnlinkLocked(n)
		delete(t.lru, src)
	}
	i, ok := t.index[src]
	if !ok || int(i) >= len(t.rows) || t.rows[i] == nil || t.rows[i].Source != src {
		return
	}
	t.resident--
	t.residentBytes -= int64(t.rows[i].Bytes())
	t.rows[i] = nil
}

// publishResidentLocked shows this table's cache in the resident gauges.
func (t *AllPairs) publishResidentLocked() {
	t.m.residentRows.Set(int64(t.resident))
	t.m.residentSize.Set(t.residentBytes)
}

// lruTouchLocked moves src to the head of the recency list, inserting it if
// absent. No-op when the cache is unbounded. The caller holds mu.
func (t *AllPairs) lruTouchLocked(src int) {
	if t.maxRows <= 0 {
		return
	}
	n, ok := t.lru[src]
	if ok {
		if n == t.lruHead {
			return
		}
		t.lruUnlinkLocked(n)
	} else {
		n = &lruNode{src: src}
		t.lru[src] = n
	}
	n.next = t.lruHead
	if t.lruHead != nil {
		t.lruHead.prev = n
	}
	t.lruHead = n
	if t.lruTail == nil {
		t.lruTail = n
	}
}

// lruUnlinkLocked removes n from the recency list (not from the lru map).
func (t *AllPairs) lruUnlinkLocked(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		t.lruHead = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		t.lruTail = n.prev
	}
	n.prev, n.next = nil, nil
}

// lruEnforceLocked drops least recently read rows until the cache fits
// maxRows again. The caller holds mu.
func (t *AllPairs) lruEnforceLocked() {
	for t.maxRows > 0 && len(t.lru) > t.maxRows {
		t.dropLocked(t.lruTail.src)
		t.lruEvicted.Add(1)
		t.m.lruEvictions.Inc()
	}
}
