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
//     a MaxRows LRU bound) or in a Prefetch batch, while Flush evicts dirty
//     rows instead of recomputing them. A row nobody reads never costs a
//     Dijkstra, which is what makes 10k–100k-node overlays interactive.
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
// flush whose batch kept the node set, and whose every changed arc already
// has a slot in the freeze (a saturated arc keeps its slot as a dead arc),
// patches those slots in place and re-derives the widest-first order of the
// touched rows only; anything else re-freezes.
//
// Snapshot copies the row-pointer slice; rows are immutable once published,
// so the two tables share them. A snapshot that still owes rows (lazy mode)
// also shares the freeze to compute them from, and the live table's next
// patch then copies the freeze's arc arrays and patches the copy, sharing
// the immutable node mapping; a node-set change re-freezes. An eager
// snapshot is always complete and shares no freeze, and carries the row store
// only: the maintenance state lives behind a pointer only the live table
// allocates, the lazy fill's behind one only a lazy table allocates.
//
// Adoption: a lazy live table remembers the last snapshot it handed out, and
// at its next mutation report, flush or read it first takes over that
// snapshot's resident rows and recency. The snapshot's readers computed them
// from the freeze the two tables share, for the graph as it still is, so
// each is exact, and the report then runs the rules over them like over any
// other resident row. Rows the snapshot completes after that stay in it. So
// the rows an epoch's readers paid for carry into the next epoch, less the
// ones its batch can move.
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
	// The freeze built at construction is not counted.
	RefreezesNodes, RefreezesArc int64
	// Patches counts flushes that brought the freeze up to date by
	// rewriting arc slots, in place or in a copy a snapshot does not share.
	Patches int64

	// The lazy fill's counts: rows computed on read or by Prefetch, reads
	// served by a resident row, reads that waited for another reader's
	// computation of the same row, rows evicted by mutations and rows
	// dropped by the MaxRows bound. Rows a live table adopts from its
	// snapshot count in the snapshot, which computed them.
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
// the fill policies, the snapshot and adoption rules and the concurrency
// contract.
type AllPairs struct {
	// nodes is the node list the rows follow: rows[i] is the row of
	// nodes[i], nil while it is owed. At every flush the list is the
	// freeze's node order, so i is also the row's dense source index.
	// NodeAdded appends; a flush after any node-set notice reconciles the
	// list with the graph's. index maps a node id to its row and declared
	// bounds the rows the freeze covers. The index and nodes[:declared] are
	// replaced on re-freeze, never written, so snapshots share them.
	nodes    []int
	rows     []*Result
	index    map[int]int32
	declared int

	// frozen is the CSR freeze the kernels run on, read-only while kernels
	// run; nil in an eager snapshot, which never computes.
	frozen  *csr.Graph
	workers int
	ins     instr

	// mu guards rows and the lazy state in lazy mode, where reads fill
	// rows, and the maintenance state. Eager reads take no lock.
	mu   sync.Mutex
	lz   *lazyFill // nil in eager mode
	live *upkeep   // nil in a snapshot, which can never go stale
}

// upkeep is what only the live table carries: the graph the caller mutates
// and reports on, the dirty marks and the freeze's upkeep.
type upkeep struct {
	g   Graph
	reg *metrics.Registry
	m   *flushMetrics
	// dirty[i] queues rows[i] for the next flush, and nodesChanged a
	// reconcile. shared marks the freeze as held by a snapshot that still
	// owes rows.
	dirty                []bool
	ndirty               int
	nodesChanged, shared bool
	// view is the freeze's derived arc data in eager mode. patches lists the
	// arcs reported since the freeze was last brought up to date; refreeze
	// names why the next flush must re-freeze instead of patching ("" when
	// it need not).
	view      *arcView
	patches   [][2]int
	slots     []int32 // patch scratch: the slots rewritten
	touched   []int32 // and their rows
	refreeze  string
	srcs      []int32
	scratches []*Scratch
	stats     Stats
}

// lazyFill is what only a lazy table carries, live or snapshot. flight holds
// the single-flight latch of each row being computed; resident counts the
// completed rows and residentBytes sums their Result.Bytes. With MaxRows set,
// lru tracks the completed rows' recency by source, most recent at lruHead.
// pool shares kernel scratch, and view the one derived arc view, between
// concurrent fills, snapshots included.
type lazyFill struct {
	maxRows                                         int
	flight                                          map[int32]*lazyRow
	resident                                        int
	residentBytes                                   int64
	lru                                             map[int]*lruNode
	lruHead, lruTail                                *lruNode
	pool                                            *sync.Pool
	view                                            *sharedView
	m                                               lazyMetrics
	computed, hits, dedupWaits, evicted, lruEvicted atomic.Int64
	// handed is the last snapshot a live table handed out, adopted at the
	// table's next report, flush or read; nil in a snapshot and once
	// adopted.
	handed *AllPairs
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

// flushMetrics holds the live table's qos_incremental_* counter handles (nil
// handles are no-op updates), resolved on the first mutation report, so a
// table that never changes adds nothing to a registry beyond its routing
// counters. Until then a table points at unmetered.
type flushMetrics struct {
	flushes, recomputed, saved  *metrics.Counter
	dirtiedWorse, dirtiedBetter *metrics.Counter
	refreezeNodes, refreezeArc  *metrics.Counter
}

// unmetered is the flushMetrics of every table without resolved handles;
// never written.
var unmetered flushMetrics

// lazyMetrics holds a lazy table's qos_lazy_* handles, copied into its
// snapshots. The resident gauges show the cache of whichever table last
// gained or lost a row: the pinned epoch serving reads, or the live table
// right after it adopts or flushes.
type lazyMetrics struct {
	rowsComputed, rowHits, dedups, evictions, lruEvictions *metrics.Counter
	residentRows, residentSize                             *metrics.Gauge
}

// New builds the table of g. An eager table computes every row here; a lazy
// one neither routes nor freezes until it is first read, flushed or
// snapshotted.
func New(g Graph, opts Options) *AllPairs {
	// A live table and its upkeep are one allocation.
	live := &struct {
		t  AllPairs
		up upkeep
	}{up: upkeep{g: g, reg: opts.Metrics, m: &unmetered}}
	t := &live.t
	t.workers, t.ins, t.live = opts.Workers, instrFor(opts.Metrics), &live.up
	if !opts.Lazy {
		u := t.live
		u.view = &arcView{}
		t.start()
		u.scratches = denseRows(u.view, nil, t.rows, t.fanout(), nil, t.ins)
		return t
	}
	lz := &lazyFill{
		maxRows: opts.MaxRows,
		flight:  make(map[int32]*lazyRow),
		pool:    &sync.Pool{New: func() any { return NewScratch() }},
		view:    &sharedView{},
	}
	if lz.maxRows > 0 {
		lz.lru = make(map[int]*lruNode)
	}
	if reg := opts.Metrics; reg != nil {
		lz.m = lazyMetrics{
			rowsComputed: reg.Counter("qos_lazy_rows_computed_total"),
			rowHits:      reg.Counter("qos_lazy_row_hits_total"),
			dedups:       reg.Counter("qos_lazy_dedup_waits_total"),
			evictions:    reg.Counter("qos_lazy_evicted_rows_total"),
			lruEvictions: reg.Counter("qos_lazy_lru_evicted_rows_total"),
			residentRows: reg.Gauge("qos_lazy_resident_rows", metrics.Volatile()),
			residentSize: reg.Gauge("qos_lazy_resident_bytes", metrics.Volatile()),
		}
	}
	t.lz = lz
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
// view's graph; nil means every row) into rows[src], fanned out over up to
// workers goroutines with one Scratch each. Every worker reads the one view.
// scratches is the caller's reusable supply, returned grown to the worker
// count.
func denseRows(v *arcView, srcs []int32, rows []*Result, workers int, scratches []*Scratch, ins instr) []*Scratch {
	n := len(srcs)
	if srcs == nil {
		n = len(rows)
	}
	workers = min(workers, n)
	for len(scratches) < workers {
		scratches = append(scratches, NewScratch())
	}
	for _, sc := range scratches[:workers] {
		sc.view = v
	}
	fanOut(n, workers, func(w, i int) {
		src := int32(i)
		if srcs != nil {
			src = srcs[i]
		}
		rows[src] = shortestWidestDense(v.g, src, scratches[w], ins)
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

// Lazy reports whether the table fills its rows lazily.
func (t *AllPairs) Lazy() bool { return t.lz != nil }

// From returns the row of src (nil if src is not a node of the graph). A
// lazy table computes a missing row here, byte-identical to the eager row,
// and applies the live table's pending mutation reports first; an eager
// table answers from its last flush.
func (t *AllPairs) From(src int) *Result {
	if t.lz != nil {
		return t.fill(src)
	}
	if i, ok := t.index[src]; ok && int(i) < t.declared {
		return t.rows[i]
	}
	return nil
}

// fill is the lazy From.
func (t *AllPairs) fill(src int) *Result {
	lz := t.lz
	t.mu.Lock()
	if t.live != nil {
		t.applyLocked()
	}
	i, ok := t.index[src]
	if !ok || int(i) >= t.declared {
		t.mu.Unlock()
		return nil
	}
	if r := t.rows[i]; r != nil {
		// A hit, and the freshest entry of the recency list.
		lz.touch(src)
		t.mu.Unlock()
		lz.hits.Add(1)
		lz.m.rowHits.Inc()
		return r
	}
	if f, ok := lz.flight[i]; ok {
		// res is published under mu before done closes, so the read below
		// is ordered by the close.
		t.mu.Unlock()
		lz.dedupWaits.Add(1)
		lz.m.dedups.Inc()
		<-f.done
		return f.res
	}
	f := &lazyRow{done: make(chan struct{})}
	lz.flight[i] = f
	frozen := t.frozen
	t.mu.Unlock()

	v := lz.view.acquire(frozen)
	res := lz.compute(frozen, i, v, t.ins)
	lz.view.release(v)

	// Accounting, recency and the MaxRows bound move in one critical
	// section, so no reader can observe a row outside the bound.
	t.mu.Lock()
	t.publishLocked(i, f, res)
	t.lruEnforceLocked()
	t.publishResidentLocked()
	t.mu.Unlock()
	close(f.done)
	lz.computed.Add(1)
	lz.m.rowsComputed.Inc()
	return res
}

// publishLocked makes res, computed under the latch f, row i: resident and
// the most recent entry of the recency list. The caller holds mu, enforces
// the bound and closes f.done after unlocking.
func (t *AllPairs) publishLocked(i int32, f *lazyRow, res *Result) {
	lz := t.lz
	f.res = res
	delete(lz.flight, i)
	t.rows[i] = res
	lz.resident++
	lz.residentBytes += int64(res.Bytes())
	lz.touch(res.Source)
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
	if t.lz != nil {
		t.mu.Lock()
		if t.live != nil {
			t.applyLocked()
		}
		defer t.mu.Unlock()
	}
	return slices.Sorted(slices.Values(t.nodes[:t.declared]))
}

// ComputedRows returns the sources whose rows are resident, ascending. It
// reads the table as it stands: a lazy live table that handed its cache to a
// snapshot lists nothing until it adopts the cache back.
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
func (t *AllPairs) MaxRows() int {
	if t.lz == nil {
		return 0
	}
	return t.lz.maxRows
}

// Prefetch fills the rows of srcs in one deterministic batch, so the reads
// that follow hit. Under one lock, in srcs order, it refreshes the recency
// of the resident rows and claims the missing ones that no other reader is
// computing (a read of those waits for their reader, as it would anyway).
// It computes the claimed rows over the table's Workers fan-out with pooled
// scratches, then under one lock publishes them in srcs order and applies
// the MaxRows bound: no row of the batch is dropped unless concurrent reads
// came between the two locks. It counts no hits, so Stats, the resident
// rows and their recency come out the same at any worker count. A read set
// larger than MaxRows would evict its own rows, so Prefetch leaves it to be
// filled on read. Prefetch never changes an answer — a row is
// byte-identical however it is computed — and does nothing on an eager
// table, whose rows are all present. An all-hit batch allocates nothing.
func (t *AllPairs) Prefetch(srcs []int) {
	lz := t.lz
	if lz == nil || (lz.maxRows > 0 && len(srcs) > lz.maxRows) {
		return
	}
	var claimed []int32
	t.mu.Lock()
	if t.live != nil {
		t.applyLocked()
	}
	for _, src := range srcs {
		i, ok := t.index[src]
		if !ok || int(i) >= t.declared {
			continue
		}
		if t.rows[i] != nil {
			lz.touch(src)
			continue
		}
		if _, busy := lz.flight[i]; !busy {
			lz.flight[i] = &lazyRow{done: make(chan struct{})}
			claimed = append(claimed, i)
		}
	}
	frozen := t.frozen
	t.mu.Unlock()
	if len(claimed) == 0 {
		return
	}

	res := t.computeBatch(frozen, claimed)
	latches := make([]*lazyRow, len(claimed))
	t.mu.Lock()
	for k, i := range claimed {
		latches[k] = lz.flight[i]
		t.publishLocked(i, latches[k], res[k])
	}
	t.lruEnforceLocked()
	t.publishResidentLocked()
	t.mu.Unlock()
	for _, f := range latches {
		close(f.done)
	}
	lz.computed.Add(int64(len(claimed)))
	lz.m.rowsComputed.Add(int64(len(claimed)))
}

// computeBatch computes the rows of claimed (dense indexes of frozen) over
// the table's fan-out, each worker with a pooled scratch, all reading one
// arc view.
func (t *AllPairs) computeBatch(frozen *csr.Graph, claimed []int32) []*Result {
	res := make([]*Result, len(claimed))
	v := t.lz.view.acquire(frozen)
	fanOut(len(claimed), t.fanout(), func(_, k int) {
		res[k] = t.lz.compute(frozen, claimed[k], v, t.ins)
	})
	t.lz.view.release(v)
	return res
}

// compute computes row i of frozen with a pooled scratch, reading v (when
// non-nil) instead of the scratch's own view.
func (lz *lazyFill) compute(frozen *csr.Graph, i int32, v *arcView, ins instr) *Result {
	sc := lz.pool.Get().(*Scratch)
	if v != nil {
		sc.view = v
	}
	res := shortestWidestDense(frozen, i, sc, ins)
	if v != nil {
		sc.view = nil
	}
	lz.pool.Put(sc)
	return res
}

// sharedView is the one arc view the fills of a lazy table and its
// snapshots read, so a freeze is derived once however many workers and
// readers fill rows on it, into arrays reused from freeze to freeze. users
// counts the fills reading it; it is re-derived only when none is. A fill on
// another freeze while it is in use (an old epoch's reader beside a new
// one's) gets nil and derives into its scratch's own view.
type sharedView struct {
	mu    sync.Mutex
	v     arcView
	users int
}

// acquire returns the view of g, deriving it if it holds another graph or
// generation and no fill is reading it; nil if one is. Pair with release.
func (s *sharedView) acquire(g *csr.Graph) *arcView {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.v.g != g || s.v.gen != g.Gen {
		if s.users > 0 {
			return nil
		}
		s.v.derive(g)
	}
	s.users++
	return &s.v
}

// release ends a fill's use of the view acquire returned.
func (s *sharedView) release(v *arcView) {
	if v == nil {
		return
	}
	s.mu.Lock()
	s.users--
	s.mu.Unlock()
}

// Stats returns what the table has done so far.
func (t *AllPairs) Stats() Stats {
	var st Stats
	if t.live != nil {
		t.mu.Lock()
		st = t.live.stats
		t.mu.Unlock()
	}
	if lz := t.lz; lz != nil {
		st.Computed, st.Hits, st.DedupWaits = lz.computed.Load(), lz.hits.Load(), lz.dedupWaits.Load()
		st.Evicted, st.LRUEvicted = lz.evicted.Load(), lz.lruEvicted.Load()
	}
	return st
}

// reported resolves the qos_incremental_* counters on the first mutation
// report.
func (up *upkeep) reported() {
	reg := up.reg
	if reg == nil || up.m != &unmetered {
		return
	}
	rule := func(r string) metrics.Option { return metrics.WithLabels(metrics.Label{Name: "rule", Value: r}) }
	cause := func(c string) metrics.Option { return metrics.WithLabels(metrics.Label{Name: "cause", Value: c}) }
	up.m = &flushMetrics{
		flushes:       reg.Counter("qos_incremental_flushes_total"),
		recomputed:    reg.Counter("qos_incremental_recomputed_sources_total"),
		saved:         reg.Counter("qos_incremental_saved_sources_total"),
		dirtiedWorse:  reg.Counter("qos_incremental_rows_dirtied_total", rule("worsening")),
		dirtiedBetter: reg.Counter("qos_incremental_rows_dirtied_total", rule("improvement")),
		refreezeNodes: reg.Counter("qos_incremental_refreezes_total", cause(causeNodes)),
		refreezeArc:   reg.Counter("qos_incremental_refreezes_total", cause(causeArc)),
	}
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
	up := t.live
	up.reported()
	if t.frozen == nil {
		return // a lazy table not frozen yet holds no row and no freeze
	}
	t.adoptLocked()
	// A patch list longer than the freeze's arc count stopped being
	// cheaper than a re-freeze.
	if up.refreeze == "" && len(up.patches) >= t.frozen.NumArcs() {
		up.refreeze = causeArc
	}
	if up.refreeze == "" {
		up.patches = append(up.patches, [2]int{u, v})
	}
	// Rows of one freeze share one mapping, so u and v are resolved once
	// per mapping the walk meets.
	ends := arcEnds{u: u, v: v}
	var n int64
	for i, r := range t.rows {
		if r == nil || up.dirty[i] {
			continue
		}
		if iu, iv := ends.of(r); r.canMove(iu, iv, b, b2) {
			up.dirty[i] = true
			n++
		}
	}
	up.ndirty += int(n)
	if b2 < b {
		up.stats.DirtiedWorsening += n
		up.m.dirtiedWorse.Add(n)
	} else {
		up.stats.DirtiedImprovement += n
		up.m.dirtiedBetter.Add(n)
	}
}

// NodeAdded records that n joined the graph: its links arrive as ArcChanged
// reports, and its row is owed (queued in eager mode).
func (t *AllPairs) NodeAdded(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	up := t.live
	up.reported()
	t.adoptLocked()
	up.nodesChanged = true
	t.nodes = append(t.nodes, n)
	t.rows = append(t.rows, nil)
	eager := t.lz == nil
	up.dirty = append(up.dirty, eager)
	if eager {
		up.ndirty++
	}
}

// NodeRemoved records that n left the graph. The caller reports every arc
// incident to n going to 0 as well: a row that reached n had a tree arc into
// it, which is how such rows are caught. NodeRemoved itself only gives up
// n's own row (eager) or queues it for eviction (lazy).
func (t *AllPairs) NodeRemoved(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	up := t.live
	up.reported()
	t.adoptLocked()
	up.nodesChanged = true
	for i := len(t.nodes) - 1; i >= 0; i-- {
		if t.nodes[i] != n || (t.rows[i] == nil && !up.dirty[i]) {
			continue
		}
		if t.lz != nil {
			if !up.dirty[i] {
				up.dirty[i] = true
				up.ndirty++
			}
			return
		}
		if up.dirty[i] {
			up.ndirty--
		}
		t.rows[i], up.dirty[i] = nil, false
		return
	}
}

// Pending reports whether a Flush would have anything to do: rows queued
// for recomputation or eviction, or a node-set change to reconcile. It
// allocates nothing.
func (t *AllPairs) Pending() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.live.ndirty > 0 || t.live.nodesChanged
}

// Dirty returns the sources currently queued for recomputation (eager) or
// eviction (lazy), ascending.
func (t *AllPairs) Dirty() []int {
	t.mu.Lock()
	out := make([]int, 0, t.live.ndirty)
	for i, d := range t.live.dirty {
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
	if t.lz != nil {
		return t.applyLocked()
	}
	up := t.live
	if up.nodesChanged {
		t.reconcile()
	}
	if up.ndirty == 0 {
		// Patching is cheap enough to keep up with, and a node-set change
		// moves the index reads go through; an arc re-freeze waits for a
		// row that needs it.
		if up.refreeze != causeArc {
			t.syncFreeze()
		}
		return 0
	}
	t.syncFreeze()
	srcs := up.srcs[:0]
	for i, d := range up.dirty {
		if d {
			srcs = append(srcs, int32(i))
		}
	}
	up.srcs = srcs
	up.scratches = denseRows(up.view, srcs, t.rows, t.fanout(), up.scratches, t.ins)
	for _, i := range srcs {
		up.dirty[i] = false
	}
	up.ndirty = 0
	up.m.flushes.Inc()
	up.m.recomputed.Add(int64(len(srcs)))
	up.m.saved.Add(int64(len(t.nodes) - len(srcs)))
	return len(srcs)
}

// applyLocked is the lazy flush: it adopts the last snapshot's rows, evicts
// the dirty rows, reconciles the node list and brings the freeze up to date,
// and returns how many rows it evicted. The caller holds mu.
func (t *AllPairs) applyLocked() int {
	if t.frozen == nil {
		t.start()
		return 0
	}
	t.adoptLocked()
	up, lz := t.live, t.lz
	evicted := 0
	if up.ndirty > 0 {
		for i, d := range up.dirty {
			if r := t.rows[i]; d && r != nil {
				t.dropLocked(r.Source)
				evicted++
			}
			up.dirty[i] = false
		}
		up.ndirty = 0
		lz.evicted.Add(int64(evicted))
		lz.m.evictions.Add(int64(evicted))
		up.m.flushes.Inc()
		t.publishResidentLocked()
	}
	if up.nodesChanged {
		t.reconcile()
	}
	t.syncFreeze()
	return evicted
}

// adoptLocked makes a lazy live table take back the cache it handed to its
// last snapshot, as the snapshot's readers left it: its resident rows and
// their recency. A no-op in eager mode or with nothing to adopt. The table
// has held no row and taken no report since, so the two still share row
// layout and freeze. The caller holds mu; adoptLocked takes the snapshot's.
func (t *AllPairs) adoptLocked() {
	lz := t.lz
	if lz == nil || lz.handed == nil {
		return
	}
	s := lz.handed
	lz.handed = nil
	s.mu.Lock()
	copy(t.rows, s.rows)
	lz.resident, lz.residentBytes = s.lz.resident, s.lz.residentBytes
	// Replay the snapshot's recency oldest-first; the snapshot keeps its
	// own list.
	for n := s.lz.lruTail; n != nil; n = n.prev {
		lz.touch(n.src)
	}
	s.mu.Unlock()
	t.publishResidentLocked()
}

// reconcile lines the row list up with the graph's node list after
// node-set notices: rows move to the positions the next freeze gives their
// sources, an eager table queues a node without a row, and a row whose node
// left is dropped. It re-freezes at the next flush when the list differs
// from the freeze's.
func (t *AllPairs) reconcile() {
	up := t.live
	up.nodesChanged = false
	nodes := slices.Clone(up.g.Nodes()) // NodeAdded appends to the list
	type slot struct {
		row   *Result
		dirty bool
	}
	have := make(map[int]slot, len(t.nodes))
	for i, n := range t.nodes {
		if t.rows[i] != nil || up.dirty[i] {
			have[n] = slot{t.rows[i], up.dirty[i]}
		}
	}
	rows := make([]*Result, len(nodes))
	dirty := make([]bool, len(nodes))
	up.ndirty = 0
	for i, n := range nodes {
		s, ok := have[n]
		rows[i], dirty[i] = s.row, s.dirty || (!ok && t.lz == nil)
		if dirty[i] {
			up.ndirty++
		}
		delete(have, n)
	}
	for n := range have {
		if t.lz != nil {
			t.dropLocked(n) // left without a NodeRemoved notice
		}
	}
	if !slices.Equal(nodes, t.frozen.IDs[:t.declared]) {
		up.refreeze = causeNodes
	}
	t.nodes, t.rows, up.dirty = nodes, rows, dirty
}

// start takes the graph's node list, every row owed, and freezes it: at New
// in eager mode, at first use in lazy mode, when no row exists yet.
func (t *AllPairs) start() {
	up := t.live
	t.nodes = slices.Clone(up.g.Nodes())
	t.rows, up.dirty = make([]*Result, len(t.nodes)), make([]bool, len(t.nodes))
	up.nodesChanged = false
	t.freeze()
}

// freeze re-freezes the graph over the row list's node order, reusing the
// previous freeze's arrays unless a snapshot still routes on them, and
// derives the eager view afresh.
func (t *AllPairs) freeze() {
	up := t.live
	if up.shared {
		t.frozen, up.shared = nil, false
	}
	t.frozen = freezeNodes(t.frozen, up.g, t.nodes)
	t.declared = len(t.nodes)
	t.index = t.frozen.IndexMap()
	if up.view != nil {
		up.view.derive(t.frozen)
	}
}

// syncFreeze brings the freeze up to date with the graph: patched when
// every reported arc has exactly one slot and the node list held, in place
// or, while a snapshot routes on the freeze, in a copy of its arc arrays that
// shares its node mapping; re-frozen otherwise.
func (t *AllPairs) syncFreeze() {
	up := t.live
	if up.refreeze == "" && len(up.patches) > 0 {
		if up.shared {
			t.frozen, up.shared = t.frozen.CloneArcs(), false
		}
		if !t.patch() {
			up.refreeze = causeArc
		}
	}
	switch up.refreeze {
	case causeNodes:
		up.stats.RefreezesNodes++
		up.m.refreezeNodes.Inc()
	case causeArc:
		up.stats.RefreezesArc++
		up.m.refreezeArc.Inc()
	}
	if up.refreeze != "" {
		t.freeze()
		up.refreeze = ""
	}
	up.patches = up.patches[:0]
}

// patch writes each reported arc's live bandwidth and latency into its slot
// of the freeze and re-derives the touched rows of the eager view (a lazy
// fill's scratches see the freeze's generation move and derive anew). It
// reports false, leaving a freeze only a re-freeze can repair, when an arc
// has no single slot or the graph holds it twice.
func (t *AllPairs) patch() bool {
	up, fz := t.live, t.frozen
	up.slots, up.touched = up.slots[:0], up.touched[:0]
	for _, p := range up.patches {
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
		for _, a := range up.g.Out(p[0]) {
			if a.To == p[1] {
				bw, lat = a.Bandwidth, a.Latency
				seen++
			}
		}
		if seen > 1 {
			return false
		}
		fz.SetArc(e, bw, lat)
		up.slots = append(up.slots, e)
		up.touched = append(up.touched, iu)
	}
	if up.view != nil {
		slices.Sort(up.touched)
		up.view.patch(up.slots, slices.Compact(up.touched))
	}
	up.stats.Patches++
	return true
}

// Snapshot flushes pending reports and returns an immutable copy of the
// table that later mutations cannot disturb. It copies the row-pointer slice
// (rows are immutable once published) and shares the node index. A lazy
// snapshot inherits the MaxRows bound with its own recency state, seeded in
// the parent's order, and computes the rows it still owes from the freeze it
// shares with the parent; its cache then ages independently, its
// computations count in its own Stats and in the parent's registry, and the
// parent adopts its rows and recency at the parent's next report, flush or
// read. Safe for any number of concurrent readers.
func (t *AllPairs) Snapshot() *AllPairs {
	t.Flush()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &AllPairs{
		index:    t.index,
		declared: t.declared,
		nodes:    t.nodes[:t.declared],
	}
	lz := t.lz
	if lz == nil {
		s.rows = slices.Clone(t.rows)
		return s
	}
	s.workers, s.ins = t.workers, t.ins
	if lz.resident < len(t.rows) {
		s.frozen, t.live.shared = t.frozen, true
	}
	// The cache moves into the snapshot, rows and recency, and comes back
	// grown by the snapshot's readers when the live table adopts it. Until
	// then the live table pins no row the snapshot drops.
	s.rows, t.rows = t.rows, make([]*Result, len(t.rows))
	s.lz = &lazyFill{
		maxRows:       lz.maxRows,
		flight:        make(map[int32]*lazyRow),
		resident:      lz.resident,
		residentBytes: lz.residentBytes,
		lru:           lz.lru,
		lruHead:       lz.lruHead,
		lruTail:       lz.lruTail,
		pool:          lz.pool,
		view:          lz.view,
		m:             lz.m,
	}
	lz.resident, lz.residentBytes, lz.lruHead, lz.lruTail = 0, 0, nil, nil
	if lz.maxRows > 0 {
		lz.lru = make(map[int]*lruNode, lz.maxRows)
	}
	lz.handed = s
	return s
}

// dropLocked forgets src's resident row and its recency state. The caller
// holds mu.
func (t *AllPairs) dropLocked(src int) {
	lz := t.lz
	if n, ok := lz.lru[src]; ok {
		lz.unlink(n)
		delete(lz.lru, src)
	}
	i, ok := t.index[src]
	if !ok || int(i) >= len(t.rows) || t.rows[i] == nil || t.rows[i].Source != src {
		return
	}
	lz.resident--
	lz.residentBytes -= int64(t.rows[i].Bytes())
	t.rows[i] = nil
}

// publishResidentLocked shows this table's cache in the resident gauges.
func (t *AllPairs) publishResidentLocked() {
	t.lz.m.residentRows.Set(int64(t.lz.resident))
	t.lz.m.residentSize.Set(t.lz.residentBytes)
}

// lruEnforceLocked drops least recently read rows until the cache fits
// maxRows again. The caller holds mu.
func (t *AllPairs) lruEnforceLocked() {
	lz := t.lz
	for lz.maxRows > 0 && len(lz.lru) > lz.maxRows {
		t.dropLocked(lz.lruTail.src)
		lz.lruEvicted.Add(1)
		lz.m.lruEvictions.Inc()
	}
}

// touch moves src to the head of the recency list, inserting it if absent.
// No-op when the cache is unbounded. The caller holds the table's mu.
func (lz *lazyFill) touch(src int) {
	if lz.maxRows <= 0 {
		return
	}
	n, ok := lz.lru[src]
	if ok {
		if n == lz.lruHead {
			return
		}
		lz.unlink(n)
	} else {
		n = &lruNode{src: src}
		lz.lru[src] = n
	}
	n.next = lz.lruHead
	if lz.lruHead != nil {
		lz.lruHead.prev = n
	}
	lz.lruHead = n
	if lz.lruTail == nil {
		lz.lruTail = n
	}
}

// unlink removes n from the recency list (not from the lru map).
func (lz *lazyFill) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		lz.lruHead = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		lz.lruTail = n.prev
	}
	n.prev, n.next = nil, nil
}
