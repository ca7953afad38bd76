// Lazy, demand-driven all-pairs shortest-widest routing.
//
// ComputeAllPairs runs one Dijkstra per source and materializes the full N²
// table, which walls the system off from large overlays: the federation
// algorithms on top only ever read the rows of instances that populate a
// requirement's service slots — typically a few dozen sources out of tens of
// thousands. LazyAllPairs serves the same read interface row by row, on
// demand: a row is computed by the dense CSR kernels the first time any
// reader asks for it, memoized, and stays valid until a reported arc change
// could move it. Invalidation therefore reuses exactly the argument behind
// Incremental: ArcChanged(u, v, b, b2) asks each resident row whether the
// worsening or improvement rule rules the change out, and rows nobody
// materialized cost nothing to invalidate.
//
// Concurrency: the read methods (Metric, Path, From, Sources, Prefetch,
// Materialize) are safe for any number of concurrent readers; a per-source
// single-flight latch guarantees that concurrent requests for the same
// uncomputed row run the kernel exactly once and share the one Result. The
// mutation methods (ArcChanged, NodeAdded, NodeRemoved, Flush) follow
// Incremental's single-writer contract: they must be serialized with each
// other AND with reads of the live table — which is what session.Session's
// one-goroutine contract and the daemon's RCU epochs already provide
// (concurrent readers only ever touch immutable Snapshots).
package qos

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"sflow/internal/csr"
	"sflow/internal/metrics"
)

// Table is the read interface over an all-pairs shortest-widest computation —
// what the abstract-graph builder and the Solve registry actually consume.
// Both the eager *AllPairs and the demand-driven *LazyAllPairs implement it,
// and for every row read the two are byte-identical (selected paths and
// instrumentation included), which the scale-equivalence battery pins.
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

var (
	_ Table = (*AllPairs)(nil)
	_ Table = (*LazyAllPairs)(nil)
)

// TablesEqual reports whether two tables answer identically: same sources,
// and per source the same reachable set, metrics and selected paths. It reads
// every row of both tables, materializing lazy ones — an equivalence-test
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

// lazyRow is the single-flight latch of one memoized row: the goroutine that
// created the row computes res (published under the table mutex) and closes
// done; everyone else waits on done.
type lazyRow struct {
	done chan struct{}
	res  *Result
}

// lruNode is one completed row's position in the recency list (most recent at
// head). Nodes live outside lazyRow because snapshots share row pointers with
// their parent but keep independent recency state.
type lruNode struct {
	src        int
	prev, next *lruNode
}

// LazyOptions configures a LazyAllPairs beyond the graph it reads.
type LazyOptions struct {
	// Metrics, when non-nil, receives qos_lazy_* counters and the resident
	// row gauges alongside the usual routing instrumentation.
	Metrics *metrics.Registry
	// MaxRows bounds how many completed rows stay memoized; <= 0 means
	// unbounded. When a row completes and the bound is exceeded, the least
	// recently read completed rows are evicted — an evicted row simply
	// recomputes, byte-identically, on its next read. Rows still in flight
	// never count against the bound.
	MaxRows int
}

// LazyStats is a point-in-time summary of what a LazyAllPairs did, for tests
// and capacity planning.
type LazyStats struct {
	// Computed counts kernel executions (rows actually computed).
	Computed int64
	// Hits counts reads served from an already-memoized row.
	Hits int64
	// DedupWaits counts reads that found another goroutine's computation of
	// the same row in flight and waited for it instead of running the kernel
	// again.
	DedupWaits int64
	// Evicted counts rows invalidated by mutations.
	Evicted int64
	// LRUEvicted counts rows dropped by the MaxRows bound (distinct from
	// mutation-driven eviction above).
	LRUEvicted int64
}

// LazyAllPairs is the demand-driven Table: rows materialize on first read and
// are evicted exactly when a mutation could change them. See the package
// comment above for the concurrency contract.
type LazyAllPairs struct {
	mu sync.Mutex
	// g is the live graph rows are (re-)frozen from; nil for pinned
	// snapshots, which can never go stale.
	g      Graph
	frozen *csr.Graph
	// nodes is the frozen graph's node set, ascending. Replaced wholesale on
	// re-freeze (never mutated in place), so snapshots may share it.
	nodes []int
	// rows holds the memoized (or in-flight) per-source results; resident
	// counts the completed ones and residentBytes sums their Result.Bytes.
	rows          map[int]*lazyRow
	resident      int
	residentBytes int64
	// dirty accumulates sources to evict at the next flush (explicit or
	// read-triggered); stale marks the frozen graph for re-freeze.
	dirty map[int]struct{}
	stale bool

	// maxRows bounds the completed rows kept memoized (<= 0 unbounded); lru
	// tracks their recency, most recent at lruHead. Every completed row is in
	// lru when the bound is active; in-flight rows never are.
	maxRows          int
	lru              map[int]*lruNode
	lruHead, lruTail *lruNode

	// pool shares dense-kernel scratch buffers between concurrent row
	// computations; shared with snapshots (Scratch use is exclusive while
	// checked out).
	pool *sync.Pool

	ins instr

	computed   atomic.Int64
	hits       atomic.Int64
	dedupWaits atomic.Int64
	evicted    atomic.Int64
	lruEvicted atomic.Int64

	rowsComputed, rowHits, dedups, evictions, lruEvictions *metrics.Counter
	// The resident gauges are shared with snapshots like the counters, and
	// show the cache of whichever table last gained or lost a row: the pinned
	// epoch serving reads, or the live table right after a flush.
	residentRows, residentSize *metrics.Gauge
}

// NewLazyAllPairs returns a demand-driven table over g with an unbounded row
// cache. No routing runs until the first row is read. reg, when non-nil,
// receives qos_lazy_* counters alongside the usual routing instrumentation.
func NewLazyAllPairs(g Graph, reg *metrics.Registry) *LazyAllPairs {
	return NewLazyAllPairsOpts(g, LazyOptions{Metrics: reg})
}

// NewLazyAllPairsOpts is NewLazyAllPairs with the full option set.
func NewLazyAllPairsOpts(g Graph, opts LazyOptions) *LazyAllPairs {
	reg := opts.Metrics
	l := &LazyAllPairs{
		g:       g,
		rows:    make(map[int]*lazyRow),
		dirty:   make(map[int]struct{}),
		stale:   true,
		maxRows: opts.MaxRows,
		pool:    &sync.Pool{New: func() any { return NewScratch() }},
		ins:     instrFor(reg),
	}
	if l.maxRows > 0 {
		l.lru = make(map[int]*lruNode)
	}
	if reg != nil {
		l.rowsComputed = reg.Counter("qos_lazy_rows_computed_total")
		l.rowHits = reg.Counter("qos_lazy_row_hits_total")
		l.dedups = reg.Counter("qos_lazy_dedup_waits_total")
		l.evictions = reg.Counter("qos_lazy_evicted_rows_total")
		l.lruEvictions = reg.Counter("qos_lazy_lru_evicted_rows_total")
		l.residentRows = reg.Gauge("qos_lazy_resident_rows", metrics.Volatile())
		l.residentSize = reg.Gauge("qos_lazy_resident_bytes", metrics.Volatile())
	}
	return l
}

// MaxRows returns the configured row-cache bound (<= 0 means unbounded).
func (l *LazyAllPairs) MaxRows() int { return l.maxRows }

// Stats returns what the table has done so far.
func (l *LazyAllPairs) Stats() LazyStats {
	return LazyStats{
		Computed:   l.computed.Load(),
		Hits:       l.hits.Load(),
		DedupWaits: l.dedupWaits.Load(),
		Evicted:    l.evicted.Load(),
		LRUEvicted: l.lruEvicted.Load(),
	}
}

// lruTouchLocked moves src to the head of the recency list, inserting it if
// absent. No-op when the cache is unbounded. Caller holds l.mu.
func (l *LazyAllPairs) lruTouchLocked(src int) {
	if l.maxRows <= 0 {
		return
	}
	n, ok := l.lru[src]
	if ok {
		if n == l.lruHead {
			return
		}
		l.lruUnlinkLocked(n)
	} else {
		n = &lruNode{src: src}
		l.lru[src] = n
	}
	n.prev = nil
	n.next = l.lruHead
	if l.lruHead != nil {
		l.lruHead.prev = n
	}
	l.lruHead = n
	if l.lruTail == nil {
		l.lruTail = n
	}
}

// lruUnlinkLocked removes n from the recency list (not from the lru map).
func (l *LazyAllPairs) lruUnlinkLocked(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.lruHead = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.lruTail = n.prev
	}
	n.prev, n.next = nil, nil
}

// lruEnforceLocked evicts least-recently-read completed rows until the cache
// fits maxRows again. Caller holds l.mu.
func (l *LazyAllPairs) lruEnforceLocked() {
	for l.maxRows > 0 && len(l.lru) > l.maxRows {
		l.dropLocked(l.lruTail.src)
		l.lruEvicted.Add(1)
		l.lruEvictions.Inc()
	}
}

// dropLocked forgets src's row and its recency state, and reports whether
// there was a row to forget. Caller holds l.mu.
func (l *LazyAllPairs) dropLocked(src int) bool {
	if n, ok := l.lru[src]; ok {
		l.lruUnlinkLocked(n)
		delete(l.lru, src)
	}
	row, ok := l.rows[src]
	if !ok {
		return false
	}
	delete(l.rows, src)
	if row.res != nil {
		l.resident--
		l.residentBytes -= int64(row.res.Bytes())
	}
	return true
}

// publishResidentLocked shows this table's cache in the resident gauges.
func (l *LazyAllPairs) publishResidentLocked() {
	l.residentRows.Set(int64(l.resident))
	l.residentSize.Set(l.residentBytes)
}

// applyPendingLocked evicts the dirty rows and re-freezes a stale graph. The
// caller holds l.mu. Re-freezing allocates a fresh CSR graph instead of
// reusing storage: snapshots may still be routing on the old arrays.
func (l *LazyAllPairs) applyPendingLocked() {
	for src := range l.dirty {
		if l.dropLocked(src) {
			l.evicted.Add(1)
			l.evictions.Inc()
		}
	}
	if len(l.dirty) > 0 {
		l.dirty = make(map[int]struct{})
		l.publishResidentLocked()
	}
	if l.stale {
		if l.g != nil {
			l.frozen = FreezeGraph(l.g)
			nodes := l.g.Nodes()
			l.nodes = append([]int(nil), nodes...)
			sort.Ints(l.nodes)
		}
		l.stale = false
	}
}

// From returns the memoized row of src, computing it on first read. Rows are
// byte-identical to the corresponding ComputeAllPairs row: same frozen-CSR
// kernels, same deterministic settle order. It returns nil for a source the
// graph does not know — exactly what the eager table answers.
func (l *LazyAllPairs) From(src int) *Result {
	l.mu.Lock()
	l.applyPendingLocked()
	if l.frozen == nil {
		l.mu.Unlock()
		return nil
	}
	idx, ok := l.frozen.Index(src)
	if !ok {
		l.mu.Unlock()
		return nil
	}
	if row, ok := l.rows[src]; ok {
		if row.res != nil {
			// Completed row: a hit, and the freshest entry of the LRU list.
			l.lruTouchLocked(src)
			l.mu.Unlock()
			l.hits.Add(1)
			l.rowHits.Inc()
			return row.res
		}
		// In flight: wait for the computing goroutine's result. res is
		// published under l.mu before done is closed, so the read below is
		// ordered by the channel close.
		l.mu.Unlock()
		l.dedupWaits.Add(1)
		l.dedups.Inc()
		<-row.done
		return row.res
	}
	row := &lazyRow{done: make(chan struct{})}
	l.rows[src] = row
	frozen := l.frozen
	l.mu.Unlock()

	sc := l.pool.Get().(*Scratch)
	res := shortestWidestDense(frozen, idx, sc, l.ins)
	l.pool.Put(sc)

	l.mu.Lock()
	row.res = res
	// The row may have been evicted while computing (only possible for a
	// mutation racing a read, which the single-writer contract forbids on
	// the live table; be defensive anyway): count it only if still current.
	// Accounting, recency and the MaxRows bound move in one critical
	// section, so no reader can observe a row outside the bound.
	if l.rows[src] == row {
		l.resident++
		l.residentBytes += int64(res.Bytes())
		l.lruTouchLocked(src)
		l.lruEnforceLocked()
		l.publishResidentLocked()
	}
	l.mu.Unlock()
	close(row.done)
	l.computed.Add(1)
	l.rowsComputed.Inc()
	return res
}

// Metric returns the shortest-widest quality from src to dst, computing the
// src row on first read.
func (l *LazyAllPairs) Metric(src, dst int) Metric {
	r := l.From(src)
	if r == nil {
		return Unreachable
	}
	return r.Metric(dst)
}

// Path returns the selected shortest-widest path from src to dst (nil if
// unreachable), computing the src row on first read. The returned slice is
// fresh: the memoized row stores no paths to alias.
func (l *LazyAllPairs) Path(src, dst int) []int {
	r := l.From(src)
	if r == nil {
		return nil
	}
	return r.PathTo(dst)
}

// Sources returns every source the table covers — all current graph nodes,
// ascending, whether or not their rows have materialized.
func (l *LazyAllPairs) Sources() []int {
	l.mu.Lock()
	l.applyPendingLocked()
	nodes := l.nodes
	l.mu.Unlock()
	out := make([]int, len(nodes))
	copy(out, nodes)
	return out
}

// ComputedRows returns the sources whose rows are currently materialized,
// ascending. Test and introspection hook; in-flight rows are included.
func (l *LazyAllPairs) ComputedRows() []int {
	l.mu.Lock()
	out := make([]int, 0, len(l.rows))
	for src := range l.rows {
		out = append(out, src)
	}
	l.mu.Unlock()
	sort.Ints(out)
	return out
}

// ArcChanged records that arc u -> v went from bandwidth b to b2 (0 or
// less meaning absent), with Incremental.ArcChanged's contract: every
// completed row the worsening or improvement rule cannot rule out is queued
// for eviction, and so is every row still in flight. Rows nobody computed
// need nothing.
func (l *LazyAllPairs) ArcChanged(u, v int, b, b2 int64) {
	l.arcChanged(u, v, max(b, 0), max(b2, 0))
}

// arcChanged is ArcChanged on clamped bandwidths; it returns how many rows
// it queued.
func (l *LazyAllPairs) arcChanged(u, v int, b, b2 int64) int64 {
	if b == b2 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stale = true
	ends := arcEnds{u: u, v: v}
	var n int64
	for src, row := range l.rows {
		if _, ok := l.dirty[src]; ok {
			continue
		}
		if row.res == nil {
			l.dirty[src] = struct{}{}
			n++
			continue
		}
		if iu, iv := ends.of(row.res); row.res.canMove(iu, iv, b, b2) {
			l.dirty[src] = struct{}{}
			n++
		}
	}
	return n
}

// NodeAdded records that n joined the graph. No row can have reached a node
// with no in-links yet, so nothing is evicted; the next read re-freezes.
func (l *LazyAllPairs) NodeAdded(_ int) {
	l.mu.Lock()
	l.stale = true
	l.mu.Unlock()
}

// NodeRemoved records that n left. As with Incremental, the caller reports
// every arc incident to n going to 0 as well, which catches the rows that
// reached n; NodeRemoved itself only queues n's own row.
func (l *LazyAllPairs) NodeRemoved(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stale = true
	if _, ok := l.rows[n]; ok {
		l.dirty[n] = struct{}{}
	}
}

// pending reports whether rows are queued for eviction.
func (l *LazyAllPairs) pending() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.dirty) > 0
}

// Dirty returns the materialized sources currently queued for eviction,
// ascending.
func (l *LazyAllPairs) Dirty() []int {
	l.mu.Lock()
	out := make([]int, 0, len(l.dirty))
	for src := range l.dirty {
		out = append(out, src)
	}
	l.mu.Unlock()
	sort.Ints(out)
	return out
}

// Flush applies pending invalidation — evicting dirty rows and re-freezing
// the graph — and returns how many rows were evicted. Unlike an eager
// Incremental flush it runs NO routing: evicted rows recompute only if and
// when someone reads them again.
func (l *LazyAllPairs) Flush() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	before := l.evicted.Load()
	l.applyPendingLocked()
	return int(l.evicted.Load() - before)
}

// Prefetch materializes the rows of srcs that are not yet computed, fanning
// the kernel runs out over the given worker count (<= 0 means GOMAXPROCS).
// Prefetching never changes any answer — rows are byte-identical whether
// computed here or on first demand — it only moves the cost onto more cores.
func (l *LazyAllPairs) Prefetch(srcs []int, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fanOut(len(srcs), workers, func(_, i int) { l.From(srcs[i]) })
}

// Materialize computes every missing row and returns the table in eager
// form — byte-identical to ComputeAllPairs on the current graph. It defeats
// the point of laziness and exists for equivalence tests and for callers that
// genuinely need the full table once.
func (l *LazyAllPairs) Materialize(workers int) *AllPairs {
	srcs := l.Sources()
	l.Prefetch(srcs, workers)
	ap := &AllPairs{results: make(map[int]*Result, len(srcs))}
	for _, src := range srcs {
		ap.results[src] = l.From(src)
	}
	return ap
}

// Snapshot pins the current state as an immutable table: the snapshot shares
// the already-computed rows (Results are immutable once published) and the
// frozen CSR graph, but has no live graph reference — later mutations of the
// parent never evict or re-freeze it, and rows it computes on demand keep
// answering from the pinned graph. Safe for any number of concurrent readers;
// the single-flight dedup still applies within the snapshot. Pending
// invalidation is applied first, so the snapshot reflects every mutation
// reported before the call.
//
// The snapshot inherits the parent's MaxRows bound with its own recency
// state, seeded in the parent's order; from there the two caches age
// independently. Rows still in flight in the parent are not carried over
// (they recompute in the snapshot if read), keeping every shared row
// immutable at the handoff.
func (l *LazyAllPairs) Snapshot() *LazyAllPairs {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.applyPendingLocked()
	rows := make(map[int]*lazyRow, len(l.rows))
	for src, row := range l.rows {
		if row.res != nil {
			rows[src] = row
		}
	}
	s := &LazyAllPairs{
		g:       nil,
		frozen:  l.frozen,
		nodes:   l.nodes,
		rows:    rows,
		dirty:   make(map[int]struct{}),
		maxRows: l.maxRows,

		// In-flight rows are counted on completion, so the totals describe
		// exactly the rows copied above.
		resident:      l.resident,
		residentBytes: l.residentBytes,
		pool:          l.pool,
		ins:           l.ins,

		// Counters are shared with the parent (they are concurrency-safe),
		// so rows computed or evicted while serving a pinned epoch still
		// land in the session's qos_lazy_* totals.
		rowsComputed: l.rowsComputed,
		rowHits:      l.rowHits,
		dedups:       l.dedups,
		evictions:    l.evictions,
		lruEvictions: l.lruEvictions,
		residentRows: l.residentRows,
		residentSize: l.residentSize,
	}
	if s.maxRows > 0 {
		s.lru = make(map[int]*lruNode, len(rows))
		// Walk the parent's recency list oldest-first so the snapshot ends up
		// in the same order. Bounded parents register every completed row, so
		// the walk covers exactly the rows copied above.
		for n := l.lruTail; n != nil; n = n.prev {
			s.lruTouchLocked(n.src)
		}
		s.lruEnforceLocked()
	}
	return s
}
