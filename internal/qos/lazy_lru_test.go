package qos

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"sflow/internal/metrics"
)

// lruGraph is a complete-ish 8-node graph so every row reaches every node and
// the readers index genuinely interlocks with the LRU.
func lruGraph() *testGraph {
	g := newTestGraph()
	for i := 1; i <= 8; i++ {
		g.addNode(i)
	}
	for i := 1; i <= 8; i++ {
		for j := 1; j <= 8; j++ {
			if i != j && (i+j)%3 != 0 {
				g.addArc(i, j, int64(10*i+j), int64(i+2*j))
			}
		}
	}
	return g
}

// TestLazyMaxRowsBound pins the cache bound: after any read sequence the
// resident row count never exceeds MaxRows, the evicted rows are the least
// recently read, and the LRUEvicted stat (and counter) tallies the drops.
func TestLazyMaxRowsBound(t *testing.T) {
	g := lruGraph()
	reg := metrics.New()
	lt := New(g, Options{Lazy: true, Metrics: reg, MaxRows: 3})
	if lt.MaxRows() != 3 {
		t.Fatalf("MaxRows() = %d, want 3", lt.MaxRows())
	}
	for src := 1; src <= 6; src++ {
		lt.From(src)
	}
	if got, want := lt.ComputedRows(), []int{4, 5, 6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("resident rows = %v, want the 3 most recent %v", got, want)
	}
	st := lt.Stats()
	if st.Computed != 6 || st.LRUEvicted != 3 || st.Evicted != 0 {
		t.Fatalf("stats = %+v, want Computed 6, LRUEvicted 3, Evicted 0", st)
	}
	if got := reg.Counter("qos_lazy_lru_evicted_rows_total").Value(); got != 3 {
		t.Fatalf("qos_lazy_lru_evicted_rows_total = %d, want 3", got)
	}
}

// TestLazyLRUTouchOnHit pins the recency rule: a hit refreshes a row, so the
// eviction victim is the least recently READ row, not the oldest computed.
func TestLazyLRUTouchOnHit(t *testing.T) {
	g := lruGraph()
	lt := New(g, Options{Lazy: true, MaxRows: 3})
	lt.From(1)
	lt.From(2)
	lt.From(3)
	lt.From(1) // hit: 1 becomes most recent, 2 the LRU
	lt.From(4) // evicts 2
	if got, want := lt.ComputedRows(), []int{1, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("resident rows = %v, want %v (hit must refresh recency)", got, want)
	}
	if st := lt.Stats(); st.Hits != 1 || st.LRUEvicted != 1 {
		t.Fatalf("stats = %+v, want Hits 1, LRUEvicted 1", st)
	}
}

// TestLazyLRURecomputeByteIdentical pins that an LRU-evicted row recomputes
// byte-identically on its next read — eviction is purely a memory decision.
func TestLazyLRURecomputeByteIdentical(t *testing.T) {
	g := lruGraph()
	lt := New(g, Options{Lazy: true, MaxRows: 2})
	first := lt.From(1)
	lt.From(2)
	lt.From(3) // evicts 1
	if rows := lt.ComputedRows(); len(rows) != 2 || rows[0] != 2 {
		t.Fatalf("resident rows = %v, want [2 3]", rows)
	}
	again := lt.From(1) // recompute
	requireResultsEqual(t, "recomputed row", again, first)
	requireResultsEqual(t, "vs oracle", again, shortestWidestRef(g, 1))
	if st := lt.Stats(); st.Computed != 4 {
		t.Fatalf("Computed = %d, want 4 (the evicted row ran again)", st.Computed)
	}
	// The whole bounded table still answers byte-identically to the eager
	// oracle, whatever mix of resident and evicted rows a read hits.
	if want := ComputeAllPairsWorkers(g, 1); !TablesEqual(lt, want) || !TablesEqual(want, lt) {
		t.Fatal("bounded lazy table diverged from eager oracle")
	}
}

// TestLazyLRUSingleFlight pins the dedup interlock: concurrent readers of one
// uncomputed row run the kernel once even with the bound active, and the
// bound holds afterwards.
func TestLazyLRUSingleFlight(t *testing.T) {
	g := lruGraph()
	lt := New(g, Options{Lazy: true, MaxRows: 2})
	var wg sync.WaitGroup
	results := make([]*Result, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = lt.From(3)
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r != results[0] {
			t.Fatalf("reader %d got a different *Result: single-flight broken", i)
		}
	}
	if st := lt.Stats(); st.Computed != 1 {
		t.Fatalf("Computed = %d, want 1", st.Computed)
	}
	for src := 1; src <= 5; src++ {
		lt.From(src)
	}
	if rows := lt.ComputedRows(); len(rows) > 2 {
		t.Fatalf("resident rows %v exceed MaxRows 2", rows)
	}
}

// TestLazyLRUInvalidationInterplay drives mutations against a bounded table:
// mutation-driven eviction and the LRU bound must compose without double
// counting or stale recency entries, and every answer must keep matching the
// eager oracle on the current graph.
func TestLazyLRUInvalidationInterplay(t *testing.T) {
	g := lruGraph()
	lt := New(g, Options{Lazy: true, MaxRows: 3})
	for src := 1; src <= 4; src++ { // 1 LRU-evicted, 2..4 resident
		lt.From(src)
	}
	// 2 -> 3 becomes wider than any route from 2 to 3: row 2 must go.
	g.setArcReported(2, 3, 500, 50, lt)
	lt.Flush()
	if st := lt.Stats(); st.LRUEvicted != 1 || st.Evicted == 0 {
		t.Fatalf("stats = %+v, want LRUEvicted 1 and mutation evictions > 0", st)
	}
	for src := 1; src <= 8; src++ {
		requireResultsEqual(t, "post-churn row", lt.From(src), shortestWidestRef(g, src))
		if rows := lt.ComputedRows(); len(rows) > 3 {
			t.Fatalf("resident rows %v exceed MaxRows 3 after churn", rows)
		}
	}
}

// TestLazyLRUSnapshotInheritance pins Snapshot semantics under the bound: the
// snapshot starts from the parent's resident rows and recency order, then the
// two caches age independently.
func TestLazyLRUSnapshotInheritance(t *testing.T) {
	g := lruGraph()
	lt := New(g, Options{Lazy: true, MaxRows: 3})
	lt.From(1)
	lt.From(2)
	lt.From(3)
	lt.From(1) // parent recency: 1 (most recent), 3, 2
	snap := lt.Snapshot()
	if snap.MaxRows() != 3 {
		t.Fatalf("snapshot MaxRows = %d, want 3", snap.MaxRows())
	}
	if got, want := snap.ComputedRows(), []int{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot resident rows = %v, want %v", got, want)
	}
	// A snapshot read of a shared row must not recompute.
	before := snap.Stats().Computed
	requireResultsEqual(t, "shared row", snap.From(2), lt.From(2))
	if snap.Stats().Computed != before {
		t.Fatal("snapshot recomputed a row it shares with its parent")
	}
	// New snapshot reads evict by the inherited recency order (2 was just
	// touched, so the victim is 3) without touching the parent.
	snap.From(4)
	if got, want := snap.ComputedRows(), []int{1, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot rows after drift = %v, want %v", got, want)
	}
	if got, want := lt.ComputedRows(), []int{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("parent rows changed by snapshot reads: %v, want %v", got, want)
	}
}

// TestLazyUnboundedNeverLRUEvicts pins the default: MaxRows <= 0 keeps every
// computed row, exactly the pre-bound behavior.
func TestLazyUnboundedNeverLRUEvicts(t *testing.T) {
	g := lruGraph()
	lt := New(g, Options{Lazy: true})
	for src := 1; src <= 8; src++ {
		lt.From(src)
	}
	if rows := lt.ComputedRows(); len(rows) != 8 {
		t.Fatalf("resident rows = %v, want all 8", rows)
	}
	if st := lt.Stats(); st.LRUEvicted != 0 {
		t.Fatalf("LRUEvicted = %d, want 0 when unbounded", st.LRUEvicted)
	}
}

// TestLazyResidentGauges pins the cache-fullness gauges: they follow the rows
// held by the table that last gained or lost one, in rows and in the bytes
// those rows own, through LRU eviction, a pinned snapshot's own reads, the
// live table adopting them and a flush that empties the live table.
func TestLazyResidentGauges(t *testing.T) {
	g := lruGraph()
	reg := metrics.New()
	lt := New(g, Options{Lazy: true, Metrics: reg, MaxRows: 3})
	rows := reg.Gauge("qos_lazy_resident_rows", metrics.Volatile())
	size := reg.Gauge("qos_lazy_resident_bytes", metrics.Volatile())
	held := func(l *AllPairs) (n, bytes int64) {
		for _, r := range l.rows {
			if r != nil {
				n++
				bytes += int64(r.Bytes())
			}
		}
		return n, bytes
	}
	check := func(when string, l *AllPairs, wantRows int64) {
		t.Helper()
		n, bytes := held(l)
		if n != wantRows || rows.Value() != n || size.Value() != bytes || (n > 0) != (bytes > 0) {
			t.Fatalf("%s: gauges say %d rows / %d bytes, table holds %d rows / %d bytes, want %d rows",
				when, rows.Value(), size.Value(), n, bytes, wantRows)
		}
	}
	for src := 1; src <= 5; src++ {
		lt.From(src)
	}
	check("after five reads under a bound of three", lt, 3)

	snap := lt.Snapshot()
	snap.From(6) // evicts the snapshot's oldest row, not the parent's
	check("after the snapshot's own read", snap, 3)

	// The live table's next flush adopts the snapshot's rows, 6 included,
	// and the gauges follow it.
	lt.Flush()
	if got, want := lt.ComputedRows(), snap.ComputedRows(); !slices.Equal(got, want) {
		t.Fatalf("live table holds %v after adoption, want the snapshot's %v", got, want)
	}
	check("after adopting the snapshot's rows", lt, 3)

	for _, src := range lt.ComputedRows() {
		// Every row leaves its source over its own out-arcs: dropping them
		// all moves every row.
		for _, a := range slices.Clone(g.adj[src]) {
			g.dropArcReported(src, a.To, lt)
		}
	}
	lt.Flush()
	check("after flushing every live row", lt, 0)
}
