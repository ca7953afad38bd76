package qos

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"sflow/internal/metrics"
)

// assertLazyMatchesEager materializes every row of the lazy table and
// deep-compares it against a from-scratch eager computation on the same
// graph — sources, reachable sets, metrics and selected paths.
func assertLazyMatchesEager(t *testing.T, lt *AllPairs, g Graph) {
	t.Helper()
	want := ComputeAllPairsWorkers(g, 1)
	if !TablesEqual(lt, want) || !TablesEqual(want, lt) {
		t.Fatalf("lazy table diverged from eager:\n lazy sources %v\neager sources %v",
			lt.Sources(), want.Sources())
	}
}

// randomTestGraph builds a seeded random testGraph with a small bandwidth
// palette (so shortest-widest rows have several width classes).
func randomTestGraph(seed int64, n, degree int) *testGraph {
	rng := rand.New(rand.NewSource(seed))
	g := newTestGraph()
	for i := 0; i < n; i++ {
		g.addNode(i)
	}
	tiers := []int64{100, 400, 1600, 6400}
	for i := 0; i < n; i++ {
		g.addArc(i, (i+1)%n, tiers[rng.Intn(len(tiers))], 1+int64(rng.Intn(50)))
		for d := 0; d < degree; d++ {
			j := rng.Intn(n)
			if j != i {
				g.addArc(i, j, tiers[rng.Intn(len(tiers))], 1+int64(rng.Intn(50)))
			}
		}
	}
	return g
}

func TestLazyMatchesEagerEveryRow(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomTestGraph(seed, 40, 3)
		lt := New(g, Options{Lazy: true})
		assertLazyMatchesEager(t, lt, g)
		if got, want := lt.Stats().Computed, int64(len(g.Nodes())); got != want {
			t.Fatalf("seed %d: computed %d rows, want %d (one per source)", seed, got, want)
		}
	}
}

func TestLazyUnknownSourceMatchesEager(t *testing.T) {
	g := chainGraph()
	lt := New(g, Options{Lazy: true})
	eager := ComputeAllPairsWorkers(g, 1)
	if lt.From(42) != nil || eager.From(42) != nil {
		t.Fatal("unknown source produced a row")
	}
	if got, want := lt.Metric(42, 1), eager.Metric(42, 1); got != want {
		t.Fatalf("unknown-source metric %v != eager %v", got, want)
	}
	if lt.Path(42, 1) != nil {
		t.Fatal("unknown source produced a path")
	}
	if got := lt.Stats().Computed; got != 0 {
		t.Fatalf("unknown-source reads ran %d kernels, want 0", got)
	}
}

// TestLazyRowsComputeOnDemandOnly pins the demand-driven contract: reading k
// rows runs exactly k kernels, and re-reads are memoized hits.
func TestLazyRowsComputeOnDemandOnly(t *testing.T) {
	g := randomTestGraph(1, 30, 3)
	lt := New(g, Options{Lazy: true})
	reads := []int{3, 7, 11}
	for _, src := range reads {
		if lt.From(src) == nil {
			t.Fatalf("row %d missing", src)
		}
	}
	if got, want := lt.Stats().Computed, int64(len(reads)); got != want {
		t.Fatalf("computed %d rows, want %d", got, want)
	}
	if got, want := lt.ComputedRows(), reads; !reflect.DeepEqual(got, want) {
		t.Fatalf("computed rows %v, want %v", got, want)
	}
	for _, src := range reads {
		lt.From(src)
	}
	st := lt.Stats()
	if st.Computed != int64(len(reads)) || st.Hits != int64(len(reads)) {
		t.Fatalf("re-reads ran kernels: %+v", st)
	}
}

// TestLazySingleFlight is the concurrency half of the memoization contract:
// many goroutines racing to read the same uncomputed row must run the kernel
// exactly once, share the one Result, and none may alias the memoized paths.
func TestLazySingleFlight(t *testing.T) {
	const goroutines = 32
	g := randomTestGraph(2, 60, 3)
	lt := New(g, Options{Lazy: true})

	var start, done sync.WaitGroup
	results := make([]*Result, goroutines)
	paths := make([][]int, goroutines)
	start.Add(1)
	done.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			results[i] = lt.From(7)
			paths[i] = lt.Path(7, 23)
		}(i)
	}
	start.Done()
	done.Wait()

	st := lt.Stats()
	if st.Computed != 1 {
		t.Fatalf("%d goroutines ran the kernel %d times, want exactly 1", goroutines, st.Computed)
	}
	// From + Path is two reads per goroutine; everyone but the computing
	// read either waited on the in-flight row or hit the memo.
	if got, want := st.Hits+st.DedupWaits, int64(2*goroutines-1); got != want {
		t.Fatalf("hits %d + dedup waits %d = %d, want %d", st.Hits, st.DedupWaits, st.Hits+st.DedupWaits, want)
	}
	for i := 1; i < goroutines; i++ {
		if results[i] != results[0] {
			t.Fatalf("goroutine %d got a different Result", i)
		}
		if !reflect.DeepEqual(paths[i], paths[0]) {
			t.Fatalf("goroutine %d path %v != %v", i, paths[i], paths[0])
		}
	}
	// Returned paths are copies: corrupting one must not corrupt the memo
	// or any other caller's slice.
	if len(paths[0]) > 0 {
		paths[0][0] = -99
		if fresh := lt.Path(7, 23); len(fresh) > 0 && fresh[0] == -99 {
			t.Fatal("Path returned an aliased slice into the memoized row")
		}
		if paths[1][0] == -99 {
			t.Fatal("two callers share one path slice")
		}
	}
	assertLazyMatchesEager(t, lt, g)
}

// TestLazyInvalidationFollowsArcRules mirrors the eager dirty-set
// test: a narrowed tree arc queues precisely the materialized rows whose
// paths cross it, a new arc only the rows it can widen, and unmaterialized
// rows cost nothing.
func TestLazyInvalidationFollowsArcRules(t *testing.T) {
	g := chainGraph() // 1 -> 2 -> 3 -> 4, 5 -> 1
	lt := New(g, Options{Lazy: true})
	for _, src := range []int{1, 2, 3, 4, 5} {
		lt.From(src)
	}
	// (3, 4) is a tree arc of rows 1, 2, 3 and 5; node 4 keeps its row.
	g.setArcReported(3, 4, 50, 20, lt)
	if got, want := lt.Dirty(), []int{1, 2, 3, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dirty = %v, want %v", got, want)
	}
	if n := lt.Flush(); n != 4 {
		t.Fatalf("flush evicted %d rows, want 4", n)
	}
	if got, want := lt.ComputedRows(), []int{4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("surviving rows %v, want %v", got, want)
	}
	assertLazyMatchesEager(t, lt, g)

	// A 10-wide arc 4 -> 5: row 5's classes all lie above 10, so it stays.
	g.addArcReported(4, 5, 10, 1, lt)
	if got, want := lt.Dirty(), []int{1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dirty = %v, want %v", got, want)
	}
	assertLazyMatchesEager(t, lt, g)

	// Same kind of mutation with NO materialized rows: nothing to evict.
	lt2 := New(g, Options{Lazy: true})
	g.setArcReported(2, 3, 70, 10, lt2)
	if got := lt2.Dirty(); len(got) != 0 {
		t.Fatalf("empty table queued evictions: %v", got)
	}
	if n := lt2.Flush(); n != 0 {
		t.Fatalf("empty table evicted %d rows", n)
	}
}

// TestLazyFlushRunsNoRouting pins the satellite fix: Flush applies eviction
// and re-freeze only; kernels run on the next read, and only for the rows
// that were actually touched.
func TestLazyFlushRunsNoRouting(t *testing.T) {
	g := chainGraph()
	lt := New(g, Options{Lazy: true})
	for _, src := range []int{1, 2, 3, 4, 5} {
		lt.From(src)
	}
	before := lt.Stats().Computed
	g.setArcReported(3, 4, 50, 20, lt)
	if n := lt.Flush(); n != 4 {
		t.Fatalf("flush evicted %d rows, want 4", n)
	}
	if got := lt.Stats().Computed; got != before {
		t.Fatalf("flush ran %d kernels, want 0", got-before)
	}
	// Reading one evicted row recomputes exactly that row.
	lt.From(2)
	if got := lt.Stats().Computed; got != before+1 {
		t.Fatalf("one read after flush ran %d kernels, want 1", got-before)
	}
	assertLazyMatchesEager(t, lt, g)
}

func TestLazyNodeLifecycle(t *testing.T) {
	g := chainGraph()
	lt := New(g, Options{Lazy: true})
	assertLazyMatchesEager(t, lt, g)

	// Join: next reads see the new node and its links.
	g.addNode(9)
	lt.NodeAdded(9)
	g.addArcReported(9, 2, 80, 5, lt)
	g.addArcReported(4, 9, 80, 5, lt)
	assertLazyMatchesEager(t, lt, g)

	// Leave: every incident arc goes to 0, then the node goes away.
	g.removeNodeReported(2, lt)
	assertLazyMatchesEager(t, lt, g)
	for _, src := range lt.Sources() {
		if src == 2 {
			t.Fatal("removed node still listed as a source")
		}
	}
	if lt.From(2) != nil {
		t.Fatal("removed node still has a row")
	}
}

// TestLazySnapshotPinned: a snapshot keeps answering from the graph as of the
// snapshot, even for rows it materializes after the parent mutated, while the
// parent tracks the live graph.
func TestLazySnapshotPinned(t *testing.T) {
	g := randomTestGraph(3, 25, 3)
	lt := New(g, Options{Lazy: true})
	lt.From(0) // one row materialized pre-snapshot
	wantOld := ComputeAllPairsWorkers(g, 1)

	snap := lt.Snapshot()

	// Mutate the live graph heavily after the snapshot.
	g.setArcReported(0, 1, 9999, 1, lt)
	g.addArcReported(5, 0, 9999, 1, lt)
	g.removeNodeReported(7, lt)

	// The snapshot answers from the pinned graph — including row 7, whose
	// node no longer exists live, and rows it computes only now.
	if !TablesEqual(snap, wantOld) {
		t.Fatal("snapshot diverged from the graph as of the snapshot")
	}
	// The live table answers from the mutated graph.
	assertLazyMatchesEager(t, lt, g)
}

func TestLazyCounters(t *testing.T) {
	reg := metrics.New()
	g := chainGraph()
	lt := New(g, Options{Lazy: true, Metrics: reg})
	lt.From(1)
	lt.From(1)
	g.setArcReported(1, 2, 5, 5, lt)
	lt.Flush()
	snap := reg.Snapshot()
	want := map[string]int64{
		"qos_lazy_rows_computed_total": 1,
		"qos_lazy_row_hits_total":      1,
		"qos_lazy_evicted_rows_total":  1,
	}
	for _, c := range snap.Counters {
		if w, ok := want[c.Key]; ok && c.Value != w {
			t.Fatalf("%s = %d, want %d", c.Key, c.Value, w)
		}
	}
}

func TestLazyPrefetch(t *testing.T) {
	g := randomTestGraph(11, 40, 3)
	for _, workers := range []int{0, 1, 4} {
		lt := New(g, Options{Lazy: true, Workers: workers})
		lt.Prefetch(nil) // no-op
		if got := lt.Stats().Computed; got != 0 {
			t.Fatalf("workers=%d: empty prefetch computed %d rows", workers, got)
		}
		srcs := []int{0, 3, 7, 12, 25}
		lt.Prefetch(srcs)
		if got := lt.Stats().Computed; got != int64(len(srcs)) {
			t.Fatalf("workers=%d: prefetch computed %d rows, want %d", workers, got, len(srcs))
		}
		// Prefetching again is free, and the rows match a scratch table.
		lt.Prefetch(srcs)
		if got := lt.Stats().Computed; got != int64(len(srcs)) {
			t.Fatalf("workers=%d: re-prefetch recomputed (%d rows)", workers, got)
		}
		eager := ComputeAllPairsWorkers(g, 1)
		for _, src := range srcs {
			for _, dst := range g.Nodes() {
				if lt.Metric(src, dst) != eager.Metric(src, dst) {
					t.Fatalf("workers=%d: row %d differs from eager at %d", workers, src, dst)
				}
			}
		}
	}
}
