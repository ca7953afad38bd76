package qos

import "testing"

// TestSnapshotIsImmutableUnderFlushes takes a snapshot of an eager and of a
// lazy table, then moves the live table through flushes that patch its
// freeze and flushes that re-freeze it. The snapshot must keep answering
// like the oracle on the graph as of the snapshot, for rows read before the
// mutations and for rows it first reads after them. The lazy snapshot still
// owes rows, so it shares the live freeze: the first live flush after it,
// bandwidth-only, must re-freeze instead of patching arcs the snapshot is
// about to route on.
func TestSnapshotIsImmutableUnderFlushes(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		name := "eager"
		if lazy {
			name = "lazy"
		}
		t.Run(name, func(t *testing.T) {
			g := newTestGraph()
			for i := 0; i < 7; i++ {
				g.addArc(i, i+1, int64(100-i), int64(10*(i+1)))
			}
			g.addArc(7, 0, 40, 5)
			live := New(g, Options{Lazy: lazy, Workers: 1})
			live.From(0)
			snap := live.Snapshot()
			want := computeAllPairsRef(g)
			requireResultsEqual(t, "row read before the mutations", snap.From(0), want.From(0))

			// The hazard: row 6 is owed by a lazy snapshot and crosses the
			// arc a bandwidth-only flush rewrites.
			g.adj[6][0].Bandwidth += 50
			live.ArcChanged(6, 7, 94, 144)
			live.Flush()
			requireResultsEqual(t, "first read after a bandwidth-only flush", snap.From(6), want.From(6))

			const k = 3
			for i := 0; i < k; i++ { // flushes that patch the freeze
				g.setArcReported(2, 3, int64(50+i), 30, live)
				live.Flush()
			}
			for i := 0; i < k; i++ { // flushes that re-freeze it
				n := 100 + i
				g.addNode(n)
				live.NodeAdded(n)
				g.addArcReported(n, 0, 70, 1, live)
				g.addArcReported(3, n, 70, 1, live)
				live.Flush()
			}
			if st := live.Stats(); st.Patches < k || st.RefreezesNodes < k {
				t.Fatalf("stats %+v: want at least %d patches and %d node re-freezes", st, k, k)
			}
			if !TablesEqual(snap, want) || !TablesEqual(want, snap) {
				t.Fatal("snapshot diverged from the graph as of the snapshot")
			}
			if !TablesEqual(live, computeAllPairsRef(g)) {
				t.Fatal("live table diverged from the current graph")
			}
		})
	}
}

func TestSnapshotSharesImmutableResults(t *testing.T) {
	g := newTestGraph()
	for i := 0; i < 4; i++ {
		g.addArc(i, i+1, 100, 10)
	}
	ap := ComputeAllPairsWorkers(g, 1)
	snap := ap.Snapshot()
	for _, src := range ap.Sources() {
		if ap.From(src) != snap.From(src) {
			t.Fatalf("snapshot deep-copied source %d; expected shared immutable *Result", src)
		}
	}
	// The row slices themselves must be distinct.
	ap.rows[0] = nil
	if snap.From(0) == nil {
		t.Fatalf("snapshot shares the row slice with the live table")
	}
}
