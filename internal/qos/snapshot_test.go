package qos

import "testing"

func TestSnapshotIsImmutableUnderFlushes(t *testing.T) {
	g := newTestGraph()
	for i := 0; i < 7; i++ {
		g.addArc(i, i+1, int64(100-i), int64(10*(i+1)))
	}

	inc := NewIncremental(g, 1, nil)
	snap := inc.AllPairs().Snapshot()
	want := ComputeAllPairs(g)
	if !snap.Equal(want) {
		t.Fatalf("snapshot does not equal a from-scratch table before mutation")
	}

	// Mutate: cut the chain in the middle and flush the live table.
	g.dropArcReported(3, 4, inc)
	inc.Flush()

	// The live table moved on...
	if inc.AllPairs().Metric(0, 7).Reachable() {
		t.Fatalf("live table still routes across the removed arc")
	}
	// ...but the snapshot still answers from the pre-mutation world.
	if !snap.Equal(want) {
		t.Fatalf("snapshot changed under a later flush")
	}
	if m := snap.Metric(0, 7); !m.Reachable() {
		t.Fatalf("snapshot lost reachability it had at capture time")
	}
}

func TestSnapshotSharesImmutableResults(t *testing.T) {
	g := newTestGraph()
	for i := 0; i < 4; i++ {
		g.addArc(i, i+1, 100, 10)
	}
	ap := ComputeAllPairs(g)
	snap := ap.Snapshot()
	for _, src := range ap.Sources() {
		if ap.From(src) != snap.From(src) {
			t.Fatalf("snapshot deep-copied source %d; expected shared immutable *Result", src)
		}
	}
	// The maps themselves must be distinct.
	delete(ap.results, 0)
	if snap.From(0) == nil {
		t.Fatalf("snapshot shares the results map with the live table")
	}
}
