package qos

import (
	"math/rand"
	"reflect"
	"testing"

	"sflow/internal/metrics"
)

// mutate helpers for testGraph (the adjacency-map Graph of qos_test.go).

func (g *testGraph) setArc(u, v int, bw, lat int64) {
	for i, a := range g.adj[u] {
		if a.To == v {
			g.adj[u][i] = Arc{To: v, Bandwidth: bw, Latency: lat}
			return
		}
	}
	g.addArc(u, v, bw, lat)
}

func (g *testGraph) dropArcTo(u, v int) {
	out := g.adj[u][:0]
	for _, a := range g.adj[u] {
		if a.To != v {
			out = append(out, a)
		}
	}
	g.adj[u] = out
}

func (g *testGraph) removeNode(n int) (inNeighbors []int) {
	delete(g.adj, n)
	for u := range g.adj {
		had := false
		for _, a := range g.adj[u] {
			if a.To == n {
				had = true
			}
		}
		if had {
			g.dropArcTo(u, n)
			inNeighbors = append(inNeighbors, u)
		}
	}
	return inNeighbors
}

// arcReporter is what a mutation report reaches: an Incremental or a
// LazyAllPairs.
type arcReporter interface {
	ArcChanged(u, v int, b, b2 int64)
	NodeAdded(n int)
	NodeRemoved(n int)
}

// arcBW returns the bandwidth of the first arc u -> v, 0 when there is none.
func (g *testGraph) arcBW(u, v int) int64 {
	for _, a := range g.adj[u] {
		if a.To == v {
			return a.Bandwidth
		}
	}
	return 0
}

// setArcReported is setArc reported to ts: the latency may change too, so the
// arc is reported going to 0 and coming back.
func (g *testGraph) setArcReported(u, v int, bw, lat int64, ts ...arcReporter) {
	b := g.arcBW(u, v)
	g.setArc(u, v, bw, lat)
	for _, t := range ts {
		t.ArcChanged(u, v, b, 0)
		t.ArcChanged(u, v, 0, bw)
	}
}

// addArcReported is addArc reported to ts.
func (g *testGraph) addArcReported(u, v int, bw, lat int64, ts ...arcReporter) {
	g.addArc(u, v, bw, lat)
	for _, t := range ts {
		t.ArcChanged(u, v, 0, bw)
	}
}

// dropArcReported is dropArcTo reported to ts, one report per dropped arc.
func (g *testGraph) dropArcReported(u, v int, ts ...arcReporter) {
	var gone []int64
	for _, a := range g.adj[u] {
		if a.To == v {
			gone = append(gone, a.Bandwidth)
		}
	}
	g.dropArcTo(u, v)
	for _, t := range ts {
		for _, b := range gone {
			t.ArcChanged(u, v, b, 0)
		}
	}
}

// removeNodeReported is removeNode reported to ts the way a session reports
// an instance leaving: every incident arc going to 0, then the node.
func (g *testGraph) removeNodeReported(n int, ts ...arcReporter) {
	type arc struct {
		u, v int
		b    int64
	}
	var gone []arc
	for _, a := range g.adj[n] {
		gone = append(gone, arc{n, a.To, a.Bandwidth})
	}
	for _, u := range g.Nodes() {
		for _, a := range g.adj[u] {
			if a.To == n && u != n {
				gone = append(gone, arc{u, n, a.Bandwidth})
			}
		}
	}
	g.removeNode(n)
	for _, t := range ts {
		for _, a := range gone {
			t.ArcChanged(a.u, a.v, a.b, 0)
		}
		t.NodeRemoved(n)
	}
}

func assertMatchesScratch(t *testing.T, inc *Incremental, g Graph) {
	t.Helper()
	got := inc.AllPairs()
	want := ComputeAllPairsWorkers(g, 1)
	if !got.Equal(want) || !want.Equal(got) {
		t.Fatalf("incremental table diverged from scratch:\n got sources %v\nwant sources %v",
			got.Sources(), want.Sources())
	}
}

// chainGraph builds 1 -> 2 -> 3 -> 4 plus an off-path node 5 -> 1.
func chainGraph() *testGraph {
	g := newTestGraph()
	g.addArc(1, 2, 100, 10)
	g.addArc(2, 3, 100, 10)
	g.addArc(3, 4, 100, 10)
	g.addArc(5, 1, 100, 10)
	return g
}

// TestIncrementalDirtySetFollowsArcRules walks both rules on a chain: a
// narrowed tree arc dirties exactly the rows whose paths cross it, and a new
// arc dirties the rows it can widen, but not a row whose classes all lie
// above its width.
func TestIncrementalDirtySetFollowsArcRules(t *testing.T) {
	g := chainGraph()
	inc := NewIncremental(g, 1, nil)
	// (3, 4) is a tree arc of every row that reaches 4 through 3: 1, 2, 3
	// and 5. Row 4 reaches nothing.
	g.setArcReported(3, 4, 50, 20, inc)
	if got, want := inc.Dirty(), []int{1, 2, 3, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dirty = %v, want %v", got, want)
	}
	if n := inc.Flush(); n != 4 {
		t.Fatalf("flush recomputed %d sources, want 4", n)
	}
	assertMatchesScratch(t, inc, g)
	// A 10-wide arc 4 -> 5 reaches 5 from rows 1-4, which did not reach it.
	// Row 5 reaches every node at width 50 or more: nothing in (0, 10]
	// changes, so it keeps its row.
	g.addArcReported(4, 5, 10, 1, inc)
	if got, want := inc.Dirty(), []int{1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dirty = %v, want %v", got, want)
	}
	inc.Flush()
	assertMatchesScratch(t, inc, g)
}

func TestIncrementalNodeLifecycle(t *testing.T) {
	g := chainGraph()
	inc := NewIncremental(g, 1, nil)

	// Join: the new node needs its own run; links arrive as ArcChanged.
	g.addNode(9)
	inc.NodeAdded(9)
	g.addArcReported(9, 2, 80, 5, inc)
	g.addArcReported(4, 9, 80, 5, inc)
	inc.Flush()
	assertMatchesScratch(t, inc, g)

	// Leave: every incident arc goes to 0, so the rows that crossed it redo.
	g.removeNodeReported(2, inc)
	inc.Flush()
	assertMatchesScratch(t, inc, g)
	for _, src := range inc.AllPairs().Sources() {
		if src == 2 {
			t.Fatal("removed node still has a result")
		}
	}
}

func TestIncrementalDirtySourceRemovedBeforeFlush(t *testing.T) {
	g := chainGraph()
	inc := NewIncremental(g, 1, nil)
	// Dirty node 5 (it reaches everything), then remove it before flushing:
	// the flush must drop it, not recompute it.
	g.setArcReported(1, 2, 42, 7, inc)
	g.removeNodeReported(5, inc)
	inc.Flush()
	assertMatchesScratch(t, inc, g)
}

func TestIncrementalAddedThenRemovedBeforeFlush(t *testing.T) {
	g := chainGraph()
	inc := NewIncremental(g, 1, nil)
	g.addNode(7)
	inc.NodeAdded(7)
	g.removeNodeReported(7, inc)
	if n := inc.Flush(); n != 0 {
		t.Fatalf("flush recomputed %d sources for a node that came and went", n)
	}
	assertMatchesScratch(t, inc, g)
}

// TestIncrementalRandomTraceAllWorkerCounts drives random mutations against
// the reverse-dependency bookkeeping at several flush fan-outs; every flush
// must land byte-identical to the sequential scratch table.
func TestIncrementalRandomTraceAllWorkerCounts(t *testing.T) {
	for _, workers := range []int{1, 2, 0} {
		rng := rand.New(rand.NewSource(int64(37 + workers)))
		g := randomGraph(rng, 16, 0.25)
		inc := NewIncremental(g, workers, nil)
		next := 100
		steps := 300
		if testing.Short() {
			steps = 80
		}
		for i := 0; i < steps; i++ {
			nodes := g.Nodes()
			switch rng.Intn(4) {
			case 0: // re-weight or add an arc
				u := nodes[rng.Intn(len(nodes))]
				v := nodes[rng.Intn(len(nodes))]
				if u == v {
					continue
				}
				g.setArcReported(u, v, 1+rng.Int63n(100), rng.Int63n(50), inc)
			case 1: // drop an arc
				u := nodes[rng.Intn(len(nodes))]
				if len(g.adj[u]) == 0 {
					continue
				}
				g.dropArcReported(u, g.adj[u][rng.Intn(len(g.adj[u]))].To, inc)
			case 2: // add a node with one arc each way
				n := next
				next++
				g.addNode(n)
				inc.NodeAdded(n)
				peer := nodes[rng.Intn(len(nodes))]
				g.setArcReported(n, peer, 1+rng.Int63n(100), rng.Int63n(50), inc)
				peer = nodes[rng.Intn(len(nodes))]
				if peer != n {
					g.setArcReported(peer, n, 1+rng.Int63n(100), rng.Int63n(50), inc)
				}
			case 3: // remove a node
				if len(nodes) <= 4 {
					continue
				}
				g.removeNodeReported(nodes[rng.Intn(len(nodes))], inc)
			}
			if i%5 == 0 {
				assertMatchesScratch(t, inc, g)
			}
		}
		assertMatchesScratch(t, inc, g)
	}
}

func TestIncrementalCounters(t *testing.T) {
	reg := metrics.New()
	g := chainGraph()
	inc := NewIncremental(g, 1, reg)
	g.setArcReported(3, 4, 50, 20, inc)
	inc.Flush()
	if got := reg.Counter("qos_incremental_flushes_total").Value(); got != 1 {
		t.Fatalf("flushes counter = %d", got)
	}
	if got := reg.Counter("qos_incremental_recomputed_sources_total").Value(); got != 4 {
		t.Fatalf("recomputed counter = %d", got)
	}
	// 5 nodes, 4 recomputed: one source saved versus a full rebuild.
	if got := reg.Counter("qos_incremental_saved_sources_total").Value(); got != 1 {
		t.Fatalf("saved counter = %d", got)
	}
	// The narrowing dirtied the four rows; the arc coming back at width 50
	// found them queued already. The arc kept its slot: one patch, no
	// re-freeze.
	label := func(k, v string) metrics.Option { return metrics.WithLabels(metrics.Label{Name: k, Value: v}) }
	for _, c := range []struct {
		name, k, v string
		want       int64
	}{
		{"qos_incremental_rows_dirtied_total", "rule", "worsening", 4},
		{"qos_incremental_rows_dirtied_total", "rule", "improvement", 0},
		{"qos_incremental_refreezes_total", "cause", "nodes", 0},
		{"qos_incremental_refreezes_total", "cause", "arc", 0},
	} {
		if got := reg.Counter(c.name, label(c.k, c.v)).Value(); got != c.want {
			t.Fatalf("%s{%s=%q} = %d, want %d", c.name, c.k, c.v, got, c.want)
		}
	}
	if st := inc.Stats(); st.Patches != 1 || st.DirtiedWorsening != 4 {
		t.Fatalf("stats = %+v, want one patch and four rows dirtied by worsening", st)
	}
}

func TestAllPairsEqual(t *testing.T) {
	g := chainGraph()
	a := ComputeAllPairsWorkers(g, 1)
	b := ComputeAllPairsWorkers(g, 1)
	if !a.Equal(b) {
		t.Fatal("identical tables compare unequal")
	}
	// Different metric.
	h := chainGraph()
	h.setArc(1, 2, 99, 10)
	if a.Equal(ComputeAllPairsWorkers(h, 1)) {
		t.Fatal("tables with different metrics compare equal")
	}
	// Same metrics, different selected path: two equal-quality routes.
	p1 := newTestGraph()
	p1.addArc(1, 2, 10, 5)
	p1.addArc(2, 4, 10, 5)
	p1.addArc(1, 3, 10, 5)
	p1.addArc(3, 4, 10, 5)
	p2 := newTestGraph()
	p2.addArc(1, 3, 10, 5)
	p2.addArc(3, 4, 10, 5)
	ap1 := ComputeAllPairsWorkers(p1, 1)
	ap2 := ComputeAllPairsWorkers(p2, 1)
	if ap1.Equal(ap2) {
		t.Fatal("tables over different graphs compare equal")
	}
	// Different source sets.
	i := chainGraph()
	i.addNode(42)
	if a.Equal(ComputeAllPairsWorkers(i, 1)) {
		t.Fatal("tables with different source sets compare equal")
	}
}
