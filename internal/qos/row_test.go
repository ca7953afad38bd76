package qos

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// TestRowClassCrossing is the case a single predecessor tree gets wrong: node
// 3 is wide by way of 2, but the narrower class of node 4 reaches 3 directly
// over a link too narrow for 3's own path. The path to 4 must enter 3 from 1,
// the path to 3 from 2, and the row must hold exactly the one override that
// says so.
func TestRowClassCrossing(t *testing.T) {
	g := newTestGraph()
	g.addArc(1, 2, 100, 10)
	g.addArc(2, 3, 100, 10)
	g.addArc(1, 3, 50, 1)
	g.addArc(3, 4, 50, 1)
	checkAllSources(t, "class crossing", g)

	res := ShortestWidestCSR(FreezeGraph(g), 1, nil)
	if got, want := res.PathTo(3), []int{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("PathTo(3) = %v, want %v", got, want)
	}
	if got, want := res.PathTo(4), []int{1, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("PathTo(4) = %v, want %v (3's own parent is the wrong way in)", got, want)
	}
	if got := res.Metric(4); got != (Metric{Bandwidth: 50, Latency: 2}) {
		t.Fatalf("Metric(4) = %+v, want {50 2}", got)
	}
	if len(res.over) != 1 || !reflect.DeepEqual(res.widths, []int64{100, 50}) || !reflect.DeepEqual(res.overOff, []int32{0, 0, 1}) {
		t.Fatalf("row holds overrides %v at %v for classes %v, want one for class 50", res.over, res.overOff, res.widths)
	}
}

// TestRowOverridesMatchOracle runs the dense-vs-oracle comparison where
// overrides are common: few width tiers on graphs large enough for narrow
// classes to cut across wide nodes' own paths. It also requires that the rows
// really carried overrides, so the comparison cannot pass by never taking
// that branch.
func TestRowOverridesMatchOracle(t *testing.T) {
	overrides := 0
	for _, tiers := range []int{2, 3, 6} {
		g := largeTierGraph(60, 2, tiers)
		checkAllSources(t, "tiered", g)
		cg := FreezeGraph(g)
		sc := NewScratch()
		for _, src := range g.Nodes() {
			overrides += len(ShortestWidestCSR(cg, src, sc).over)
		}
	}
	if overrides == 0 {
		t.Fatal("no row carried an override: the battery does not exercise them")
	}
}

// TestRowSurvivesIncrementalRefreeze holds rows across flushes that re-freeze
// the Incremental's CSR graph in place with a different node list. A row
// answers from the mapping of the graph it was computed on, whatever happened
// to that graph since.
func TestRowSurvivesIncrementalRefreeze(t *testing.T) {
	g := newTestGraph()
	g.addArc(1, 2, 100, 10)
	g.addArc(2, 3, 100, 10)
	g.addArc(10, 11, 40, 7)
	inc := NewIncremental(g, 1, nil)
	far := inc.AllPairs().From(10) // reaches nothing the mutations touch
	old := inc.AllPairs().From(1)  // will be recomputed; the old row is kept here

	// A link change alone: the flush re-freezes over the same node list.
	g.setArcReported(2, 3, 90, 10, inc)
	inc.Flush()

	// Node 0 joins ahead of every index and node 2 leaves.
	g.addNode(0)
	inc.NodeAdded(0)
	g.addArcReported(0, 1, 5, 5, inc)
	g.removeNodeReported(2, inc)
	inc.Flush()
	assertMatchesScratch(t, inc, g)

	if inc.AllPairs().From(10) != far {
		t.Fatal("the untouched row was recomputed")
	}
	if got, want := far.PathTo(11), []int{10, 11}; !reflect.DeepEqual(got, want) || far.Metric(11) != (Metric{Bandwidth: 40, Latency: 7}) {
		t.Fatalf("kept row: PathTo(11) = %v Metric(11) = %+v", got, far.Metric(11))
	}
	if far.Metric(0).Reachable() || far.Metric(2).Reachable() {
		t.Fatal("kept row reaches nodes of a later freeze")
	}
	// The superseded row still describes the graph it was computed on.
	if got, want := old.PathTo(3), []int{1, 2, 3}; !reflect.DeepEqual(got, want) || old.Metric(3) != (Metric{Bandwidth: 100, Latency: 20}) {
		t.Fatalf("superseded row: PathTo(3) = %v Metric(3) = %+v", got, old.Metric(3))
	}
	if got := inc.AllPairs().From(1); got.Metric(3).Reachable() || got.Metric(2).Reachable() {
		t.Fatalf("current row still reaches through the removed node: %+v", got.Metric(3))
	}
}

// reachers returns the sources of g that reach u, ascending, by plain search.
func reachers(g *testGraph, u int) []int {
	var out []int
	for _, src := range g.Nodes() {
		seen := map[int]bool{src: true}
		for stack := []int{src}; len(stack) > 0; {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, a := range g.Out(n) {
				if a.Bandwidth > 0 && !seen[a.To] {
					seen[a.To] = true
					stack = append(stack, a.To)
				}
			}
		}
		if seen[u] {
			out = append(out, src)
		}
	}
	sort.Ints(out)
	return out
}

// TestArcChangedDirtiesOnlyMovableRows checks, on sparse random graphs with
// dead arcs, parallel arcs and isolated nodes, every kind of arc change
// against every row: the eager and the lazy table queue the same rows, only
// rows whose sources reach the arc's tail, and every row they keep equals a
// fresh row on the changed graph.
func TestArcChangedDirtiesOnlyMovableRows(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var kept, dirtied int
	for trial := 0; trial < 25; trial++ {
		g := messyRandomGraph(rng, 4+rng.Intn(12), 0.12)
		for _, u := range g.Nodes() {
			nodes := g.Nodes()
			v := nodes[rng.Intn(len(nodes))]
			if u == v {
				continue
			}
			mayMove := reachers(g, u)
			inc := NewIncremental(g, 1, nil)
			lt := NewLazyAllPairs(g, nil)
			lt.Prefetch(nodes, 1)
			before := map[int]*Result{}
			for _, src := range nodes {
				before[src] = inc.AllPairs().From(src)
			}
			// Narrow (maybe to nothing: a dead arc is an absent one) or widen
			// the first arc u -> v, or add one.
			if b := g.arcBW(u, v); b > 0 {
				nb := b + 1 + rng.Int63n(100)
				if rng.Intn(2) == 0 {
					nb = b - 1 - rng.Int63n(b)
				}
				for i, a := range g.adj[u] {
					if a.To == v {
						g.adj[u][i].Bandwidth = nb
						break
					}
				}
				inc.ArcChanged(u, v, b, nb)
				lt.ArcChanged(u, v, b, nb)
			} else {
				g.addArcReported(u, v, 1+rng.Int63n(100), rng.Int63n(1000), inc, lt)
			}
			dirty := inc.Dirty()
			if got := lt.Dirty(); !reflect.DeepEqual(got, dirty) {
				t.Fatalf("trial %d arc %d->%d: lazy dirty %v, eager %v", trial, u, v, got, dirty)
			}
			for _, src := range dirty {
				if i := sort.SearchInts(mayMove, src); i == len(mayMove) || mayMove[i] != src {
					t.Fatalf("trial %d arc %d->%d: dirtied row %d, which does not reach %d", trial, u, v, src, u)
				}
			}
			assertMatchesScratch(t, inc, g)
			assertLazyMatchesEager(t, lt, g)
			for _, src := range nodes {
				if inc.AllPairs().From(src) == before[src] {
					kept++
				} else {
					dirtied++
				}
			}
		}
	}
	t.Logf("%d rows kept, %d recomputed", kept, dirtied)
}

// TestArcChangedImprovementBoundaries pins canMove's improvement rule at both
// edges of its width range (b, hi], hi = min(b2, W(u)), for the row of
// source 1: the rule must keep the row, the eager and lazy tables must not
// queue it, and the kept row must equal a fresh one on the changed graph.
func TestArcChangedImprovementBoundaries(t *testing.T) {
	cases := []struct {
		name  string
		arcs  [][3]int64 // from, to, bandwidth; every latency is 1
		u, v  int
		b, b2 int64
	}{{
		// W(u) == b: the widened arc 2 -> 3 already carried u's whole
		// width, so the range (b, hi] is empty.
		name: "W(u)==b",
		arcs: [][3]int64{{1, 2, 10}, {2, 3, 10}, {1, 3, 5}, {3, 4, 20}},
		u:    2, v: 3, b: 10, b2: 50,
	}, {
		// W(v) == hi with no class in (b, hi]: a self-loop at the source
		// widened to InfBandwidth, where W(v) == W(u) == hi ==
		// InfBandwidth and every class is no wider than b.
		name: "W(v)==hi",
		arcs: [][3]int64{{1, 2, 10}, {2, 3, 5}, {1, 1, 10}},
		u:    1, v: 1, b: 10, b2: InfBandwidth,
	}}
	for _, tc := range cases {
		g := newTestGraph()
		for _, a := range tc.arcs {
			g.addArc(int(a[0]), int(a[1]), a[2], 1)
		}
		inc := NewIncremental(g, 1, nil)
		lt := NewLazyAllPairs(g, nil)
		lt.Prefetch(g.Nodes(), 1)
		kept := inc.AllPairs().From(1)
		iu, iv := kept.idx[tc.u], kept.idx[tc.v]

		g.setArc(tc.u, tc.v, tc.b2, 1)
		if kept.canMove(iu, iv, tc.b, tc.b2) {
			t.Fatalf("%s: canMove(%d -> %d, %d -> %d) = true", tc.name, tc.u, tc.v, tc.b, tc.b2)
		}
		if fresh := ShortestWidestCSR(FreezeGraph(g), 1, nil); !kept.Equal(fresh) {
			t.Fatalf("%s: kept row differs from a fresh one", tc.name)
		}
		inc.ArcChanged(tc.u, tc.v, tc.b, tc.b2)
		lt.ArcChanged(tc.u, tc.v, tc.b, tc.b2)
		for _, dirty := range [][]int{inc.Dirty(), lt.Dirty()} {
			if slices.Contains(dirty, 1) {
				t.Fatalf("%s: row 1 queued: %v", tc.name, dirty)
			}
		}
		assertMatchesScratch(t, inc, g)
		assertLazyMatchesEager(t, lt, g)
		if inc.AllPairs().From(1) != kept {
			t.Fatalf("%s: the eager table recomputed row 1", tc.name)
		}
	}
}
