package qos

import (
	"math/rand"
	"reflect"
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
	if len(res.over) != 1 || !reflect.DeepEqual(res.widths, []int64{50}) {
		t.Fatalf("row holds overrides %v for classes %v, want one for class 50", res.over, res.widths)
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
	g.setArc(2, 3, 90, 10)
	inc.OutChanged(2)
	inc.Flush()

	// Node 0 joins ahead of every index and node 2 leaves.
	g.addNode(0)
	inc.NodeAdded(0)
	g.addArc(0, 1, 5, 5)
	inc.OutChanged(0)
	for _, u := range g.removeNode(2) {
		inc.OutChanged(u)
	}
	inc.NodeRemoved(2)
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

// TestOutChangedDirtiesExactlyTheReachers checks, on sparse random graphs with
// dead arcs and isolated nodes, that OutChanged(u) queues exactly the rows
// whose sources reach u, for the eager and the lazy table alike. The rows'
// own reached sets are all either table has to go by.
func TestOutChangedDirtiesExactlyTheReachers(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 25; trial++ {
		g := messyRandomGraph(rng, 4+rng.Intn(12), 0.12)
		for _, u := range g.Nodes() {
			want := reachers(g, u)

			inc := NewIncremental(g, 1, nil)
			inc.OutChanged(u)
			if got := inc.Dirty(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d eager OutChanged(%d): dirty %v, want %v", trial, u, got, want)
			}

			lt := NewLazyAllPairs(g, nil)
			lt.Prefetch(g.Nodes(), 1)
			lt.OutChanged(u)
			if got := lt.Dirty(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d lazy OutChanged(%d): dirty %v, want %v", trial, u, got, want)
			}
			if n := lt.Flush(); n != len(want) {
				t.Fatalf("trial %d lazy flush evicted %d rows, want %d", trial, n, len(want))
			}
		}
	}
}
