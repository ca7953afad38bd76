package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func diamond() *Digraph {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 4)
	g.AddEdge(3, 4)
	return g
}

func TestAddAndQuery(t *testing.T) {
	g := diamond()
	if got := g.NumNodes(); got != 4 {
		t.Fatalf("NumNodes = %d, want 4", got)
	}
	if got := g.NumEdges(); got != 4 {
		t.Fatalf("NumEdges = %d, want 4", got)
	}
	if !g.HasEdge(1, 2) || g.HasEdge(2, 1) {
		t.Fatal("edge direction wrong")
	}
	if want := []int{2, 3}; !reflect.DeepEqual(g.Succ(1), want) {
		t.Fatalf("Succ(1) = %v, want %v", g.Succ(1), want)
	}
	if want := []int{2, 3}; !reflect.DeepEqual(g.Pred(4), want) {
		t.Fatalf("Pred(4) = %v, want %v", g.Pred(4), want)
	}
}

func TestAddNodeIdempotent(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddNode(1) // must not clear adjacency
	if !g.HasEdge(1, 2) {
		t.Fatal("AddNode on existing node destroyed edges")
	}
	g.AddEdge(1, 2) // duplicate edge
	if g.NumEdges() != 1 {
		t.Fatalf("duplicate AddEdge created parallel edge: %d edges", g.NumEdges())
	}
}

func TestRemoveEdgeAndNode(t *testing.T) {
	g := diamond()
	g.RemoveNode(3)
	if g.HasNode(3) || g.HasEdge(1, 3) || g.HasEdge(3, 4) {
		t.Fatal("RemoveNode left incident state")
	}
	if want := []int{2}; !reflect.DeepEqual(g.Pred(4), want) || g.NumEdges() != 2 {
		t.Fatalf("Pred(4) after removal = %v, want %v", g.Pred(4), want)
	}
}

func TestSourcesSinks(t *testing.T) {
	g := diamond()
	if want := []int{1}; !reflect.DeepEqual(g.Sources(), want) {
		t.Fatalf("Sources = %v, want %v", g.Sources(), want)
	}
	if want := []int{4}; !reflect.DeepEqual(g.Sinks(), want) {
		t.Fatalf("Sinks = %v, want %v", g.Sinks(), want)
	}
}

func TestTopoSortDeterministic(t *testing.T) {
	g := diamond()
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 3, 4}; !reflect.DeepEqual(order, want) {
		t.Fatalf("TopoSort = %v, want %v", order, want)
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 1)
	if order, err := g.TopoSort(); err == nil || order != nil {
		t.Fatalf("TopoSort on a cycle = %v, %v; want a cycle error", order, err)
	}
}

func TestReachable(t *testing.T) {
	g := diamond()
	g.AddEdge(5, 6) // disconnected component
	if want := []int{1, 2, 3, 4}; !reflect.DeepEqual(g.Reachable(1), want) {
		t.Fatalf("Reachable(1) = %v, want %v", g.Reachable(1), want)
	}
	if want := []int{4}; !reflect.DeepEqual(g.Reachable(4), want) {
		t.Fatalf("Reachable(4) = %v, want %v", g.Reachable(4), want)
	}
	if g.Reachable(99) != nil {
		t.Fatal("Reachable of missing node should be nil")
	}
}

func TestCloneReverseEqual(t *testing.T) {
	g := diamond()
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.AddEdge(4, 5)
	if g.Equal(c) || g.HasNode(5) {
		t.Fatal("clone aliases original")
	}
	// Same nodes, same edge count, every edge flipped: Equal must tell.
	r := New()
	for _, e := range g.Edges() {
		r.AddEdge(e[1], e[0])
	}
	if r.Equal(g) || g.Equal(r) {
		t.Fatal("Equal ignores edge direction")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := diamond()
	sub := g.InducedSubgraph([]int{1, 2, 4, 99})
	if sub.NumNodes() != 3 {
		t.Fatalf("subgraph nodes = %d, want 3", sub.NumNodes())
	}
	if !sub.HasEdge(1, 2) || !sub.HasEdge(2, 4) || sub.HasEdge(1, 3) {
		t.Fatal("subgraph edges wrong")
	}
}

// randomDAG builds a DAG by only adding forward edges over a random
// permutation of n nodes.
func randomDAG(rng *rand.Rand, n int, p float64) *Digraph {
	g := New()
	perm := rng.Perm(n)
	for _, v := range perm {
		g.AddNode(v)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(perm[i], perm[j])
			}
		}
	}
	return g
}

func TestTopoSortPropertyRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g := randomDAG(rng, 2+rng.Intn(30), rng.Float64())
		order, err := g.TopoSort()
		if err != nil {
			t.Fatalf("trial %d: DAG reported cyclic: %v", trial, err)
		}
		pos := make(map[int]int, len(order))
		for i, n := range order {
			pos[n] = i
		}
		for _, e := range g.Edges() {
			if pos[e[0]] >= pos[e[1]] {
				t.Fatalf("trial %d: edge %v violates topo order", trial, e)
			}
		}
	}
}

func TestReachablePropertyMatchesAllPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		g := randomDAG(rng, 2+rng.Intn(12), 0.3)
		nodes := g.Nodes()
		src := nodes[rng.Intn(len(nodes))]
		reach := make(map[int]bool)
		for _, n := range g.Reachable(src) {
			reach[n] = true
		}
		for _, dst := range nodes {
			hasPath := len(allPaths(g, src, dst, 1)) > 0
			if hasPath != reach[dst] {
				t.Fatalf("trial %d: reachability mismatch %d->%d: paths=%v reach=%v",
					trial, src, dst, hasPath, reach[dst])
			}
		}
	}
}

// allPaths enumerates simple directed paths from src to dst, up to limit
// (limit <= 0 means no limit): an exhaustive reachability oracle for small
// graphs.
func allPaths(g *Digraph, src, dst, limit int) [][]int {
	var out [][]int
	var path []int
	onPath := make(map[int]bool)
	var walk func(u int) bool
	walk = func(u int) bool {
		path = append(path, u)
		onPath[u] = true
		defer func() {
			path = path[:len(path)-1]
			onPath[u] = false
		}()
		if u == dst {
			out = append(out, append([]int(nil), path...))
			return limit > 0 && len(out) >= limit
		}
		for _, v := range g.Succ(u) {
			if !onPath[v] && walk(v) {
				return true
			}
		}
		return false
	}
	if g.HasNode(src) && g.HasNode(dst) {
		walk(src)
	}
	return out
}

func TestQuickCloneEqual(t *testing.T) {
	f := func(edges []uint8) bool {
		g := New()
		for i := 0; i+1 < len(edges); i += 2 {
			u, v := int(edges[i]%16), int(edges[i+1]%16)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		return g.Equal(g.Clone()) && g.Clone().NumEdges() == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
