// Package graph provides directed-graph primitives shared by every other
// subsystem: adjacency bookkeeping, topological ordering, cycle detection,
// reachability and induced subgraphs.
//
// Node identifiers are plain ints so that overlay node identifiers (NIDs) and
// requirement service identifiers (SIDs) can be used directly. All accessors
// return nodes in sorted order so that algorithms built on top of the package
// are deterministic.
package graph

import (
	"fmt"
	"slices"
	"strings"
)

// Digraph is a simple directed graph (no parallel edges, no self-loops by
// construction unless explicitly added). The zero value is an empty graph.
//
// Nodes are kept in ascending order, and every node's successors and
// predecessors are ascending id slices, so the accessors copy instead of
// sorting. A node's position in that order is its dense index (Index).
type Digraph struct {
	nodes []int   // ascending
	succ  [][]int // succ[i]: successors of nodes[i], ascending
	pred  [][]int // pred[i]: predecessors of nodes[i], ascending
}

// New returns an empty directed graph.
func New() *Digraph { return &Digraph{} }

// Build returns the graph over nodes plus every endpoint of edges, with the
// given edges. Duplicates in either list are ignored; neither list is
// modified. The adjacency lists share one backing array, each capped at its
// own range, so later edits never write into a neighbour's list.
func Build(nodes []int, edges [][2]int) *Digraph {
	var idBuf [64]int
	ids := append(idBuf[:0], nodes...)
	for _, e := range edges {
		ids = append(ids, e[0], e[1])
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	n, m := len(ids), len(edges)
	if n == 0 {
		return &Digraph{}
	}
	// One array: the nodes, then the successor lists, then the predecessor
	// lists, each list a run of its node's degree.
	backing := make([]int, n+2*m)
	adj := make([][]int, 2*n)
	g := &Digraph{nodes: backing[:n:n], succ: adj[:n:n], pred: adj[n:]}
	copy(g.nodes, ids)
	var degBuf [64]int
	deg := degBuf[:]
	if 2*n > len(deg) {
		deg = make([]int, 2*n)
	}
	deg = deg[:2*n]
	for _, e := range edges {
		deg[g.Index(e[0])]++
		deg[n+g.Index(e[1])]++
	}
	at := n
	for i, d := range deg {
		adj[i] = backing[at : at : at+d]
		at += d
	}
	for _, e := range edges {
		u, v := g.Index(e[0]), g.Index(e[1])
		g.succ[u] = append(g.succ[u], e[1])
		g.pred[v] = append(g.pred[v], e[0])
	}
	for i, l := range adj {
		slices.Sort(l)
		adj[i] = slices.Compact(l)
	}
	return g
}

// Index returns n's position in Nodes(), or -1 if n is not a node.
func (g *Digraph) Index(n int) int {
	if i, ok := slices.BinarySearch(g.nodes, n); ok {
		return i
	}
	return -1
}

// SuccAt returns the successors of the node at position i of Nodes(),
// ascending. The slice is the graph's own: callers must not modify it.
func (g *Digraph) SuccAt(i int) []int { return g.succ[i] }

// AddNode inserts node n if not already present.
func (g *Digraph) AddNode(n int) {
	i, ok := slices.BinarySearch(g.nodes, n)
	if ok {
		return
	}
	g.nodes = slices.Insert(g.nodes, i, n)
	g.succ = slices.Insert(g.succ, i, nil)
	g.pred = slices.Insert(g.pred, i, nil)
}

// HasNode reports whether n is a node of g.
func (g *Digraph) HasNode(n int) bool { return g.Index(n) >= 0 }

// AddEdge inserts the edge u -> v, adding the endpoints as needed.
func (g *Digraph) AddEdge(u, v int) {
	g.AddNode(u)
	g.AddNode(v)
	iu, iv := g.Index(u), g.Index(v)
	g.succ[iu] = insertSorted(g.succ[iu], v)
	g.pred[iv] = insertSorted(g.pred[iv], u)
}

// HasEdge reports whether the edge u -> v exists.
func (g *Digraph) HasEdge(u, v int) bool {
	i := g.Index(u)
	if i < 0 {
		return false
	}
	_, ok := slices.BinarySearch(g.succ[i], v)
	return ok
}

// RemoveNode deletes node n and all incident edges.
func (g *Digraph) RemoveNode(n int) {
	i := g.Index(n)
	if i < 0 {
		return
	}
	for _, v := range g.succ[i] {
		j := g.Index(v)
		g.pred[j] = deleteSorted(g.pred[j], n)
	}
	for _, u := range g.pred[i] {
		j := g.Index(u)
		g.succ[j] = deleteSorted(g.succ[j], n)
	}
	g.nodes = slices.Delete(g.nodes, i, i+1)
	g.succ = slices.Delete(g.succ, i, i+1)
	g.pred = slices.Delete(g.pred, i, i+1)
}

// NumNodes returns the number of nodes.
func (g *Digraph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of edges.
func (g *Digraph) NumEdges() int {
	n := 0
	for _, s := range g.succ {
		n += len(s)
	}
	return n
}

// Nodes returns all nodes in ascending order.
func (g *Digraph) Nodes() []int { return clone(g.nodes) }

// Succ returns the successors of n in ascending order.
func (g *Digraph) Succ(n int) []int {
	if i := g.Index(n); i >= 0 {
		return clone(g.succ[i])
	}
	return []int{}
}

// Pred returns the predecessors of n in ascending order.
func (g *Digraph) Pred(n int) []int {
	if i := g.Index(n); i >= 0 {
		return clone(g.pred[i])
	}
	return []int{}
}

// OutDegree returns the out-degree of n.
func (g *Digraph) OutDegree(n int) int {
	if i := g.Index(n); i >= 0 {
		return len(g.succ[i])
	}
	return 0
}

// InDegree returns the in-degree of n.
func (g *Digraph) InDegree(n int) int {
	if i := g.Index(n); i >= 0 {
		return len(g.pred[i])
	}
	return 0
}

// Sources returns all nodes with in-degree zero, ascending.
func (g *Digraph) Sources() []int { return g.nodesWithout(g.pred) }

// Sinks returns all nodes with out-degree zero, ascending.
func (g *Digraph) Sinks() []int { return g.nodesWithout(g.succ) }

// nodesWithout returns the nodes whose list in adj is empty, ascending.
func (g *Digraph) nodesWithout(adj [][]int) []int {
	var out []int
	for i, l := range adj {
		if len(l) == 0 {
			out = append(out, g.nodes[i])
		}
	}
	return out
}

// Edges returns all edges as [2]int{u, v} pairs in lexicographic order.
func (g *Digraph) Edges() [][2]int {
	out := make([][2]int, 0, g.NumEdges())
	for i, s := range g.succ {
		for _, v := range s {
			out = append(out, [2]int{g.nodes[i], v})
		}
	}
	return out
}

// Clone returns a deep copy of g.
func (g *Digraph) Clone() *Digraph { return Build(g.nodes, g.Edges()) }

// InducedSubgraph returns the subgraph of g induced by the given node set.
func (g *Digraph) InducedSubgraph(nodes []int) *Digraph {
	keep := make([]bool, len(g.nodes))
	for _, n := range nodes {
		if i := g.Index(n); i >= 0 {
			keep[i] = true
		}
	}
	var ids []int
	var edges [][2]int
	for i, u := range g.nodes {
		if !keep[i] {
			continue
		}
		ids = append(ids, u)
		for _, v := range g.succ[i] {
			if keep[g.Index(v)] {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return Build(ids, edges)
}

// TopoSort returns a topological order of g, preferring smaller node
// identifiers first (deterministic Kahn's algorithm). It returns an error if
// the graph contains a cycle.
func (g *Digraph) TopoSort() ([]int, error) {
	n := len(g.nodes)
	var indegBuf, heapBuf [64]int
	indeg, ready := indegBuf[:0], heapBuf[:0]
	// Positions are ordered like ids, so the heap holds positions.
	for i, p := range g.pred {
		indeg = append(indeg, len(p))
		if len(p) == 0 {
			ready = heapPush(ready, i)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		var i int
		i, ready = heapPop(ready)
		order = append(order, g.nodes[i])
		for _, v := range g.succ[i] {
			j := g.Index(v)
			indeg[j]--
			if indeg[j] == 0 {
				ready = heapPush(ready, j)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("graph: cycle detected (%d of %d nodes ordered)", len(order), n)
	}
	return order, nil
}

// Reachable returns the set of nodes reachable from src (including src),
// ascending.
func (g *Digraph) Reachable(src int) []int {
	s := g.Index(src)
	if s < 0 {
		return nil
	}
	seen := make([]bool, len(g.nodes))
	seen[s] = true
	count := 1
	stack := []int{s}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.succ[u] {
			if j := g.Index(v); !seen[j] {
				seen[j] = true
				count++
				stack = append(stack, j)
			}
		}
	}
	out := make([]int, 0, count)
	for i, ok := range seen {
		if ok {
			out = append(out, g.nodes[i])
		}
	}
	return out
}

// Equal reports whether g and o have identical node and edge sets.
func (g *Digraph) Equal(o *Digraph) bool {
	return slices.Equal(g.nodes, o.nodes) &&
		slices.EqualFunc(g.succ, o.succ, func(a, b []int) bool { return slices.Equal(a, b) })
}

// String renders the graph as "n: succ..." lines, for debugging.
func (g *Digraph) String() string {
	var b strings.Builder
	for i, n := range g.nodes {
		fmt.Fprintf(&b, "%d:", n)
		for _, v := range g.succ[i] {
			fmt.Fprintf(&b, " %d", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// clone returns a copy of s that is never nil.
func clone(s []int) []int {
	out := make([]int, len(s))
	copy(out, s)
	return out
}

// insertSorted adds x to the ascending list s unless present.
func insertSorted(s []int, x int) []int {
	i, ok := slices.BinarySearch(s, x)
	if ok {
		return s
	}
	return slices.Insert(s, i, x)
}

// deleteSorted removes x from the ascending list s if present.
func deleteSorted(s []int, x int) []int {
	if i, ok := slices.BinarySearch(s, x); ok {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// heapPush and heapPop keep a tiny min-heap of ints in a slice, the
// deterministic tie-break of TopoSort.
func heapPush(a []int, x int) []int {
	a = append(a, x)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p] <= a[i] {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
	return a
}

func heapPop(a []int) (int, []int) {
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(a) && a[l] < a[small] {
			small = l
		}
		if r < len(a) && a[r] < a[small] {
			small = r
		}
		if small == i {
			break
		}
		a[i], a[small] = a[small], a[i]
		i = small
	}
	return top, a
}
