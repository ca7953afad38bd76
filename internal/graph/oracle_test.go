package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// mapDigraph is a map-backed digraph, the oracle for Digraph: every
// accessor of Digraph must answer as it does after any sequence of edits.
type mapDigraph struct {
	succ map[int]map[int]struct{}
	pred map[int]map[int]struct{}
}

func newMap() *mapDigraph {
	return &mapDigraph{
		succ: make(map[int]map[int]struct{}),
		pred: make(map[int]map[int]struct{}),
	}
}

func (g *mapDigraph) AddNode(n int) {
	if _, ok := g.succ[n]; ok {
		return
	}
	g.succ[n] = make(map[int]struct{})
	g.pred[n] = make(map[int]struct{})
}

func (g *mapDigraph) HasNode(n int) bool {
	_, ok := g.succ[n]
	return ok
}

func (g *mapDigraph) AddEdge(u, v int) {
	g.AddNode(u)
	g.AddNode(v)
	g.succ[u][v] = struct{}{}
	g.pred[v][u] = struct{}{}
}

func (g *mapDigraph) HasEdge(u, v int) bool {
	s, ok := g.succ[u]
	if !ok {
		return false
	}
	_, ok = s[v]
	return ok
}

func (g *mapDigraph) RemoveNode(n int) {
	for v := range g.succ[n] {
		delete(g.pred[v], n)
	}
	for u := range g.pred[n] {
		delete(g.succ[u], n)
	}
	delete(g.succ, n)
	delete(g.pred, n)
}

func (g *mapDigraph) NumNodes() int { return len(g.succ) }

func (g *mapDigraph) NumEdges() int {
	n := 0
	for _, s := range g.succ {
		n += len(s)
	}
	return n
}

func (g *mapDigraph) Nodes() []int     { return sortedKeys(g.succ) }
func (g *mapDigraph) Succ(n int) []int { return sortedKeys(g.succ[n]) }
func (g *mapDigraph) Pred(n int) []int { return sortedKeys(g.pred[n]) }
func (g *mapDigraph) OutDegree(n int) int {
	return len(g.succ[n])
}
func (g *mapDigraph) InDegree(n int) int { return len(g.pred[n]) }

func (g *mapDigraph) Sources() []int {
	var out []int
	for n, p := range g.pred {
		if len(p) == 0 {
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out
}

func (g *mapDigraph) Sinks() []int {
	var out []int
	for n, s := range g.succ {
		if len(s) == 0 {
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out
}

func (g *mapDigraph) Edges() [][2]int {
	out := make([][2]int, 0, g.NumEdges())
	for _, u := range g.Nodes() {
		for _, v := range g.Succ(u) {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

func (g *mapDigraph) InducedSubgraph(nodes []int) *mapDigraph {
	keep := make(map[int]struct{}, len(nodes))
	for _, n := range nodes {
		if g.HasNode(n) {
			keep[n] = struct{}{}
		}
	}
	sub := newMap()
	for n := range keep {
		sub.AddNode(n)
	}
	for u := range keep {
		for v := range g.succ[u] {
			if _, ok := keep[v]; ok {
				sub.AddEdge(u, v)
			}
		}
	}
	return sub
}

func (g *mapDigraph) TopoSort() ([]int, error) {
	indeg := make(map[int]int, len(g.succ))
	for n, p := range g.pred {
		indeg[n] = len(p)
	}
	var ready []int
	for n, d := range indeg {
		if d == 0 {
			ready = heapPush(ready, n)
		}
	}
	order := make([]int, 0, len(g.succ))
	for len(ready) > 0 {
		var n int
		n, ready = heapPop(ready)
		order = append(order, n)
		for _, v := range g.Succ(n) {
			indeg[v]--
			if indeg[v] == 0 {
				ready = heapPush(ready, v)
			}
		}
	}
	if len(order) != len(g.succ) {
		return nil, fmt.Errorf("graph: cycle detected (%d of %d nodes ordered)", len(order), len(g.succ))
	}
	return order, nil
}

func (g *mapDigraph) Reachable(src int) []int {
	if !g.HasNode(src) {
		return nil
	}
	seen := map[int]struct{}{src: {}}
	stack := []int{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for v := range g.succ[u] {
			if _, ok := seen[v]; !ok {
				seen[v] = struct{}{}
				stack = append(stack, v)
			}
		}
	}
	return sortedKeys(seen)
}

func (g *mapDigraph) Equal(o *mapDigraph) bool {
	if g.NumNodes() != o.NumNodes() || g.NumEdges() != o.NumEdges() {
		return false
	}
	for n := range g.succ {
		if !o.HasNode(n) {
			return false
		}
		for v := range g.succ[n] {
			if !o.HasEdge(n, v) {
				return false
			}
		}
	}
	return true
}

func (g *mapDigraph) String() string {
	var b strings.Builder
	for _, n := range g.Nodes() {
		fmt.Fprintf(&b, "%d:", n)
		for _, v := range g.Succ(n) {
			fmt.Fprintf(&b, " %d", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// oraclePair drives a Digraph and the map oracle through the same edits.
type oraclePair struct {
	g *Digraph
	o *mapDigraph
}

// apply decodes one edit from three bytes: an opcode and two node ids drawn
// from a small id space, so edits collide, repeat and form cycles.
func (p oraclePair) apply(op, a, b byte) string {
	u, v := int(a%12)-2, int(b%12)-2 // negative ids too
	switch op % 4 {
	case 0:
		p.g.AddNode(u)
		p.o.AddNode(u)
		return fmt.Sprintf("AddNode(%d)", u)
	case 3:
		p.g.RemoveNode(u)
		p.o.RemoveNode(u)
		return fmt.Sprintf("RemoveNode(%d)", u)
	default:
		p.g.AddEdge(u, v)
		p.o.AddEdge(u, v)
		return fmt.Sprintf("AddEdge(%d,%d)", u, v)
	}
}

// compare checks every accessor of p.g against the oracle and returns the
// first disagreement.
func (p oraclePair) compare() error {
	g, o := p.g, p.o
	eq := func(name string, got, want any) error {
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s = %v, oracle %v", name, got, want)
		}
		return nil
	}
	gOrder, gErr := g.TopoSort()
	oOrder, oErr := o.TopoSort()
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	checks := []error{
		eq("NumNodes", g.NumNodes(), o.NumNodes()),
		eq("NumEdges", g.NumEdges(), o.NumEdges()),
		eq("Nodes", g.Nodes(), o.Nodes()),
		eq("Edges", g.Edges(), o.Edges()),
		eq("Sources", g.Sources(), o.Sources()),
		eq("Sinks", g.Sinks(), o.Sinks()),
		eq("TopoSort", gOrder, oOrder),
		eq("TopoSort error", errText(gErr), errText(oErr)),
		eq("String", g.String(), o.String()),
	}
	for n := -3; n <= 10; n++ {
		checks = append(checks,
			eq(fmt.Sprintf("HasNode(%d)", n), g.HasNode(n), o.HasNode(n)),
			eq(fmt.Sprintf("Succ(%d)", n), g.Succ(n), o.Succ(n)),
			eq(fmt.Sprintf("Pred(%d)", n), g.Pred(n), o.Pred(n)),
			eq(fmt.Sprintf("OutDegree(%d)", n), g.OutDegree(n), o.OutDegree(n)),
			eq(fmt.Sprintf("InDegree(%d)", n), g.InDegree(n), o.InDegree(n)),
			eq(fmt.Sprintf("Reachable(%d)", n), g.Reachable(n), o.Reachable(n)))
		for v := -3; v <= 10; v++ {
			checks = append(checks, eq(fmt.Sprintf("HasEdge(%d,%d)", n, v), g.HasEdge(n, v), o.HasEdge(n, v)))
		}
	}
	// An induced subgraph over every other id, and the clone, must agree too
	// (compared through their edge lists and node sets).
	keep := []int{-2, 0, 2, 4, 6, 8, 99}
	gs, os := g.InducedSubgraph(keep), o.InducedSubgraph(keep)
	checks = append(checks,
		eq("InducedSubgraph.Nodes", gs.Nodes(), os.Nodes()),
		eq("InducedSubgraph.Edges", gs.Edges(), os.Edges()),
		eq("Equal(InducedSubgraph)", g.Equal(gs), o.Equal(os)),
		eq("Equal(Clone)", g.Equal(g.Clone()), true),
		eq("Clone.String", g.Clone().String(), o.String()))
	for _, err := range checks {
		if err != nil {
			return err
		}
	}
	return nil
}

// TestDigraphMatchesMapOracle applies seeded random edit sequences to Digraph
// and the map oracle and compares every accessor after each edit.
func TestDigraphMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 200; trial++ {
		p := oraclePair{g: New(), o: newMap()}
		if trial%2 == 1 {
			// Start from a built graph: its adjacency shares one array.
			var edges [][2]int
			for i := rng.Intn(15); i > 0; i-- {
				e := [2]int{rng.Intn(12) - 2, rng.Intn(12) - 2}
				edges = append(edges, e)
				p.o.AddEdge(e[0], e[1])
			}
			nodes := []int{rng.Intn(12) - 2}
			p.o.AddNode(nodes[0])
			p.g = Build(nodes, edges)
		}
		var log []string
		for step := 0; step < 40; step++ {
			log = append(log, p.apply(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))))
			if err := p.compare(); err != nil {
				t.Fatalf("trial %d after %v: %v", trial, log, err)
			}
		}
	}
}

// FuzzDigraphOps drives Digraph and the map oracle through the edit sequence
// the input encodes (three bytes per edit; a leading byte above 127 starts
// from a graph built in one pass from the first edits' edges).
func FuzzDigraphOps(f *testing.F) {
	f.Add([]byte{1, 1, 2, 1, 2, 3, 1, 3, 1})
	f.Add([]byte{200, 1, 4, 5, 2, 5, 6, 3, 5, 0, 0, 7, 7})
	f.Add([]byte{0, 3, 0, 1, 3, 3, 3, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := oraclePair{g: New(), o: newMap()}
		if len(data) > 0 && data[0] > 127 {
			var edges [][2]int
			for data = data[1:]; len(data) >= 2 && data[0]%4 != 0; data = data[2:] {
				u, v := int(data[0]%12)-2, int(data[1]%12)-2
				edges = append(edges, [2]int{u, v})
				p.o.AddEdge(u, v)
			}
			p.g = Build(nil, edges)
		}
		for ; len(data) >= 3; data = data[3:] {
			op := p.apply(data[0], data[1], data[2])
			if err := p.compare(); err != nil {
				t.Fatalf("after %s: %v", op, err)
			}
		}
	})
}
