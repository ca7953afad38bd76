// Package require models service requirements: the directed acyclic graphs
// of required services that a consumer submits for federation (Sec 2 of the
// paper). A valid requirement has exactly one source service, at least one
// sink service, and every service lies on some source-to-sink path.
//
// Nodes of a requirement are service identifiers (SIDs), plain ints. A
// requirement talks only about *services*; which overlay *instance* performs
// each service is what federation algorithms decide.
package require

import (
	"fmt"
	"slices"

	"sflow/internal/graph"
)

// Requirement is a service requirement DAG. Build one with a constructor, or
// with New and the Add methods followed by Validate.
//
// A constructor returns a frozen requirement: it validates the graph once and
// caches the views solvers ask for (source, sinks, topological order,
// junctions), so those queries copy instead of recomputing. The views are
// never written after construction, so any number of goroutines may query a
// frozen requirement. AddService and AddDependency drop them; the queries then
// recompute on every call. Validate only reads.
type Requirement struct {
	dag *graph.Digraph

	frozen bool
	source int
	// topo, sinks and junctions are immutable once set; Clone shares them.
	topo, sinks, junctions []int
}

// New returns an empty requirement.
func New() *Requirement {
	return &Requirement{dag: graph.New()}
}

// Build returns the validated requirement over services plus every endpoint
// of edges (duplicates ignored). The graph is laid out in one pass and the
// result is frozen. Neither slice is retained.
func Build(services []int, edges [][2]int) (*Requirement, error) {
	return freeze(graph.Build(services, edges))
}

// FromEdges builds and validates a requirement from a list of service
// dependency edges (from -> to).
func FromEdges(edges [][2]int) (*Requirement, error) { return Build(nil, edges) }

// NewPath builds and validates a single-chain requirement
// sids[0] -> sids[1] -> ... (the paper's most primitive form, Fig 1).
func NewPath(sids ...int) (*Requirement, error) {
	if len(sids) < 2 {
		return nil, fmt.Errorf("require: a path needs at least 2 services, got %d", len(sids))
	}
	var buf [16][2]int
	edges := buf[:0]
	for i := 0; i+1 < len(sids); i++ {
		edges = append(edges, [2]int{sids[i], sids[i+1]})
	}
	return Build(nil, edges)
}

// freeze validates g and returns it as a frozen requirement.
func freeze(g *graph.Digraph) (*Requirement, error) {
	topo, source, err := check(g)
	if err != nil {
		return nil, err
	}
	// A junction is where streams split or merge, or the source or a sink:
	// in a valid requirement, exactly the services without in- and
	// out-degree one.
	nSinks, nJunctions := 0, 0
	for _, s := range topo {
		in, out := g.InDegree(s), g.OutDegree(s)
		if out == 0 {
			nSinks++
		}
		if in != 1 || out != 1 {
			nJunctions++
		}
	}
	views := make([]int, 0, nSinks+nJunctions)
	for _, s := range topo {
		if g.OutDegree(s) == 0 {
			views = append(views, s)
		}
	}
	for _, s := range topo {
		if g.InDegree(s) != 1 || g.OutDegree(s) != 1 {
			views = append(views, s)
		}
	}
	r := &Requirement{dag: g, frozen: true, source: source, topo: topo,
		sinks: views[:nSinks:nSinks], junctions: views[nSinks:]}
	slices.Sort(r.sinks)
	slices.Sort(r.junctions)
	return r, nil
}

// check applies the structural rules of Sec 2.2 to g and returns its
// topological order and its source.
func check(g *graph.Digraph) (topo []int, source int, err error) {
	if g.NumNodes() == 0 {
		return nil, -1, fmt.Errorf("require: empty requirement")
	}
	topo, err = g.TopoSort()
	if err != nil {
		return nil, -1, fmt.Errorf("require: requirement contains a cycle")
	}
	sources := 0
	for _, s := range topo {
		if g.InDegree(s) == 0 {
			sources, source = sources+1, s
		}
	}
	if sources != 1 {
		all := g.Sources()
		return nil, -1, fmt.Errorf("require: need exactly one source service, found %d (%v)", len(all), all)
	}
	// A non-empty DAG has a sink, and following predecessors from any
	// service ends at a source, so with one source every service lies on a
	// source-to-sink path.
	return topo, source, nil
}

// AddService inserts a service with no dependencies yet. It drops the cached
// views of a frozen requirement.
func (r *Requirement) AddService(sid int) {
	r.dag.AddNode(sid)
	r.thaw()
}

// AddDependency records that service `to` consumes the output of service
// `from`. It drops the cached views of a frozen requirement.
func (r *Requirement) AddDependency(from, to int) {
	r.dag.AddEdge(from, to)
	r.thaw()
}

func (r *Requirement) thaw() { *r = Requirement{dag: r.dag} }

// Validate checks the structural rules of Sec 2.2: the graph must be a DAG
// with exactly one source, at least one sink, and every service on some
// source-to-sink path. It only reads r.
func (r *Requirement) Validate() error {
	if r.frozen {
		return nil
	}
	_, _, err := check(r.dag)
	return err
}

// Source returns the unique source service. Call only on validated
// requirements.
func (r *Requirement) Source() int {
	if r.frozen {
		return r.source
	}
	s := r.dag.Sources()
	if len(s) != 1 {
		return -1
	}
	return s[0]
}

// Sinks returns the sink services, ascending.
func (r *Requirement) Sinks() []int {
	if r.frozen {
		return slices.Clone(r.sinks)
	}
	return r.dag.Sinks()
}

// Services returns all required services, ascending.
func (r *Requirement) Services() []int { return r.dag.Nodes() }

// Index returns sid's position in Services(), or -1 if sid is not a
// required service: the dense index CriticalPath answers by.
func (r *Requirement) Index(sid int) int { return r.dag.Index(sid) }

// NumServices returns the number of required services.
func (r *Requirement) NumServices() int { return r.dag.NumNodes() }

// NumDependencies returns the number of dependency edges.
func (r *Requirement) NumDependencies() int { return r.dag.NumEdges() }

// Has reports whether sid is a required service.
func (r *Requirement) Has(sid int) bool { return r.dag.HasNode(sid) }

// HasDependency reports whether from -> to is a dependency.
func (r *Requirement) HasDependency(from, to int) bool { return r.dag.HasEdge(from, to) }

// Downstream returns the services that directly consume sid's output.
func (r *Requirement) Downstream(sid int) []int { return r.dag.Succ(sid) }

// Upstream returns the services whose output sid directly consumes.
func (r *Requirement) Upstream(sid int) []int { return r.dag.Pred(sid) }

// InDegree returns the number of upstream services of sid.
func (r *Requirement) InDegree(sid int) int { return r.dag.InDegree(sid) }

// OutDegree returns the number of downstream services of sid.
func (r *Requirement) OutDegree(sid int) int { return r.dag.OutDegree(sid) }

// Edges returns all dependency edges in lexicographic order.
func (r *Requirement) Edges() [][2]int { return r.dag.Edges() }

// TopoOrder returns the services in a deterministic topological order.
func (r *Requirement) TopoOrder() []int {
	if r.frozen {
		return slices.Clone(r.topo)
	}
	return r.order()
}

// order is TopoOrder without the copy: the cached order of a frozen
// requirement, which callers must not modify. It is nil on a cycle.
func (r *Requirement) order() []int {
	if r.frozen {
		return r.topo
	}
	order, err := r.dag.TopoSort()
	if err != nil {
		return nil
	}
	return order
}

// CriticalPath returns, for every service, the largest total weight of a
// dependency path from the source to it, indexed like Services() (see Index).
// weight gives each dependency's non-negative weight. A service the source
// does not reach gets -1. The result is nil if the requirement has a cycle.
func (r *Requirement) CriticalPath(weight func(from, to int) int64) []int64 {
	order := r.order()
	if order == nil {
		return nil
	}
	dist := make([]int64, r.dag.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	if s := r.dag.Index(r.Source()); s >= 0 {
		dist[s] = 0
	}
	for _, u := range order {
		i := r.dag.Index(u)
		if dist[i] < 0 {
			continue
		}
		for _, v := range r.dag.SuccAt(i) {
			if w, j := dist[i]+weight(u, v), r.dag.Index(v); w > dist[j] {
				dist[j] = w
			}
		}
	}
	return dist
}

// DAG returns a copy of the underlying dependency graph.
func (r *Requirement) DAG() *graph.Digraph { return r.dag.Clone() }

// Clone returns a deep copy of r. The copy of a frozen requirement is frozen.
func (r *Requirement) Clone() *Requirement {
	c := *r
	c.dag = r.dag.Clone()
	return &c
}

// Equal reports whether two requirements have identical services and edges.
func (r *Requirement) Equal(o *Requirement) bool { return r.dag.Equal(o.dag) }

// SubFrom returns the sub-requirement induced by the services reachable from
// sid (including sid). This is what a node forwards downstream in the sFlow
// protocol once its own service is accounted for. Note that a merging
// service inside the result can lose in-edges whose tails are outside the
// reachable set; the protocol tracks the original in-degrees separately.
func (r *Requirement) SubFrom(sid int) *Requirement {
	sub := r.dag.InducedSubgraph(r.dag.Reachable(sid))
	if f, err := freeze(sub); err == nil {
		return f
	}
	return &Requirement{dag: sub}
}

// String renders the requirement as its edge list.
func (r *Requirement) String() string {
	return fmt.Sprintf("require%v", r.Edges())
}

// Shape classifies the topology of a requirement (the progression of forms
// in Sec 2.1 and Sec 3.1 of the paper).
type Shape int

const (
	// ShapePath is a single chain of services (Fig 1).
	ShapePath Shape = iota + 1
	// ShapeTree has a single upstream per service but splits are allowed
	// (service multicast trees).
	ShapeTree
	// ShapeDisjointPaths is a source fanning out into vertex-disjoint
	// chains that all end at the same sink (Fig 3).
	ShapeDisjointPaths
	// ShapeGeneral is any other DAG, with merging and splitting services
	// interleaved (Fig 5).
	ShapeGeneral
)

// String returns a human-readable shape name.
func (s Shape) String() string {
	switch s {
	case ShapePath:
		return "path"
	case ShapeTree:
		return "tree"
	case ShapeDisjointPaths:
		return "disjoint-paths"
	case ShapeGeneral:
		return "general"
	default:
		return fmt.Sprintf("Shape(%d)", int(s))
	}
}

// Shape classifies a validated requirement.
func (r *Requirement) Shape() Shape {
	isPath := true
	isTree := true
	for _, s := range r.Services() {
		if r.InDegree(s) > 1 {
			isTree = false
		}
		if r.InDegree(s) > 1 || r.OutDegree(s) > 1 {
			isPath = false
		}
	}
	if isPath {
		return ShapePath
	}
	if isTree {
		return ShapeTree
	}
	if r.isDisjointPaths() {
		return ShapeDisjointPaths
	}
	return ShapeGeneral
}

// isDisjointPaths reports whether the requirement is a set of >= 2 internally
// disjoint chains from the source to a single sink.
func (r *Requirement) isDisjointPaths() bool {
	sinks := r.Sinks()
	if len(sinks) != 1 {
		return false
	}
	src, dst := r.Source(), sinks[0]
	if r.OutDegree(src) < 2 || r.InDegree(dst) < 2 {
		return false
	}
	for _, s := range r.Services() {
		if s == src || s == dst {
			continue
		}
		if r.InDegree(s) != 1 || r.OutDegree(s) != 1 {
			return false
		}
	}
	return true
}

// PathServices returns the services of a ShapePath requirement in chain
// order, or nil if the requirement is not a single path.
func (r *Requirement) PathServices() []int {
	if r.Shape() != ShapePath {
		return nil
	}
	order := make([]int, 0, r.NumServices())
	for s := r.Source(); ; {
		order = append(order, s)
		next := r.Downstream(s)
		if len(next) == 0 {
			break
		}
		s = next[0]
	}
	if len(order) != r.NumServices() {
		return nil
	}
	return order
}

// Junctions returns the services where streams split or merge (out-degree or
// in-degree above one), plus the source and all sinks — the anchor points of
// the reduction heuristics. Ascending order.
func (r *Requirement) Junctions() []int {
	if r.frozen {
		return slices.Clone(r.junctions)
	}
	out := append([]int{r.Source()}, r.Sinks()...)
	for _, s := range r.Services() {
		if r.InDegree(s) > 1 || r.OutDegree(s) > 1 {
			out = append(out, s)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}
