// Package flow defines the service flow graph (Sec 3.1): the outcome of a
// federation. A flow graph selects exactly one overlay instance per required
// service and records, for every requirement edge, the concrete overlay route
// carrying that service stream.
//
// The package also defines the quality order used throughout the paper
// (bottleneck bandwidth first, critical-path latency second) and the
// correctness coefficient of Sec 5.
package flow

import (
	"fmt"
	"sort"

	"sflow/internal/overlay"
	"sflow/internal/qos"
	"sflow/internal/require"
)

// Edge is one service stream of the flow graph: the requirement edge
// FromSID -> ToSID realised by the overlay route Path between the chosen
// instances.
type Edge struct {
	FromSID, ToSID int
	FromNID, ToNID int
	// Path is the overlay route, FromNID first and ToNID last. It may pass
	// through bridging instances that are not part of the requirement.
	Path []int
	// Metric is the quality of Path.
	Metric qos.Metric
}

// Graph is a service flow graph under construction or completed.
type Graph struct {
	assign map[int]int      // SID -> chosen NID
	edges  map[[2]int]*Edge // keyed by (FromSID, ToSID)
}

// New returns an empty flow graph.
func New() *Graph {
	return &Graph{assign: make(map[int]int), edges: make(map[[2]int]*Edge)}
}

// Assign records that service sid is performed by instance nid. Assigning a
// service twice to different instances is an error (the conflict the sFlow
// protocol must resolve by re-computation).
func (g *Graph) Assign(sid, nid int) error {
	if cur, ok := g.assign[sid]; ok && cur != nid {
		return fmt.Errorf("flow: service %d already assigned to instance %d (got %d)", sid, cur, nid)
	}
	g.assign[sid] = nid
	return nil
}

// Assigned returns the instance chosen for sid.
func (g *Graph) Assigned(sid int) (int, bool) {
	nid, ok := g.assign[sid]
	return nid, ok
}

// Assignment returns a copy of the full SID -> NID assignment.
func (g *Graph) Assignment() map[int]int {
	out := make(map[int]int, len(g.assign))
	for k, v := range g.assign {
		out[k] = v
	}
	return out
}

// NumAssigned returns how many services have an instance chosen.
func (g *Graph) NumAssigned() int { return len(g.assign) }

// AddEdge records the realisation of one requirement edge. It implies the
// corresponding assignments and fails on any conflict.
func (g *Graph) AddEdge(e Edge) error {
	if len(e.Path) == 0 || e.Path[0] != e.FromNID || e.Path[len(e.Path)-1] != e.ToNID {
		return fmt.Errorf("flow: edge %d->%d path %v does not connect instances %d->%d",
			e.FromSID, e.ToSID, e.Path, e.FromNID, e.ToNID)
	}
	if err := g.Assign(e.FromSID, e.FromNID); err != nil {
		return err
	}
	if err := g.Assign(e.ToSID, e.ToNID); err != nil {
		return err
	}
	key := [2]int{e.FromSID, e.ToSID}
	if old, ok := g.edges[key]; ok && !sameEdge(old, &e) {
		return fmt.Errorf("flow: requirement edge %d->%d realised twice differently", e.FromSID, e.ToSID)
	}
	cp := e
	cp.Path = append([]int(nil), e.Path...)
	g.edges[key] = &cp
	return nil
}

// Edge returns the realisation of the requirement edge fromSID -> toSID.
// The returned Edge owns its Path: callers may modify it freely without
// affecting later queries.
func (g *Graph) Edge(fromSID, toSID int) (Edge, bool) {
	e, ok := g.edges[[2]int{fromSID, toSID}]
	if !ok {
		return Edge{}, false
	}
	cp := *e
	cp.Path = append([]int(nil), e.Path...)
	return cp, true
}

// Edges returns all realised edges sorted by (FromSID, ToSID). Every
// returned Edge owns its Path: callers may modify the slices freely without
// affecting later queries.
func (g *Graph) Edges() []Edge {
	keys := make([][2]int, 0, len(g.edges))
	for k := range g.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]Edge, 0, len(keys))
	for _, k := range keys {
		e := *g.edges[k]
		e.Path = append([]int(nil), e.Path...)
		out = append(out, e)
	}
	return out
}

// Merge folds another partial flow graph into g, failing on any assignment or
// edge conflict. Used when parallel sFlow branches converge.
func (g *Graph) Merge(o *Graph) error {
	for sid, nid := range o.assign {
		if err := g.Assign(sid, nid); err != nil {
			return err
		}
	}
	for _, e := range o.Edges() {
		if err := g.AddEdge(e); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New()
	for sid, nid := range g.assign {
		c.assign[sid] = nid
	}
	for k, e := range g.edges {
		cp := *e
		cp.Path = append([]int(nil), e.Path...)
		c.edges[k] = &cp
	}
	return c
}

// Complete reports whether g realises every service and edge of req.
func (g *Graph) Complete(req *require.Requirement) bool {
	for _, sid := range req.Services() {
		if _, ok := g.assign[sid]; !ok {
			return false
		}
	}
	for _, e := range req.Edges() {
		if _, ok := g.edges[[2]int{e[0], e[1]}]; !ok {
			return false
		}
	}
	return true
}

// Validate checks g against the requirement and overlay it claims to
// federate: every required service is assigned to an instance that provides
// it; every requirement edge is realised by a route that exists in the
// overlay, connects the chosen instances, and carries a metric consistent
// with its links.
func (g *Graph) Validate(req *require.Requirement, ov *overlay.Overlay) error {
	for _, sid := range req.Services() {
		nid, ok := g.assign[sid]
		if !ok {
			return fmt.Errorf("flow: service %d unassigned", sid)
		}
		if got := ov.SIDOf(nid); got != sid {
			return fmt.Errorf("flow: service %d assigned to instance %d which provides %d", sid, nid, got)
		}
	}
	for _, re := range req.Edges() {
		e, ok := g.edges[[2]int{re[0], re[1]}]
		if !ok {
			return fmt.Errorf("flow: requirement edge %d->%d not realised", re[0], re[1])
		}
		if e.FromNID != g.assign[re[0]] || e.ToNID != g.assign[re[1]] {
			return fmt.Errorf("flow: edge %d->%d endpoints (%d,%d) disagree with assignment (%d,%d)",
				re[0], re[1], e.FromNID, e.ToNID, g.assign[re[0]], g.assign[re[1]])
		}
		m, err := PathMetric(ov, e.Path)
		if err != nil {
			return fmt.Errorf("flow: edge %d->%d: %w", re[0], re[1], err)
		}
		if m != e.Metric {
			return fmt.Errorf("flow: edge %d->%d metric %+v does not match path %+v", re[0], re[1], e.Metric, m)
		}
	}
	return nil
}

// PathMetric recomputes the metric of a concrete overlay route.
func PathMetric(ov *overlay.Overlay, path []int) (qos.Metric, error) {
	if len(path) == 0 {
		return qos.Unreachable, fmt.Errorf("empty path")
	}
	m := qos.Empty
	for i := 0; i+1 < len(path); i++ {
		lm, ok := ov.LinkMetric(path[i], path[i+1])
		if !ok {
			return qos.Unreachable, fmt.Errorf("no overlay link %d->%d", path[i], path[i+1])
		}
		m = m.Concat(lm)
	}
	return m, nil
}

// Quality returns the end-to-end quality of the flow graph for req: the
// bottleneck bandwidth over all service streams and the latency of the
// critical source-to-sink chain. Incomplete graphs are qos.Unreachable.
func (g *Graph) Quality(req *require.Requirement) qos.Metric {
	if !g.Complete(req) {
		return qos.Unreachable
	}
	width := qos.InfBandwidth
	for _, e := range g.edges {
		if !e.Metric.Reachable() {
			return qos.Unreachable
		}
		if e.Metric.Bandwidth < width {
			width = e.Metric.Bandwidth
		}
	}
	lat := req.CriticalPath(func(u, v int) int64 {
		return g.edges[[2]int{u, v}].Metric.Latency
	})
	if lat == nil {
		return qos.Unreachable
	}
	var worst int64
	for _, sink := range req.Sinks() {
		worst = max(worst, lat[req.Index(sink)])
	}
	return qos.Metric{Bandwidth: width, Latency: worst}
}

// CorrectnessCoefficient returns the fraction of services for which g chose
// the same instance as the reference (globally optimal) flow graph — the
// metric of Fig 10(a). The result is in (0, 1] when the reference is
// non-empty; it is 0 only for an empty intersection.
func (g *Graph) CorrectnessCoefficient(optimal *Graph) float64 {
	if len(optimal.assign) == 0 {
		return 0
	}
	match := 0
	for sid, nid := range optimal.assign {
		if got, ok := g.assign[sid]; ok && got == nid {
			match++
		}
	}
	return float64(match) / float64(len(optimal.assign))
}

// String renders the assignment compactly.
func (g *Graph) String() string {
	sids := make([]int, 0, len(g.assign))
	for sid := range g.assign {
		sids = append(sids, sid)
	}
	sort.Ints(sids)
	s := "flow{"
	for i, sid := range sids {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d/%d", sid, g.assign[sid])
	}
	return s + "}"
}

func sameEdge(a, b *Edge) bool {
	if a.FromSID != b.FromSID || a.ToSID != b.ToSID || a.FromNID != b.FromNID ||
		a.ToNID != b.ToNID || a.Metric != b.Metric || len(a.Path) != len(b.Path) {
		return false
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			return false
		}
	}
	return true
}
