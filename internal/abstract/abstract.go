// Package abstract builds the service abstract graph of Sec 2.2 / Fig 6:
// each required service of a requirement is populated with its overlay
// instances, and instances of adjacent required services are fully connected
// with edges labelled by the shortest-widest path metric between them in the
// overlay graph.
//
// The abstract graph is the bridge between a service requirement and the
// overlay: federation algorithms pick one instance per service slot, and the
// abstract edges tell them what that choice costs. The all-pairs table the
// edges are read from is computed by qos's dense CSR engine, the only routing
// engine outside test code (its map-based oracle lives in qos's tests; see
// DESIGN.md, "Hot-path engine").
package abstract

import (
	"fmt"
	"sort"
	"time"

	"sflow/internal/flow"
	"sflow/internal/metrics"
	"sflow/internal/overlay"
	"sflow/internal/qos"
	"sflow/internal/require"
)

// Graph is a service abstract graph. It references (does not copy) the
// overlay and requirement it was built from.
type Graph struct {
	req *require.Requirement
	ov  *overlay.Overlay
	ap  qos.Table
}

// Build constructs the abstract graph for a requirement over an overlay. It
// fails if some required service has no instance in the overlay. The
// all-pairs shortest-widest computation behind the edge labels fans out over
// runtime.GOMAXPROCS(0) workers on large overlays; the result is identical
// to the sequential computation at any worker count.
func Build(ov *overlay.Overlay, req *require.Requirement) (*Graph, error) {
	return BuildWith(ov, req, qos.Options{})
}

// BuildWith is Build over a table built with opts: its worker count, and
// instrumentation into opts.Metrics (build counts, abstract-graph sizes and
// the qos routing counters behind the edge labels, plus a volatile
// build-time histogram). With opts.Lazy no all-pairs computation runs up
// front: only the rows the federation algorithms read — the rows of
// instances populating service slots with outgoing requirement edges — are
// computed, in one Graph.Prefetch batch over a Workers-wide fan-out, so a
// following solve reads them warm. Answers are byte-identical in both modes
// at any worker count; the lazy mode is what makes federating against
// 10k–100k-node overlays interactive, since its cost scales with slot
// instances, not overlay size.
func BuildWith(ov *overlay.Overlay, req *require.Requirement, opts qos.Options) (*Graph, error) {
	if err := checkServices(ov, req); err != nil {
		return nil, err
	}
	start := time.Now()
	g := &Graph{req: req, ov: ov, ap: qos.New(ov, opts)}
	g.Prefetch()
	if reg := opts.Metrics; reg != nil {
		if opts.Lazy {
			reg.Counter("abstract_lazy_builds_total").Inc()
		} else {
			reg.Counter("abstract_builds_total").Inc()
			reg.Counter("abstract_services_total").Add(int64(req.NumServices()))
			reg.Counter("abstract_edges_total").Add(int64(len(req.Edges())))
			var slots int64
			for _, sid := range req.Services() {
				slots += int64(len(ov.InstancesOf(sid)))
			}
			reg.Counter("abstract_slots_total").Add(slots)
		}
		reg.Histogram("abstract_build_us", metrics.ExponentialBounds(10, 10, 6), metrics.Volatile()).
			Observe(time.Since(start).Microseconds())
	}
	return g, nil
}

// FromAllPairs wraps an externally maintained shortest-widest table into an
// abstract graph, skipping the rebuild Build would do. The caller guarantees
// ap is current for ov (an incremental session's flushed table); the
// required-service validation still runs, since instances may have left
// since the table was first built.
func FromAllPairs(ov *overlay.Overlay, req *require.Requirement, ap qos.Table) (*Graph, error) {
	if err := checkServices(ov, req); err != nil {
		return nil, err
	}
	return &Graph{req: req, ov: ov, ap: ap}, nil
}

// Prefetch fills every row a federation solve over g reads (SlotSources)
// in one qos.AllPairs.Prefetch batch when g's table is a lazy *qos.AllPairs,
// so the solve that follows reads them warm. Over any other table it does
// nothing and allocates nothing. Answers are the same either way.
func (g *Graph) Prefetch() {
	if t, ok := g.ap.(*qos.AllPairs); ok && t.Lazy() {
		t.Prefetch(SlotSources(g.ov, g.req))
	}
}

// checkServices fails if some required service has no instance in ov.
func checkServices(ov *overlay.Overlay, req *require.Requirement) error {
	for _, sid := range req.Services() {
		if len(ov.InstancesOf(sid)) == 0 {
			return fmt.Errorf("abstract: required service %d has no instance in the overlay", sid)
		}
	}
	return nil
}

// SlotSources returns the sources a federation solve over the abstract graph
// reads rows from: the instances of every required service with at least one
// outgoing requirement edge, ascending and deduplicated. Edge metrics and
// paths are always read from the edge's tail, so sink-only services need no
// rows.
func SlotSources(ov *overlay.Overlay, req *require.Requirement) []int {
	tails := make(map[int]struct{})
	for _, e := range req.Edges() {
		tails[e[0]] = struct{}{}
	}
	var srcs []int
	seen := make(map[int]struct{})
	for sid := range tails {
		for _, nid := range ov.InstancesOf(sid) {
			if _, ok := seen[nid]; !ok {
				seen[nid] = struct{}{}
				srcs = append(srcs, nid)
			}
		}
	}
	sort.Ints(srcs)
	return srcs
}

// Requirement returns the requirement the graph was built from.
func (g *Graph) Requirement() *require.Requirement { return g.req }

// Overlay returns the overlay the graph was built from.
func (g *Graph) Overlay() *overlay.Overlay { return g.ov }

// Slots returns the instances (NIDs) populating the abstract node of the
// given required service, ascending.
func (g *Graph) Slots(sid int) []int { return g.ov.InstancesOf(sid) }

// EdgeMetric returns the shortest-widest metric of the abstract edge from
// instance `from` to instance `to`. It is qos.Unreachable when the overlay
// offers no route.
func (g *Graph) EdgeMetric(from, to int) qos.Metric {
	if from == to {
		return qos.Empty
	}
	return g.ap.Metric(from, to)
}

// EdgePath returns the concrete overlay route realising the abstract edge
// from `from` to `to` (both inclusive), nil if unreachable. The route may
// pass through instances of services that are not in the requirement — the
// "bridging" instances of Sec 3.1.
func (g *Graph) EdgePath(from, to int) []int {
	if from == to {
		return []int{from}
	}
	return g.ap.Path(from, to)
}

// AllPairs exposes the underlying shortest-widest table (eager or lazy).
func (g *Graph) AllPairs() qos.Table { return g.ap }

// Realize materialises a complete instance assignment (SID -> NID) as a
// service flow graph: every requirement edge becomes a flow edge carrying the
// concrete shortest-widest overlay route between the chosen instances. It
// fails if the assignment is incomplete, names a wrong-service instance, or
// induces an unroutable edge.
func (g *Graph) Realize(assign map[int]int) (*flow.Graph, error) {
	fg := flow.New()
	for _, sid := range g.req.Services() {
		nid, ok := assign[sid]
		if !ok {
			return nil, fmt.Errorf("abstract: service %d unassigned", sid)
		}
		if got := g.ov.SIDOf(nid); got != sid {
			return nil, fmt.Errorf("abstract: instance %d provides service %d, not %d", nid, got, sid)
		}
		if err := fg.Assign(sid, nid); err != nil {
			return nil, err
		}
	}
	for _, e := range g.req.Edges() {
		from, to := assign[e[0]], assign[e[1]]
		m := g.EdgeMetric(from, to)
		if !m.Reachable() {
			return nil, fmt.Errorf("abstract: no route from instance %d to %d for edge %d->%d", from, to, e[0], e[1])
		}
		if err := fg.AddEdge(flow.Edge{
			FromSID: e[0], ToSID: e[1],
			FromNID: from, ToNID: to,
			Path:   g.EdgePath(from, to),
			Metric: m,
		}); err != nil {
			return nil, err
		}
	}
	return fg, nil
}

// AssignmentMetric evaluates a complete instance assignment (SID -> NID): the
// bottleneck bandwidth over all abstract edges induced by the requirement and
// the latency of the critical source-to-sink chain. It returns
// qos.Unreachable if any induced edge has no route.
func (g *Graph) AssignmentMetric(assign map[int]int) qos.Metric {
	width := qos.InfBandwidth
	for _, e := range g.req.Edges() {
		from, ok1 := assign[e[0]]
		to, ok2 := assign[e[1]]
		if !ok1 || !ok2 {
			return qos.Unreachable
		}
		m := g.EdgeMetric(from, to)
		if !m.Reachable() {
			return qos.Unreachable
		}
		if m.Bandwidth < width {
			width = m.Bandwidth
		}
	}
	// Critical-path latency over the requirement DAG with the assignment's
	// edge latencies.
	lat := g.req.CriticalPath(func(u, v int) int64 {
		return g.EdgeMetric(assign[u], assign[v]).Latency
	})
	if lat == nil {
		return qos.Unreachable
	}
	var worst int64
	for _, sink := range g.req.Sinks() {
		worst = max(worst, lat[g.req.Index(sink)])
	}
	return qos.Metric{Bandwidth: width, Latency: worst}
}
