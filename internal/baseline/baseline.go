// Package baseline implements the paper's baseline algorithm (Table 1): the
// polynomial-time exact construction of the optimal service flow graph for a
// *single-path* service requirement.
//
// The steps follow the paper: (1) all-pairs shortest-widest paths over the
// overlay (done once when the abstract graph is built), (2) construct the
// service abstract graph, (3) compute the shortest-widest abstract path from
// the source instance to the best sink instance, (4) expand every abstract
// edge into the concrete shortest-widest overlay route. Step 3 runs on the
// chain's layered graph (Layered), without a priority queue.
//
// Solve additionally accepts pinned instances (a SID -> NID map). Pins are
// how the reduction heuristics reuse the baseline: a split-and-merge block is
// solved branch by branch with the splitting and merging instances pinned.
package baseline

import (
	"errors"
	"fmt"
	"sync"

	"sflow/internal/abstract"
	"sflow/internal/flow"
	"sflow/internal/qos"
)

// ErrNotPath is returned when the requirement is not a single service path.
var ErrNotPath = errors.New("baseline: requirement is not a single service path")

// ErrInfeasible is returned when no instance assignment connects the source
// to the sink.
var ErrInfeasible = errors.New("baseline: no feasible service flow graph")

// Result is the output of the baseline algorithm.
type Result struct {
	// Flow is the computed (partial) service flow graph covering exactly
	// the services of the path requirement.
	Flow *flow.Graph
	// Metric is the end-to-end shortest-widest quality of the selected
	// abstract path.
	Metric qos.Metric
}

// Solve runs the baseline algorithm on a path-shaped requirement within the
// given abstract graph. src is the designated instance of the source service
// (the node where federation starts); pins force specific instances for
// specific services (nil for none). The source service is implicitly pinned
// to src.
func Solve(ag *abstract.Graph, src int, pins map[int]int) (*Result, error) {
	chain := ag.Requirement().PathServices()
	if chain == nil {
		return nil, ErrNotPath
	}
	return SolveChain(ag, chain, src, pins)
}

// SolveChain runs the baseline algorithm along an explicit chain of services
// within ag. The chain need not be the whole requirement: the reduction
// heuristics call SolveChain on each single-path fragment of a general
// requirement, typically with both endpoints pinned. src is the instance of
// chain[0]; pins force instances for later chain services.
func SolveChain(ag *abstract.Graph, chain []int, src int, pins map[int]int) (*Result, error) {
	if len(chain) < 2 {
		return nil, fmt.Errorf("baseline: chain %v too short", chain)
	}
	l := Get()
	defer Put(l)
	l.Reset(ag, chain, pins)
	if err := l.From(src); err != nil {
		return nil, err
	}
	// Best sink instance in the shortest-widest order.
	out := make([]qos.Metric, len(l.layers[len(l.layers)-1]))
	l.Metrics(out)
	best := -1
	for k, m := range out {
		if m.Reachable() && (best == -1 || m.Better(out[best])) {
			best = k
		}
	}
	if best == -1 {
		return nil, ErrInfeasible
	}
	fg := flow.New()
	if err := l.Flow(fg, best); err != nil {
		return nil, err
	}
	return &Result{Flow: fg, Metric: out[best]}, nil
}

// Layered is the abstract graph of one service chain over slot-indexed
// arrays: layer i holds the candidates for the chain's i-th service (the
// source alone in layer 0, one instance where pinned), and arcs run only from
// layer i to layer i+1, so shortest-widest needs no priority queue (DESIGN.md,
// "Layered DP"). It is reusable scratch for one goroutine; arcs are read out
// of every layer but the last, once per Reset and out of the source per From.
type Layered struct {
	ag     *abstract.Graph
	chain  []int
	err    error // a pin Reset could not honour, reported by From
	layers [][]int
	pinned []int          // storage of the single-instance layers
	arcs   [][]qos.Metric // arcs[i][j*len(layers[i+1])+k]: slot j of layer i to slot k of layer i+1
	read   bool           // arcs out of layers >= 1 read since Reset
	nodes  [][]slot
	hops   []int // per layer, the slot of the path Flow expands
}

// slot is the sweep state of one node.
type slot struct {
	w    int64 // widest bottleneck from the source, 0 unreached
	d    int64 // latency under the last class sweep, -1 unreached
	prev int32 // predecessor slot under that sweep
	done bool  // settled, in a replay
}

var pool = sync.Pool{New: func() any { return new(Layered) }}

// Get takes a Layered from the package's pool.
func Get() *Layered { return pool.Get().(*Layered) }

// Put returns l to the pool, dropping its graph.
func Put(l *Layered) {
	l.ag, l.chain, l.err = nil, nil, nil
	pool.Put(l)
}

// Reset lays out chain with pins forcing instances for chain[1:]; From sets
// the source.
func (l *Layered) Reset(ag *abstract.Graph, chain []int, pins map[int]int) {
	l.ag, l.chain, l.err, l.read = ag, chain, nil, false
	l.layers, l.pinned = fit(l.layers, len(chain)), fit(l.pinned, len(chain))
	l.layers[0] = l.pinned[:1]
	for i, sid := range chain[1:] {
		if nid, ok := pins[sid]; !ok {
			l.layers[i+1] = ag.Slots(sid)
		} else if got := ag.Overlay().SIDOf(nid); got != sid {
			l.err = fmt.Errorf("baseline: pin %d for service %d provides service %d", nid, sid, got)
			return
		} else {
			l.pinned[i+1] = nid
			l.layers[i+1] = l.pinned[i+1 : i+2]
		}
		if len(l.layers[i+1]) == 0 {
			l.err = fmt.Errorf("baseline: no candidate instance for service %d", sid)
			return
		}
	}
	l.arcs, l.nodes, l.hops = fit(l.arcs, len(chain)-1), fit(l.nodes, len(chain)), fit(l.hops, len(chain))
	for i, layer := range l.layers {
		l.nodes[i] = fit(l.nodes[i], len(layer))
	}
}

// From makes src, an instance of the chain's first service, the source.
func (l *Layered) From(src int) error {
	if got := l.ag.Overlay().SIDOf(src); got != l.chain[0] {
		return fmt.Errorf("baseline: source instance %d provides service %d, chain starts at %d",
			src, got, l.chain[0])
	}
	if l.err != nil {
		return l.err
	}
	l.pinned[0] = src
	for i := 0; i < len(l.arcs) && (i == 0 || !l.read); i++ {
		a := l.arcs[i][:0]
		for _, u := range l.layers[i] {
			for _, v := range l.layers[i+1] {
				a = append(a, l.ag.EdgeMetric(u, v))
			}
		}
		l.arcs[i] = a
	}
	l.read = true
	return nil
}

// arcsFrom returns the arcs out of slot j of layer i.
func (l *Layered) arcsFrom(i, j int) []qos.Metric {
	n := len(l.layers[i+1])
	return l.arcs[i][j*n : (j+1)*n]
}

// Metrics sets out[k] to the shortest-widest metric from the source to slot
// k of the last layer (Unreachable if none): a width sweep, then a latency
// sweep per distinct width there. The last layer has no out-arcs, so out[k]
// is exactly the metric of the solve that pins the last service to slot k.
func (l *Layered) Metrics(out []qos.Metric) {
	l.widths()
	last := l.nodes[len(l.nodes)-1]
	clear(out)
	for k, v := range last {
		if v.w == 0 || out[k].Reachable() {
			continue
		}
		l.latencies(v.w)
		for k2 := k; k2 < len(last); k2++ {
			if last[k2].w == v.w {
				out[k2] = qos.Metric{Bandwidth: v.w, Latency: last[k2].d}
			}
		}
	}
}

// Flow adds to fg the chain's streams along the selected path to slot k of
// the last layer: the path of the latency sweep of k's own width class.
func (l *Layered) Flow(fg *flow.Graph, k int) error {
	l.widths()
	m := len(l.nodes) - 1
	w := l.nodes[m][k].w
	if w == 0 {
		return ErrInfeasible
	}
	l.latencies(w)
	// A node past layer 1 reached only by a zero-latency arc from an equally
	// distant node enters Dijkstra's heap mid-plateau: (d, NID) may misorder it.
	for i := 2; i < m; i++ {
		for _, v := range l.nodes[i] {
			if v.d >= 0 && v.d == l.nodes[i-1][v.prev].d {
				l.replay(w)
				i = m
				break
			}
		}
	}
	for i := m; i >= 0; i-- {
		l.hops[i], k = k, int(l.nodes[i][k].prev)
	}
	for i, j := range l.hops[:m] {
		k := l.hops[i+1]
		from, to := l.layers[i][j], l.layers[i+1][k]
		if err := fg.AddEdge(flow.Edge{FromSID: l.chain[i], ToSID: l.chain[i+1], FromNID: from, ToNID: to,
			Path: l.ag.EdgePath(from, to), Metric: l.arcsFrom(i, j)[k]}); err != nil {
			return err
		}
	}
	return nil
}

// widths runs the forward max-min sweep.
func (l *Layered) widths() {
	l.nodes[0][0].w = qos.InfBandwidth
	for i := 1; i < len(l.nodes); i++ {
		cur := l.nodes[i]
		for k := range cur {
			cur[k].w = 0
		}
		for j, u := range l.nodes[i-1] {
			for k, a := range l.arcsFrom(i-1, j) {
				cur[k].w = max(cur[k].w, min(u.w, a.Bandwidth))
			}
		}
	}
}

// latencies runs the forward min-latency sweep over arcs at least w wide.
// The predecessor of v is the u with the smallest (d(u)+lat(u,v), d(u),
// NID(u)): of the u giving v its latency, the one Dijkstra settles first,
// which under strict improvement is the one it keeps.
func (l *Layered) latencies(w int64) {
	l.nodes[0][0].d = 0
	for i := 1; i < len(l.nodes); i++ {
		cur := l.nodes[i]
		for k := range cur {
			cur[k].d = -1
		}
		for j, u := range l.nodes[i-1] {
			for k, a := range l.arcsFrom(i-1, j) {
				v, x := &cur[k], u.d+a.Latency
				if u.d >= 0 && a.Bandwidth >= w && (v.d < 0 || x < v.d || x == v.d && l.before(i-1, j, i-1, int(v.prev))) {
					v.d, v.prev = x, int32(j)
				}
			}
		}
	}
}

// before reports whether slot j of layer i comes before slot q of layer p in
// Dijkstra's (d, NID) order.
func (l *Layered) before(i, j, p, q int) bool {
	a, b := l.nodes[i][j].d, l.nodes[p][q].d
	return a < b || a == b && l.layers[i][j] < l.layers[p][q]
}

// replay redoes the latency sweep for class w as Dijkstra itself, scanning
// for the next node to settle instead of keeping a heap (only zero-latency
// plateaus need it). Last-layer nodes relax nothing and are never settled.
func (l *Layered) replay(w int64) {
	for i := range l.nodes {
		for k := range l.nodes[i] {
			l.nodes[i][k].d, l.nodes[i][k].done = -1, false
		}
	}
	l.nodes[0][0].d = 0
	for {
		bi, bj := -1, 0
		for i, layer := range l.nodes[:len(l.nodes)-1] {
			for j, v := range layer {
				if v.d >= 0 && !v.done && (bi < 0 || l.before(i, j, bi, bj)) {
					bi, bj = i, j
				}
			}
		}
		if bi < 0 {
			return
		}
		u, next := &l.nodes[bi][bj], l.nodes[bi+1]
		u.done = true
		for k, a := range l.arcsFrom(bi, bj) {
			if x := u.d + a.Latency; a.Bandwidth >= w && (next[k].d < 0 || x < next[k].d) {
				next[k].d, next[k].prev = x, int32(bj)
			}
		}
	}
}

// fit returns s resized to n, reusing its storage when it is large enough.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
