package qos

// The map-based reference engine: the two Wang–Crowcroft phases as plain
// Dijkstras over map labels and a binary heap, reading the graph through its
// Nodes/Out interface on every relaxation. Production code routes only
// through the CSR kernels of dense.go; every dense≡oracle test and fuzz
// target pins them byte-identical to this engine — same distance tables,
// same selected paths, the same run count and at most its relaxations.

import (
	"cmp"
	"maps"
	"slices"
	"sort"
)

// shortestWidestRef computes shortest-widest paths from src to every node of
// g. Arcs with non-positive bandwidth are ignored.
func shortestWidestRef(g Graph, src int) *Result {
	return shortestWidestRefMetrics(g, src, instr{})
}

// shortestWidestRefMetrics is shortestWidestRef counting its run and its arc
// relaxations into ins.
func shortestWidestRefMetrics(g Graph, src int, ins instr) *Result {
	var relaxed int64

	// Phase 1: maximum bottleneck bandwidth to every node.
	width := widestDijkstra(g, src, &relaxed)
	ids, idx := indexNodes(width)
	srcIdx := idx[src]
	var b rowBuilder
	b.begin(newResult(ids, idx, srcIdx))

	// Group nodes by achievable width, widest first, index order within a
	// class; one phase-2 run per distinct width.
	order := make([]int32, 0, len(ids))
	for i := range ids {
		if int32(i) != srcIdx {
			order = append(order, int32(i))
		}
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(width[ids[b]], width[ids[a]]) })

	// Phase 2: for each width class w, find minimum-latency paths using
	// only links of bandwidth >= w; nodes whose widest width is exactly w
	// take their final answer from this run. The widest path to a node of
	// width w uses only links >= w, so the run reaches every member.
	lat := make([]int64, len(ids))
	prev := make([]int32, len(ids))
	for len(order) > 0 {
		w := width[ids[order[0]]]
		k := 1
		for k < len(order) && width[ids[order[k]]] == w {
			k++
		}
		class := order[:k]
		order = order[k:]

		latOf, prevOf := latencyDijkstra(g, src, w, &relaxed)
		for i := range prev {
			prev[i] = srcIdx
		}
		for n, p := range prevOf {
			i, ok := idx[n]
			if j, okp := idx[p]; ok && okp {
				prev[i] = j
			}
		}
		for _, v := range class {
			l, ok := latOf[ids[v]]
			if !ok {
				panic("qos: phase 2 missed a phase-1 node")
			}
			lat[v] = l
		}
		b.class(w, class, lat, prev)
	}
	ins.runs.Inc()
	ins.relaxations.Add(relaxed)
	return b.finish()
}

// shortestLatencyRef computes minimum-latency paths from src. The returned
// metrics carry the bottleneck bandwidth of the selected minimum-latency
// path.
func shortestLatencyRef(g Graph, src int) *Result {
	var relaxed int64
	lat, prev := latencyDijkstra(g, src, 1, &relaxed)
	ids, idx := indexNodes(lat)
	res := newResult(ids, idx, idx[src])
	// A path's bottleneck is its parent's path's bottleneck narrowed by the
	// last hop: climb to the nearest node already priced, then come back down.
	var chain []int32
	for i := range ids {
		chain = chain[:0]
		x := int32(i)
		for res.metric[x].Bandwidth == 0 {
			chain = append(chain, x)
			x = idx[prev[ids[x]]]
		}
		width := res.metric[x].Bandwidth
		for k := len(chain) - 1; k >= 0; k-- {
			n := ids[chain[k]]
			width = min64(width, arcBandwidth(g, prev[n], n))
			res.metric[chain[k]] = Metric{Bandwidth: width, Latency: lat[n]}
			res.parent[chain[k]] = idx[prev[n]]
		}
	}
	return res
}

// refTable is the oracle's all-pairs table: one map-engine row per node,
// kept apart from the production AllPairs so that table changes never move
// the oracle (or the benchmark calibration leg that runs it).
type refTable map[int]*Result

// computeAllPairsRef runs shortestWidestRef from every node of g.
func computeAllPairsRef(g Graph) refTable {
	nodes := g.Nodes()
	t := make(refTable, len(nodes))
	for _, n := range nodes {
		t[n] = shortestWidestRef(g, n)
	}
	return t
}

func (t refTable) From(src int) *Result { return t[src] }

func (t refTable) Metric(src, dst int) Metric {
	if r := t[src]; r != nil {
		return r.Metric(dst)
	}
	return Unreachable
}

func (t refTable) Path(src, dst int) []int {
	if r := t[src]; r != nil {
		return r.PathTo(dst)
	}
	return nil
}

func (t refTable) Sources() []int { return slices.Sorted(maps.Keys(t)) }

// indexNodes gives the nodes a run reached dense indexes in ascending id
// order: the mapping an oracle row is laid out over.
func indexNodes(reached map[int]int64) ([]int, map[int]int32) {
	ids := make([]int, 0, len(reached))
	for n := range reached {
		ids = append(ids, n)
	}
	sort.Ints(ids)
	idx := make(map[int]int32, len(ids))
	for i, n := range ids {
		idx[n] = int32(i)
	}
	return ids, idx
}

// widestDijkstra returns the maximum bottleneck bandwidth from src to every
// reachable node. The source maps to InfBandwidth. Every arc relaxation
// attempt is tallied into relaxed.
func widestDijkstra(g Graph, src int, relaxed *int64) map[int]int64 {
	width := map[int]int64{src: InfBandwidth}
	done := make(map[int]bool)
	h := &nodeHeap{better: func(a, b heapEntry) bool {
		if a.key != b.key {
			return a.key > b.key // wider first
		}
		return a.node < b.node
	}}
	h.push(heapEntry{node: src, key: InfBandwidth})
	for h.len() > 0 {
		e := h.pop()
		if done[e.node] || width[e.node] != e.key {
			continue
		}
		done[e.node] = true
		for _, a := range g.Out(e.node) {
			if a.Bandwidth <= 0 || done[a.To] {
				continue
			}
			*relaxed++
			cand := min64(e.key, a.Bandwidth)
			if cur, ok := width[a.To]; !ok || cand > cur {
				width[a.To] = cand
				h.push(heapEntry{node: a.To, key: cand})
			}
		}
	}
	return width
}

// latencyDijkstra returns minimum total latency from src using only arcs with
// bandwidth >= minBW, plus the predecessor map for path reconstruction. Every
// arc relaxation attempt is tallied into relaxed.
func latencyDijkstra(g Graph, src int, minBW int64, relaxed *int64) (map[int]int64, map[int]int) {
	lat := map[int]int64{src: 0}
	prev := make(map[int]int)
	done := make(map[int]bool)
	h := &nodeHeap{better: func(a, b heapEntry) bool {
		if a.key != b.key {
			return a.key < b.key // shorter first
		}
		return a.node < b.node
	}}
	h.push(heapEntry{node: src, key: 0})
	for h.len() > 0 {
		e := h.pop()
		if done[e.node] || lat[e.node] != e.key {
			continue
		}
		done[e.node] = true
		for _, a := range g.Out(e.node) {
			if a.Bandwidth < minBW || a.Bandwidth <= 0 || done[a.To] {
				continue
			}
			*relaxed++
			cand := e.key + a.Latency
			if cur, ok := lat[a.To]; !ok || cand < cur {
				lat[a.To] = cand
				prev[a.To] = e.node
				h.push(heapEntry{node: a.To, key: cand})
			}
		}
	}
	return lat, prev
}

// arcBandwidth returns the bandwidth of the lowest-latency (then widest) arc
// from u to v.
func arcBandwidth(g Graph, u, v int) int64 {
	var (
		found   bool
		bestLat int64
		bestBW  int64
	)
	for _, a := range g.Out(u) {
		if a.To != v || a.Bandwidth <= 0 {
			continue
		}
		if !found || a.Latency < bestLat || (a.Latency == bestLat && a.Bandwidth > bestBW) {
			found, bestLat, bestBW = true, a.Latency, a.Bandwidth
		}
	}
	if !found {
		return 0
	}
	return bestBW
}

// heapEntry is one entry of nodeHeap; key is either a width (maximised) or a
// latency (minimised) depending on the heap's comparator.
type heapEntry struct {
	node int
	key  int64
}

// nodeHeap is a binary heap with a pluggable strict order, breaking full ties
// by node id inside the comparator for determinism.
type nodeHeap struct {
	a      []heapEntry
	better func(a, b heapEntry) bool
}

func (h *nodeHeap) len() int { return len(h.a) }

func (h *nodeHeap) push(x heapEntry) {
	h.a = append(h.a, x)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.better(h.a[i], h.a[p]) {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *nodeHeap) pop() heapEntry {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h.a) && h.better(h.a[l], h.a[best]) {
			best = l
		}
		if r < len(h.a) && h.better(h.a[r], h.a[best]) {
			best = r
		}
		if best == i {
			break
		}
		h.a[i], h.a[best] = h.a[best], h.a[i]
		i = best
	}
	return top
}
