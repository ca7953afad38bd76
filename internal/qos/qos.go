// Package qos implements quality-of-service routing on weighted directed
// graphs, specifically the shortest-widest path algorithm of Wang and
// Crowcroft (JSAC 1996) that the paper adopts: among all paths, select the
// one with the greatest bottleneck bandwidth (the widest path), and among
// equally wide paths, the one with the smallest total latency (the shortest).
//
// The computation is two-phase, as in the original algorithm. A single
// lexicographic Dijkstra is not correct here: a prefix that is narrower but
// much shorter can still yield the shortest path among the widest ones when a
// later link lowers the bottleneck anyway. Phase one is a max-bottleneck
// Dijkstra that finds each node's achievable width; phase two is a
// latency-only Dijkstra restricted, per width class, to links at least that
// wide.
//
// Bandwidth is in Kbit/s and latency in microseconds, both int64, so the
// quality order is exact.
package qos

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"sflow/internal/metrics"
)

// InfBandwidth is the bandwidth of the empty path: wider than any link.
const InfBandwidth int64 = math.MaxInt64

// Arc is one weighted out-edge of a graph node.
type Arc struct {
	To        int
	Bandwidth int64 // Kbit/s, must be > 0 for a usable link
	Latency   int64 // microseconds, must be >= 0
}

// Graph is the read-only view of a weighted digraph that routing operates on.
// Nodes must return identifiers in a deterministic order; Out must return the
// out-arcs of a node in a deterministic order.
type Graph interface {
	Nodes() []int
	Out(u int) []Arc
}

// Metric is the quality of a path: bottleneck bandwidth and total latency.
// The zero value (Bandwidth 0) means "unreachable".
type Metric struct {
	Bandwidth int64
	Latency   int64
}

// Unreachable is the metric of a non-existent path.
var Unreachable = Metric{}

// Empty is the metric of the empty path (a node to itself).
var Empty = Metric{Bandwidth: InfBandwidth}

// Reachable reports whether m describes an actual path.
func (m Metric) Reachable() bool { return m.Bandwidth > 0 }

// Better reports whether m is strictly better than o in the shortest-widest
// order: wider wins; at equal width, lower latency wins.
func (m Metric) Better(o Metric) bool {
	if m.Bandwidth != o.Bandwidth {
		return m.Bandwidth > o.Bandwidth
	}
	return m.Latency < o.Latency
}

// Extend returns the metric of a path with quality m extended by one link of
// the given bandwidth and latency.
func (m Metric) Extend(bw, lat int64) Metric {
	return Metric{Bandwidth: min64(m.Bandwidth, bw), Latency: m.Latency + lat}
}

// Concat returns the metric of the concatenation of two paths.
func (m Metric) Concat(o Metric) Metric {
	if !m.Reachable() || !o.Reachable() {
		return Unreachable
	}
	return Metric{Bandwidth: min64(m.Bandwidth, o.Bandwidth), Latency: m.Latency + o.Latency}
}

// instr caches the counter handles of one instrumented routing computation.
// The zero value (nil handles) is the uninstrumented fast path: hot loops
// accumulate into locals and the publishing Adds below are nil-check no-ops.
type instr struct {
	runs, relaxations, fallbacks *metrics.Counter
}

// instrFor resolves the qos counter handles once per computation; reg may be
// nil.
func instrFor(reg *metrics.Registry) instr {
	if reg == nil {
		return instr{}
	}
	return instr{
		runs:        reg.Counter("qos_shortest_widest_runs_total"),
		relaxations: reg.Counter("qos_relaxations_total"),
		fallbacks:   reg.Counter("qos_phase2_fallbacks_total"),
	}
}

// ShortestWidest computes shortest-widest paths from src to every node of g.
// Arcs with non-positive bandwidth are ignored.
func ShortestWidest(g Graph, src int) *Result {
	return shortestWidest(g, src, instr{})
}

// ShortestWidestMetrics is ShortestWidest with instrumentation: Dijkstra arc
// relaxations and phase-2 fallback activations are counted into reg (nil reg
// disables the accounting).
func ShortestWidestMetrics(g Graph, src int, reg *metrics.Registry) *Result {
	return shortestWidest(g, src, instrFor(reg))
}

func shortestWidest(g Graph, src int, ins instr) *Result {
	var relaxed, fallbacks int64

	// Phase 1: maximum bottleneck bandwidth to every node.
	width, wprev := widestDijkstra(g, src, &relaxed)
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
	// take their final answer from this run.
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
		members := class[:0]
		for _, v := range class {
			n := ids[v]
			if l, ok := latOf[n]; ok {
				lat[v] = l
				members = append(members, v)
				continue
			}
			// Phase 2 missed a node phase 1 reached. For a Graph
			// honouring its read-only contract this cannot happen —
			// the widest path itself uses only links >= w — but an
			// implementation whose Out answers drift between phases
			// would otherwise see the node silently dropped, i.e.
			// falsely reported unreachable. Fall back to the phase-1
			// widest-tree path from the nearest ancestor this run did
			// reach, with the latency recomputed along that stretch.
			fallbacks++
			stretch := []int{n}
			for a := n; ; {
				a = wprev[a]
				stretch = append(stretch, a)
				if _, ok := latOf[a]; ok {
					break
				}
			}
			slices.Reverse(stretch)
			l, ok := pathLatency(g, stretch, w)
			if !ok {
				// The path itself is gone too; the node really is
				// unreachable on the graph as currently reported.
				continue
			}
			lat[v] = latOf[stretch[0]] + l
			for h := 1; h < len(stretch); h++ {
				prev[idx[stretch[h]]] = idx[stretch[h-1]]
			}
			members = append(members, v)
		}
		b.class(w, members, lat, prev)
	}
	ins.runs.Inc()
	ins.relaxations.Add(relaxed)
	ins.fallbacks.Add(fallbacks)
	return b.finish()
}

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

// pathLatency sums per-hop latencies along path, preferring at each hop the
// fastest arc at least minBW wide and falling back to the fastest usable arc
// of any width. It reports false if some hop has no usable arc at all.
func pathLatency(g Graph, path []int, minBW int64) (int64, bool) {
	var total int64
	for i := 0; i+1 < len(path); i++ {
		var (
			found, foundWide bool
			best, bestWide   int64
		)
		for _, a := range g.Out(path[i]) {
			if a.To != path[i+1] || a.Bandwidth <= 0 {
				continue
			}
			if !found || a.Latency < best {
				found, best = true, a.Latency
			}
			if a.Bandwidth >= minBW && (!foundWide || a.Latency < bestWide) {
				foundWide, bestWide = true, a.Latency
			}
		}
		switch {
		case foundWide:
			total += bestWide
		case found:
			total += best
		default:
			return 0, false
		}
	}
	return total, true
}

// widestDijkstra returns the maximum bottleneck bandwidth from src to every
// reachable node, plus the predecessor map of the widest tree. The source
// maps to InfBandwidth. Every arc relaxation attempt is tallied into relaxed.
func widestDijkstra(g Graph, src int, relaxed *int64) (map[int]int64, map[int]int) {
	width := map[int]int64{src: InfBandwidth}
	prev := make(map[int]int)
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
				prev[a.To] = e.node
				h.push(heapEntry{node: a.To, key: cand})
			}
		}
	}
	return width, prev
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

// ShortestLatency computes minimum-latency paths from src, the metric an
// IP-style underlay actually routes by. The returned metrics carry the
// bottleneck bandwidth of the selected minimum-latency path — which is NOT
// in general the widest available, exactly the gap QoS routing exploits.
func ShortestLatency(g Graph, src int) *Result {
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

// AllPairs holds shortest-widest results from every node of a graph.
type AllPairs struct {
	results map[int]*Result
}

// parallelAllPairsMin is the node count below which the default
// ComputeAllPairs stays sequential: per-source runs on tiny graphs (the
// two-hop local views of the distributed protocol, mostly) finish faster
// than goroutine fan-out costs.
const parallelAllPairsMin = 24

// ComputeAllPairs runs ShortestWidest from every node of g. The paper's
// baseline algorithm starts with exactly this computation. The graph is
// frozen once into CSR form and every per-source run uses the dense kernels
// of dense.go with a per-worker reusable Scratch — byte-identical to the
// map-based reference (ComputeAllPairsRef) at any worker count. Large graphs
// are fanned out over runtime.GOMAXPROCS(0) workers; the result is identical
// to the sequential computation at any worker count, since every per-source
// run is independent and results are assembled in node order after all
// workers join. g must be safe for concurrent reads during the freeze (true
// for every implementation in this module: Nodes/Out only read prebuilt
// state); workers afterwards only touch the frozen snapshot.
func ComputeAllPairs(g Graph) *AllPairs {
	return computeAllPairs(g, 0, true, instr{})
}

// ComputeAllPairsWorkers is ComputeAllPairs with an explicit worker count:
// workers <= 0 means runtime.GOMAXPROCS(0), 1 forces the sequential
// computation, anything larger fans the per-source runs out over that many
// goroutines even on small graphs.
func ComputeAllPairsWorkers(g Graph, workers int) *AllPairs {
	return computeAllPairs(g, workers, false, instr{})
}

// ComputeAllPairsMetrics is ComputeAllPairs with instrumentation into reg
// (nil reg disables it). Counter totals are sums over deterministic
// per-source runs, so they are identical at any worker count.
func ComputeAllPairsMetrics(g Graph, reg *metrics.Registry) *AllPairs {
	return computeAllPairs(g, 0, true, instrFor(reg))
}

// ComputeAllPairsWorkersMetrics is ComputeAllPairsWorkers with
// instrumentation into reg (nil reg disables it).
func ComputeAllPairsWorkersMetrics(g Graph, workers int, reg *metrics.Registry) *AllPairs {
	return computeAllPairs(g, workers, false, instrFor(reg))
}

func computeAllPairs(g Graph, workers int, auto bool, ins instr) *AllPairs {
	nodes := g.Nodes()
	if auto && len(nodes) < parallelAllPairsMin {
		workers = 1
	}
	var view arcView
	view.derive(freezeNodes(nil, g, nodes))
	srcs := make([]int32, len(nodes))
	for i := range srcs {
		srcs[i] = int32(i)
	}
	rows, _ := denseRows(&view, srcs, workers, nil, ins)
	ap := &AllPairs{results: make(map[int]*Result, len(nodes))}
	for i, n := range nodes {
		ap.results[n] = rows[i]
	}
	return ap
}

// denseRows computes the rows of srcs (dense indexes of the view's graph)
// and returns them in srcs order, fanned out over up to workers goroutines
// (<= 0 means GOMAXPROCS) with one Scratch each. Every worker reads the one
// view. scratches is the caller's reusable supply, returned grown to the
// worker count.
func denseRows(v *arcView, srcs []int32, workers int, scratches []*Scratch, ins instr) ([]*Result, []*Scratch) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(srcs))
	for len(scratches) < workers {
		scratches = append(scratches, NewScratch())
	}
	for _, sc := range scratches[:workers] {
		sc.view = v
	}
	rows := make([]*Result, len(srcs))
	fanOut(len(srcs), workers, func(w, i int) {
		rows[i] = shortestWidestDense(v.g, srcs[i], scratches[w], ins)
	})
	return rows, scratches
}

// fanOut calls do(w, i) once for every i in [0, n), from workers goroutines
// numbered w, or inline when one worker is enough.
func fanOut(n, workers int, do func(w, i int)) {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			do(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				do(w, i)
			}
		}()
	}
	wg.Wait()
}

// ComputeAllPairsRef is the sequential map-based reference implementation of
// ComputeAllPairs, retained as the correctness oracle for the CSR hot path:
// the equivalence tests pin the dense engine byte-identical to it — same
// distance tables, same selected paths, same instrumentation counts.
func ComputeAllPairsRef(g Graph) *AllPairs {
	nodes := g.Nodes()
	ap := &AllPairs{results: make(map[int]*Result, len(nodes))}
	for _, n := range nodes {
		ap.results[n] = shortestWidest(g, n, instr{})
	}
	return ap
}

// Metric returns the shortest-widest quality from src to dst.
func (ap *AllPairs) Metric(src, dst int) Metric {
	r, ok := ap.results[src]
	if !ok {
		return Unreachable
	}
	return r.Metric(dst)
}

// Path returns the selected shortest-widest path from src to dst (nil if
// unreachable).
func (ap *AllPairs) Path(src, dst int) []int {
	r, ok := ap.results[src]
	if !ok {
		return nil
	}
	return r.PathTo(dst)
}

// From returns the single-source result rooted at src (nil if src was not a
// node of the graph the all-pairs run saw).
func (ap *AllPairs) From(src int) *Result { return ap.results[src] }

// Sources returns the sources for which results exist, ascending.
func (ap *AllPairs) Sources() []int {
	out := make([]int, 0, len(ap.results))
	for n := range ap.results {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
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
