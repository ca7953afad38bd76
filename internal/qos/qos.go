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
	"math"
	"runtime"
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
	runs, relaxations *metrics.Counter
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
	}
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

// ComputeAllPairs runs the shortest-widest computation from every node of g.
// The paper's baseline algorithm starts with exactly this computation. The
// graph is frozen once into CSR form and every per-source run uses the dense
// kernels of dense.go with a per-worker reusable Scratch. Large graphs
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
