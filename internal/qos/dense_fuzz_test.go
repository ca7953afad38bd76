package qos

import (
	"testing"
)

// permutedGraph declares a testGraph's nodes in a chosen order, so the dense
// index order differs from the external-id order the kernels break ties by.
type permutedGraph struct {
	*testGraph
	order []int
}

func (g permutedGraph) Nodes() []int { return g.order }

// requireKernelsAgree pins bucket-vs-heap-vs-oracle agreement from every
// source in srcs: widest relaxation tallies, shortest-widest rows, latency
// relaxation tallies and latency rows, with the queue discipline forced each
// way. Forcing removes the kernel heuristic from the test.
func requireKernelsAgree(t *testing.T, label string, g Graph, srcs []int) {
	t.Helper()
	cg := FreezeGraph(g)
	heapSC, bucketSC := NewScratch(), NewScratch()
	heapSC.forceKernel = kernelHeap
	bucketSC.forceKernel = kernelBucket
	heapSC.ensure(cg.Len())
	bucketSC.ensure(cg.Len())
	for _, src := range srcs {
		idx, _ := cg.Index(src)
		var relHeap, relBucket int64
		heapSC.denseWidest(cg, idx, &relHeap)
		bucketSC.denseWidest(cg, idx, &relBucket)
		if relHeap != relBucket {
			t.Fatalf("%s src %d: widest relaxations diverged: heap %d, bucket %d", label, src, relHeap, relBucket)
		}
		relHeap, relBucket = 0, 0
		heapSC.denseLatency(cg, idx, 1, &relHeap)
		bucketSC.denseLatency(cg, idx, 1, &relBucket)
		if relHeap != relBucket {
			t.Fatalf("%s src %d: latency relaxations diverged: heap %d, bucket %d", label, src, relHeap, relBucket)
		}

		hw := shortestWidestDense(cg, idx, heapSC, instr{})
		bw := shortestWidestDense(cg, idx, bucketSC, instr{})
		requireResultsEqual(t, label+" widest", bw, hw)
		requireResultsEqual(t, label+" widest vs oracle", bw, shortestWidestRef(g, src))

		hl := ShortestLatencyCSR(cg, src, heapSC)
		bl := ShortestLatencyCSR(cg, src, bucketSC)
		requireResultsEqual(t, label+" latency", bl, hl)
		requireResultsEqual(t, label+" latency vs oracle", bl, shortestLatencyRef(g, src))
	}
}

// FuzzBucketQueue pins bucket-vs-heap kernel Result byte equality over
// fuzz-built graphs: order picks the order the 8 nodes are declared in (a
// permutation in the factorial number system; 0 is ascending), and every
// four bytes of trace declare one arc (source, target, bandwidth tier,
// latency). A source byte past the node set sends the arc to one undeclared
// id instead, which freezes as an implicit node. Both the shortest-widest
// and the latency kernel must answer identically — settle order, distances,
// paths and the relaxation tallies — with the queue discipline forced each
// way, and equal the map oracle. Latencies decode non-negative and small, so
// every fuzz graph is inside the bucket regime.
func FuzzBucketQueue(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(0), []byte{0, 1, 1, 1, 1, 2, 1, 1, 2, 0, 1, 1})                 // triangle
	f.Add(uint16(0), []byte{0, 1, 3, 0, 1, 2, 3, 0, 2, 3, 3, 0})                 // zero-latency chain
	f.Add(uint16(0), []byte{0, 1, 1, 5, 0, 1, 2, 5, 0, 1, 1, 9})                 // parallel arcs
	f.Add(uint16(0), []byte{0, 1, 0, 1, 1, 0, 1, 1, 2, 3, 2, 2})                 // dead arc + island pair
	f.Add(uint16(0), []byte{5, 0, 7, 40, 0, 5, 7, 40, 3, 4, 2, 0, 4, 3, 2, 0})   // two 2-cycles
	f.Add(uint16(40319), []byte{0, 1, 3, 0, 1, 2, 3, 0, 2, 3, 3, 0})             // descending declaration
	f.Add(uint16(6720), []byte{0, 1, 2, 1, 0, 2, 2, 1, 1, 2, 2, 0})              // tie between 3 and 6, declared 6 first
	f.Add(uint16(12345), []byte{0, 7, 2, 0, 0, 6, 2, 0, 0, 5, 2, 0, 6, 8, 2, 0}) // zero-latency fan, implicit node
	f.Fuzz(func(t *testing.T, order uint16, trace []byte) {
		if len(trace) > 64 { // 16 arcs over 9 nodes is plenty of shape space
			trace = trace[:64]
		}
		const n = 8
		const implicit = 10 // between declared ids: its rank is not its index
		g := newTestGraph()
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i * 3 // gappy external ids
			g.addNode(ids[i])
		}
		code := int(order)
		for i := n; i > 1; i-- {
			j := code % i
			code /= i
			ids[i-1], ids[i-1-j] = ids[i-1-j], ids[i-1]
		}
		for i := 0; i+3 < len(trace); i += 4 {
			u := int(trace[i]%n) * 3
			v := implicit
			if k := trace[i+1] % (n + 1); k < n {
				v = int(k) * 3
			}
			// Bandwidth tier 0 decodes as a dead arc; latency stays in
			// [0, 63] so the bucket window is small and zero-latency
			// same-bucket settling is exercised.
			bw := int64(trace[i+2] % 8)
			lat := int64(trace[i+3] % 64)
			if u != v {
				g.addArc(u, v, bw*10, lat)
			}
		}
		requireKernelsAgree(t, "fuzz", permutedGraph{g, ids}, g.Nodes())
	})
}
