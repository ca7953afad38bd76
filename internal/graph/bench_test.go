package graph

import (
	"math/rand"
	"testing"
)

// All benchmarks report allocations: the digraph substrate keeps sorted id
// slices per node (a binary search per id lookup), and these numbers keep its
// per-operation cost visible alongside the flat CSR kernels of internal/qos.

func BenchmarkTopoSort(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomDAG(rng, 200, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.TopoSort(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReachable(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := randomDAG(rng, 200, 0.05)
	nodes := g.Nodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Reachable(nodes[i%len(nodes)])
	}
}

// BenchmarkReachableAll sweeps reachability from every node — the all-pairs
// shape of the map-based substrate, for contrast with BenchmarkAllPairs in
// internal/qos.
func BenchmarkReachableAll(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := randomDAG(rng, 200, 0.05)
	nodes := g.Nodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range nodes {
			g.Reachable(n)
		}
	}
}

// BenchmarkBuild lays a 200-node DAG out in one pass, as the requirement
// decoder does.
func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := randomDAG(rng, 200, 0.05)
	nodes, edges := g.Nodes(), g.Edges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(nodes, edges)
	}
}
