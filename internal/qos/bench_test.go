package qos

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

func benchGraph(n int) *testGraph {
	rng := rand.New(rand.NewSource(int64(n)))
	return randomGraph(rng, n, 0.2)
}

// BenchmarkWidestKernel prices one phase-1 max-bottleneck Dijkstra:
// engine=map is the reference oracle allocating per-call maps, engine=csr is
// the dense kernel on a frozen graph with a reused Scratch (steady-state
// allocs/op must be ~0). These two kernel benchmarks plus BenchmarkAllPairs
// are the set the CI regression gate watches (see `make bench-check`).
func BenchmarkWidestKernel(b *testing.B) {
	g := benchGraph(100)
	src := g.Nodes()[0]
	b.Run("engine=map", func(b *testing.B) {
		b.ReportAllocs()
		var relaxed int64
		for i := 0; i < b.N; i++ {
			widestDijkstra(g, src, &relaxed)
		}
	})
	b.Run("engine=csr", func(b *testing.B) {
		cg := FreezeGraph(g)
		idx, _ := cg.Index(src)
		sc := NewScratch()
		sc.ensure(cg.Len())
		b.ReportAllocs()
		b.ResetTimer()
		var relaxed int64
		for i := 0; i < b.N; i++ {
			sc.denseWidest(cg, idx, &relaxed)
		}
	})
}

// BenchmarkLatencyKernel prices one latency-only Dijkstra (minBW=1), the
// phase-2 / underlay-routing kernel, map oracle vs dense CSR.
func BenchmarkLatencyKernel(b *testing.B) {
	g := benchGraph(100)
	src := g.Nodes()[0]
	b.Run("engine=map", func(b *testing.B) {
		b.ReportAllocs()
		var relaxed int64
		for i := 0; i < b.N; i++ {
			latencyDijkstra(g, src, 1, &relaxed)
		}
	})
	b.Run("engine=csr", func(b *testing.B) {
		cg := FreezeGraph(g)
		idx, _ := cg.Index(src)
		sc := NewScratch()
		sc.ensure(cg.Len())
		b.ReportAllocs()
		b.ResetTimer()
		var relaxed int64
		for i := 0; i < b.N; i++ {
			sc.denseLatency(cg, idx, 1, &relaxed)
		}
	})
}

// BenchmarkShortestWidest prices one full two-phase single-source solve,
// Result assembly included: the map oracle vs the dense engine on a frozen
// graph with a reused Scratch.
func BenchmarkShortestWidest(b *testing.B) {
	for _, n := range []int{20, 50, 100} {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("engine=map/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				shortestWidestRef(g, i%n)
			}
		})
		b.Run(fmt.Sprintf("engine=csr/n=%d", n), func(b *testing.B) {
			cg := FreezeGraph(g)
			sc := NewScratch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ShortestWidestCSR(cg, i%n, sc)
			}
		})
	}
}

func BenchmarkShortestLatency(b *testing.B) {
	g := benchGraph(100)
	b.Run("engine=map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			shortestLatencyRef(g, i%100)
		}
	})
	b.Run("engine=csr", func(b *testing.B) {
		cg := FreezeGraph(g)
		sc := NewScratch()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ShortestLatencyCSR(cg, i%100, sc)
		}
	})
}

// BenchmarkAllPairs prices the full table build that feeds abstract.Build —
// the computation at the bottom of every solve. engine=map is the retained
// sequential oracle (computeAllPairsRef, also the machine-speed calibration
// reference of the CI regression gate); engine=csr is the default engine,
// freeze included, at one worker so both legs do the same sequential work.
func BenchmarkAllPairs(b *testing.B) {
	for _, n := range []int{50, 120} {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("engine=map/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				computeAllPairsRef(g)
			}
		})
		b.Run(fmt.Sprintf("engine=csr/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ComputeAllPairsWorkers(g, 1)
			}
		})
	}
}

// BenchmarkComputeAllPairsWorkers compares the sequential all-pairs
// shortest-widest computation against the parallel fan-out at the host's
// GOMAXPROCS (floored at 4 so a single-core runner still exercises — and
// prices — the pool machinery). On a multi-core host the parallel variant
// should win roughly linearly in cores; both run the CSR engine.
func BenchmarkComputeAllPairsWorkers(b *testing.B) {
	multi := runtime.GOMAXPROCS(0)
	if multi < 2 {
		multi = 4
	}
	for _, n := range []int{50, 120} {
		g := benchGraph(n)
		for _, workers := range []int{1, multi} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ComputeAllPairsWorkers(g, workers)
				}
			})
		}
	}
}

// largeTierGraph builds a GenerateLarge-shaped graph without importing the
// scenario package: a ring backbone plus `degree` random extra links per
// node, bandwidths drawn from an evenly spaced palette of `tiers` distinct
// values and latencies in [1, 100] — the same shape (and the same small
// integer latency range) the large-overlay generator produces.
func largeTierGraph(n, degree, tiers int) *testGraph {
	rng := rand.New(rand.NewSource(int64(31*n + tiers)))
	palette := make([]int64, tiers)
	for i := range palette {
		if tiers == 1 {
			palette[i] = 1000
			continue
		}
		palette[i] = int64(100 + i*(9900/(tiers-1)))
	}
	g := newTestGraph()
	for i := 0; i < n; i++ {
		g.addNode(i)
	}
	link := func(u, v int) {
		bw := palette[rng.Intn(tiers)]
		lat := int64(1 + rng.Intn(100))
		g.addArc(u, v, bw, lat)
		g.addArc(v, u, bw, lat)
	}
	for i := 0; i < n; i++ {
		link(i, (i+1)%n)
	}
	for i := 0; i < n; i++ {
		for d := 0; d < degree; d++ {
			if j := rng.Intn(n); j != i {
				link(i, j)
			}
		}
	}
	return g
}

// BenchmarkShortestWidestTiers prices one full shortest-widest row on a
// GenerateLarge-shaped graph as the bandwidth palette widens: each distinct
// width class costs one (early-exited) phase-2 latency run, so the tier count
// is the kernel's per-row multiplier. tiers=1 is the single-class floor,
// tiers=6 the GenerateLarge default the `make bench-kernel` gate watches,
// tiers=12 the stress end; tiers=6/n=10000 is the row of the lazy-large
// benchmark workload's overlay size. B/row is what the returned row owns
// (Result.Bytes): more tiers mean more per-class parent overrides.
func BenchmarkShortestWidestTiers(b *testing.B) {
	for _, leg := range []struct{ tiers, n int }{{1, 2000}, {3, 2000}, {6, 2000}, {12, 2000}, {6, 10000}} {
		g := largeTierGraph(leg.n, 3, leg.tiers)
		b.Run(fmt.Sprintf("tiers=%d/n=%d", leg.tiers, leg.n), func(b *testing.B) {
			cg := FreezeGraph(g)
			sc := NewScratch()
			b.ReportAllocs()
			b.ResetTimer()
			rowBytes := 0
			for i := 0; i < b.N; i++ {
				rowBytes += ShortestWidestCSR(cg, i%leg.n, sc).Bytes()
			}
			b.ReportMetric(float64(rowBytes)/float64(b.N), "B/row")
		})
	}
}

// BenchmarkIncrementalFlush prices the steady-state single-link-churn flush
// the sessions run on: one tree arc out of a source halved and restored in
// turn, the rows it moves recomputed on the patched CSR with persistent
// per-worker scratches.
func BenchmarkIncrementalFlush(b *testing.B) {
	g := benchGraph(120)
	u := g.Nodes()[0]
	inc := New(g, Options{Workers: 1})
	row := flushed(inc).From(u)
	var arc *Arc
	for i, a := range g.adj[u] {
		if len(row.PathTo(a.To)) == 2 && a.Bandwidth > 1 {
			arc = &g.adj[u][i]
			break
		}
	}
	if arc == nil {
		b.Fatal("no direct tree arc out of the source")
	}
	full := arc.Bandwidth
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		old := arc.Bandwidth
		arc.Bandwidth = full
		if old == full {
			arc.Bandwidth = full / 2
		}
		inc.ArcChanged(u, arc.To, old, arc.Bandwidth)
		if inc.Flush() == 0 {
			b.Fatal("nothing recomputed")
		}
	}
}
