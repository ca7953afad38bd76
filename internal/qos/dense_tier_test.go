package qos

import (
	"math/rand"
	"testing"
)

// checkAllSources asserts dense-vs-oracle byte equality for every source of g,
// reusing one Scratch across rows (the steady-state calling convention).
func checkAllSources(t *testing.T, label string, g *testGraph) {
	t.Helper()
	cg := FreezeGraph(g)
	sc := NewScratch()
	for _, src := range g.Nodes() {
		requireResultsEqual(t, label+" widest", ShortestWidestCSR(cg, src, sc), ShortestWidest(g, src))
		requireResultsEqual(t, label+" latency", ShortestLatencyCSR(cg, src, sc), ShortestLatency(g, src))
	}
}

// TestTierSingleClass is the single-tier palette edge case: every arc has the
// same bandwidth, so phase 2 is exactly one (early-exited) latency run.
func TestTierSingleClass(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := newTestGraph()
	for i := 0; i < 12; i++ {
		g.addNode(i)
	}
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if i != j && rng.Float64() < 0.3 {
				g.addArc(i, j, 500, int64(1+rng.Intn(50)))
			}
		}
	}
	checkAllSources(t, "single-tier", g)
}

// TestTierAllDistinctWidths is the worst-case palette: every arc bandwidth is
// unique, so each reached node can form its own width class (one phase-2 run
// per node).
func TestTierAllDistinctWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g := newTestGraph()
	for i := 0; i < 14; i++ {
		g.addNode(i)
	}
	bw := int64(100)
	for i := 0; i < 14; i++ {
		for j := 0; j < 14; j++ {
			if i != j && rng.Float64() < 0.25 {
				bw++
				g.addArc(i, j, bw, int64(1+rng.Intn(80)))
			}
		}
	}
	checkAllSources(t, "all-distinct", g)
}

// TestTierInfBandwidthRows pins the InfBandwidth edge case: arcs as wide as
// the empty path share the source's phase-1 width, which the early-exit
// counter must not confuse with the source itself.
func TestTierInfBandwidthRows(t *testing.T) {
	g := newTestGraph()
	// A pure-InfBandwidth component plus a finite spur.
	g.addArc(1, 2, InfBandwidth, 5)
	g.addArc(2, 3, InfBandwidth, 7)
	g.addArc(3, 1, InfBandwidth, 2)
	g.addArc(2, 4, 10, 1)
	g.addArc(4, 5, InfBandwidth, 3)
	checkAllSources(t, "inf-bandwidth", g)

	// All-InfBandwidth graph: a single width class equal to the source width.
	h := newTestGraph()
	h.addArc(1, 2, InfBandwidth, 1)
	h.addArc(2, 3, InfBandwidth, 1)
	h.addArc(3, 4, InfBandwidth, 4)
	h.addArc(4, 1, InfBandwidth, 2)
	checkAllSources(t, "all-inf", h)
}

// TestKernelForcedEquality pins bucket-vs-heap Result byte equality (the
// relaxation counter included) with the kernel choice forced both ways, over
// graphs inside the bucket regime.
func TestKernelForcedEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	heapSC, bucketSC := NewScratch(), NewScratch()
	heapSC.forceKernel = kernelHeap
	bucketSC.forceKernel = kernelBucket
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(14)
		g := newTestGraph()
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i * (1 + rng.Intn(3)) // gappy but distinct
			g.addNode(ids[i])
		}
		for _, u := range ids {
			for _, v := range ids {
				if u != v && rng.Float64() < 0.3 {
					// Latencies include 0 so zero-latency same-bucket
					// settling is exercised.
					g.addArc(u, v, int64(1+rng.Intn(6)), int64(rng.Intn(40)))
				}
			}
		}
		cg := FreezeGraph(g)
		for _, src := range g.Nodes() {
			var relHeap, relBucket int64
			idx, _ := cg.Index(src)
			heapSC.ensure(cg.Len())
			bucketSC.ensure(cg.Len())
			heapSC.denseWidest(cg, idx, &relHeap)
			bucketSC.denseWidest(cg, idx, &relBucket)
			hw := shortestWidestDense(cg, idx, heapSC, instr{})
			bw := shortestWidestDense(cg, idx, bucketSC, instr{})
			requireResultsEqual(t, "forced kernels", bw, hw)

			hl := ShortestLatencyCSR(cg, src, heapSC)
			bl := ShortestLatencyCSR(cg, src, bucketSC)
			requireResultsEqual(t, "forced kernels latency", bl, hl)
		}
	}
}

// TestGroupWidthClassesAllocFree pins the 0-alloc steady state of the
// phase-1-plus-grouping prefix of a row: after warmup, denseWidest and
// groupWidthClasses must not allocate (the sort.Slice closure the grouping
// replaced allocated every call).
func TestGroupWidthClassesAllocFree(t *testing.T) {
	g := largeTierGraph(300, 3, 6)
	cg := FreezeGraph(g)
	sc := NewScratch()
	sc.ensure(cg.Len())
	src := int32(0)
	var relaxed int64
	allocs := testing.AllocsPerRun(50, func() {
		sc.denseWidest(cg, src, &relaxed)
		sc.groupWidthClasses(cg, src)
	})
	if allocs != 0 {
		t.Fatalf("denseWidest+groupWidthClasses allocates %.1f/run, want 0", allocs)
	}
}

// TestShortestLatencyParallelArcs pins the oracle's parallel-arc selection
// (lowest latency, then widest, then first declared) through the recorded-arc
// bottleneck assembly, with the arc declaration order flipped to prove the
// answer does not depend on it.
func TestShortestLatencyParallelArcs(t *testing.T) {
	build := func(flip bool) *testGraph {
		g := newTestGraph()
		arcs := [][3]int64{ // to=2: {bw, lat}
			{40, 5, 0}, {90, 5, 0}, {90, 5, 0}, {70, 3, 0}, {20, 3, 0},
		}
		if flip {
			for i, j := 0, len(arcs)-1; i < j; i, j = i+1, j-1 {
				arcs[i], arcs[j] = arcs[j], arcs[i]
			}
		}
		for _, a := range arcs {
			g.addArc(1, 2, a[0], a[1])
		}
		g.addArc(2, 3, 15, 4)
		g.addArc(2, 3, 60, 4)
		return g
	}
	for _, flip := range []bool{false, true} {
		g := build(flip)
		cg := FreezeGraph(g)
		sc := NewScratch()
		got := ShortestLatencyCSR(cg, 1, sc)
		want := ShortestLatency(g, 1)
		requireResultsEqual(t, "parallel arcs", got, want)
		// The selected bottleneck must be the widest among the
		// minimum-latency parallel arcs on every hop: min(70, 60) = 60.
		if m := got.Metric(3); m.Bandwidth != 60 || m.Latency != 7 {
			t.Fatalf("flip=%v: Metric(3) = %+v, want {60 7}", flip, m)
		}
	}
}
