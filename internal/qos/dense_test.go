package qos

import (
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"sflow/internal/metrics"
)

// messyRandomGraph extends randomGraph with the inputs the dense engine must
// handle bit-identically to the oracle: gappy non-contiguous node ids,
// duplicate arcs between the same pair, dead arcs (zero or negative
// bandwidth) and isolated nodes.
func messyRandomGraph(rng *rand.Rand, n int, p float64) *testGraph {
	g := newTestGraph()
	ids := make([]int, n)
	id := 0
	for i := range ids {
		id += 1 + rng.Intn(9) // strictly increasing, gappy
		ids[i] = id
		g.addNode(id)
	}
	for _, u := range ids {
		for _, v := range ids {
			if u == v || rng.Float64() >= p {
				continue
			}
			g.addArc(u, v, int64(1+rng.Intn(100)), int64(rng.Intn(1000)))
			if rng.Float64() < 0.15 { // duplicate arc, different weights
				g.addArc(u, v, int64(1+rng.Intn(100)), int64(rng.Intn(1000)))
			}
			if rng.Float64() < 0.1 { // dead arc
				g.addArc(u, v, int64(-rng.Intn(3)), int64(rng.Intn(10)))
			}
		}
	}
	return g
}

// requireResultsEqual asserts two Results are byte-identical: source,
// distance table and every selected path.
func requireResultsEqual(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Source != want.Source {
		t.Fatalf("%s: Source = %d, want %d", label, got.Source, want.Source)
	}
	gotDist, wantDist := maps.Collect(got.Reached), maps.Collect(want.Reached)
	if !reflect.DeepEqual(gotDist, wantDist) {
		t.Fatalf("%s: metrics diverged:\n got %v\nwant %v", label, gotDist, wantDist)
	}
	for dst := range wantDist {
		if g, w := got.PathTo(dst), want.PathTo(dst); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: path to %d diverged:\n got %v\nwant %v", label, dst, g, w)
		}
	}
	if !got.Equal(want) || !want.Equal(got) {
		t.Fatalf("%s: Equal disagrees with the field-by-field comparison", label)
	}
}

// TestCSRShortestWidestMatchesOracle is the engine-equality property test:
// over seeded random graphs (including dead/duplicate arcs and gappy ids)
// the dense CSR kernel must reproduce the map-based oracle exactly — same
// metrics, same selected paths, with one Scratch reused across every run.
func TestCSRShortestWidestMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sc := NewScratch()
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(14)
		g := messyRandomGraph(rng, n, 0.15+rng.Float64()*0.4)
		cg := FreezeGraph(g)
		for _, src := range g.Nodes() {
			want := ShortestWidest(g, src)
			got := ShortestWidestCSR(cg, src, sc)
			requireResultsEqual(t, "shortest-widest", got, want)
		}
	}
}

func TestCSRShortestLatencyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sc := NewScratch()
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(14)
		g := messyRandomGraph(rng, n, 0.15+rng.Float64()*0.4)
		cg := FreezeGraph(g)
		for _, src := range g.Nodes() {
			want := ShortestLatency(g, src)
			got := ShortestLatencyCSR(cg, src, sc)
			requireResultsEqual(t, "shortest-latency", got, want)
		}
	}
}

func TestCSRAllPairsMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		g := messyRandomGraph(rng, 3+rng.Intn(20), 0.25)
		ref := ComputeAllPairsRef(g)
		for _, workers := range []int{1, 3} {
			ap := ComputeAllPairsWorkers(g, workers)
			if !ap.Equal(ref) || !ref.Equal(ap) {
				t.Fatalf("trial %d workers %d: CSR all-pairs diverged from map reference", trial, workers)
			}
			for _, src := range g.Nodes() {
				requireResultsEqual(t, "all-pairs", ap.From(src), ref.From(src))
			}
		}
	}
}

// TestCSRUnknownSourceMatchesOracle pins the dense wrappers' answers for a
// source the graph does not contain to the oracle's.
func TestCSRUnknownSourceMatchesOracle(t *testing.T) {
	g := newTestGraph()
	g.addArc(1, 2, 10, 1)
	cg := FreezeGraph(g)
	requireResultsEqual(t, "widest unknown src", ShortestWidestCSR(cg, 99, nil), ShortestWidest(g, 99))
	requireResultsEqual(t, "latency unknown src", ShortestLatencyCSR(cg, 99, nil), ShortestLatency(g, 99))
}

// TestCSRMetricsParity asserts the dense engine's counter invariants against
// the oracle: run and fallback counts are exactly equal, and the relaxation
// tally obeys the documented <=-oracle bound — the tiered early exit stops
// each phase-2 run once its width class has settled, so the dense engine
// attempts at most as many relaxations as the oracle's full runs (and must
// still attempt some: phase 1 alone tallies every arc of a reached node).
func TestCSRMetricsParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		g := messyRandomGraph(rng, 4+rng.Intn(16), 0.3)

		dense := metrics.New()
		ComputeAllPairsWorkersMetrics(g, 2, dense)

		oracle := metrics.New()
		ins := instrFor(oracle)
		for _, src := range g.Nodes() {
			shortestWidest(g, src, ins)
		}

		for _, name := range []string{
			"qos_shortest_widest_runs_total",
			"qos_phase2_fallbacks_total",
		} {
			if got, want := dense.Counter(name).Value(), oracle.Counter(name).Value(); got != want {
				t.Fatalf("trial %d: %s = %d, oracle %d", trial, name, got, want)
			}
		}
		got := dense.Counter("qos_relaxations_total").Value()
		want := oracle.Counter("qos_relaxations_total").Value()
		if got > want {
			t.Fatalf("trial %d: qos_relaxations_total = %d exceeds oracle %d", trial, got, want)
		}
		if want > 0 && got == 0 {
			t.Fatalf("trial %d: qos_relaxations_total = 0, oracle %d (early exit cannot skip phase 1)", trial, want)
		}
	}
}

// TestScratchReuseAcrossSizes drives one Scratch across graphs that grow and
// shrink, ensuring stale state from a larger graph never leaks into a
// smaller one's run.
func TestScratchReuseAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sc := NewScratch()
	for _, n := range []int{18, 4, 30, 2, 11} {
		g := messyRandomGraph(rng, n, 0.35)
		cg := FreezeGraph(g)
		for _, src := range g.Nodes() {
			requireResultsEqual(t, "scratch reuse",
				ShortestWidestCSR(cg, src, sc), ShortestWidest(g, src))
			requireResultsEqual(t, "scratch reuse latency",
				ShortestLatencyCSR(cg, src, sc), ShortestLatency(g, src))
		}
	}
}

// TestPathToReturnsCopy is the aliasing regression test for the PathTo fix:
// mutating a returned path must not corrupt the Result's internal state, on
// either engine, nor through the AllPairs accessor.
func TestPathToReturnsCopy(t *testing.T) {
	g := newTestGraph()
	g.addArc(1, 2, 100, 10)
	g.addArc(2, 4, 100, 10)
	g.addArc(1, 3, 50, 1)
	g.addArc(3, 4, 50, 1)

	check := func(label string, path func() []int, want []int) {
		t.Helper()
		p := path()
		if !reflect.DeepEqual(p, want) {
			t.Fatalf("%s: path = %v, want %v", label, p, want)
		}
		for i := range p {
			p[i] = -999
		}
		if got := path(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: internal path corrupted through returned slice: %v", label, got)
		}
	}

	oracle := ShortestWidest(g, 1)
	check("oracle", func() []int { return oracle.PathTo(4) }, []int{1, 2, 4})
	dense := ShortestWidestCSR(FreezeGraph(g), 1, nil)
	check("dense", func() []int { return dense.PathTo(4) }, []int{1, 2, 4})
	ap := ComputeAllPairs(g)
	check("allpairs", func() []int { return ap.Path(1, 4) }, []int{1, 2, 4})

	if oracle.PathTo(99) != nil {
		t.Fatal("PathTo(unreachable) must stay nil")
	}
}
