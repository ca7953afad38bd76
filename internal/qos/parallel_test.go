package qos

import (
	"math/rand"
	"reflect"
	"testing"
)

// The parallel all-pairs computation must be indistinguishable from the
// sequential one at any worker count: same metrics, same concrete paths.
func TestComputeAllPairsWorkersMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, 0.3)
		seq := ComputeAllPairsWorkers(g, 1)
		for _, workers := range []int{2, 4, 8} {
			par := ComputeAllPairsWorkers(g, workers)
			if !reflect.DeepEqual(seq.Sources(), par.Sources()) {
				t.Fatalf("trial %d workers %d: sources differ", trial, workers)
			}
			for _, src := range g.Nodes() {
				for _, dst := range g.Nodes() {
					if seq.Metric(src, dst) != par.Metric(src, dst) {
						t.Fatalf("trial %d workers %d: metric %d->%d differs: %+v vs %+v",
							trial, workers, src, dst, seq.Metric(src, dst), par.Metric(src, dst))
					}
					if !reflect.DeepEqual(seq.Path(src, dst), par.Path(src, dst)) {
						t.Fatalf("trial %d workers %d: path %d->%d differs: %v vs %v",
							trial, workers, src, dst, seq.Path(src, dst), par.Path(src, dst))
					}
				}
			}
		}
	}
}

// Property test pinning the parallel all-pairs against brute-force path
// enumeration on small seeded random graphs: every source must report the
// (bandwidth desc, latency asc) optimum for every destination, and the
// reported path must realise the reported metric.
func TestComputeAllPairsWorkersMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(7) // <= 8 nodes: exhaustive enumeration stays cheap
		g := randomGraph(rng, n, 0.4)
		ap := ComputeAllPairsWorkers(g, 4)
		for _, src := range g.Nodes() {
			for _, dst := range g.Nodes() {
				want := bruteForce(g, src, dst)
				got := ap.Metric(src, dst)
				if got != want {
					t.Fatalf("trial %d: metric %d->%d = %+v, brute force %+v",
						trial, src, dst, got, want)
				}
				if !want.Reachable() {
					continue
				}
				if m := pathMetric(g, ap.Path(src, dst)); m != got {
					t.Fatalf("trial %d: path %v realises %+v, reported %+v",
						trial, ap.Path(src, dst), m, got)
				}
			}
		}
	}
}

// The default ComputeAllPairs goes parallel above the size threshold; it too
// must match the sequential computation exactly.
func TestComputeAllPairsDefaultMatchesSequentialAboveThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, parallelAllPairsMin+8, 0.2)
	def := ComputeAllPairsWorkers(g, 0)
	seq := ComputeAllPairsWorkers(g, 1)
	for _, src := range g.Nodes() {
		for _, dst := range g.Nodes() {
			if def.Metric(src, dst) != seq.Metric(src, dst) {
				t.Fatalf("metric %d->%d differs", src, dst)
			}
			if !reflect.DeepEqual(def.Path(src, dst), seq.Path(src, dst)) {
				t.Fatalf("path %d->%d differs", src, dst)
			}
		}
	}
}
