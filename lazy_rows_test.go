package sflow_test

import (
	"testing"

	"sflow"
	"sflow/internal/abstract"
	"sflow/internal/qos"
	"sflow/internal/session"
)

// TestLazyLargeKernelCounts pins the kernel work behind the lazy-large
// benchmark workload as exact counts: the 25 rows its request pool reads on
// its overlay (GenerateLargeScenario, seed 1, 10,000 nodes, 6 services of 6
// instances) — the source row plus the rows of services 2–5 — computed
// through a lazy table. Counts carry no wall-clock, so they cannot flake; a
// kernel change that moves one settle out of (key, external id) order moves
// the relaxation total.
func TestLazyLargeKernelCounts(t *testing.T) {
	const (
		wantRuns        = 25
		wantRelaxations = 2172027
	)
	sc, err := sflow.GenerateLargeScenario(sflow.LargeScenarioConfig{Seed: 1, Nodes: 10000,
		Services: 6, InstancesPerService: 6})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	var sources []int
	for _, sids := range [][]int{{1, 2}, {1, 2, 6}, {1, 3, 6}, {1, 4, 6}, {1, 5, 6}} {
		req, err := sflow.PathRequirement(sids...)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range abstract.SlotSources(sc.Overlay, req) {
			if !seen[src] {
				seen[src] = true
				sources = append(sources, src)
			}
		}
	}
	if len(sources) != 25 {
		t.Fatalf("%d rows in the read set, want 25", len(sources))
	}
	reg := sflow.NewMetrics()
	table := qos.New(sc.Overlay, qos.Options{Lazy: true, Metrics: reg})
	for _, src := range sources {
		table.From(src)
	}
	if got := reg.Counter("qos_shortest_widest_runs_total").Value(); got != wantRuns {
		t.Errorf("qos_shortest_widest_runs_total = %d, want %d", got, wantRuns)
	}
	if got := reg.Counter("qos_relaxations_total").Value(); got != wantRelaxations {
		t.Errorf("qos_relaxations_total = %d, want %d", got, wantRelaxations)
	}
}

// lazyLargeScenario is the lazy-large benchmark workload's overlay:
// GenerateLargeScenario, seed 1, 10,000 nodes, 6 services of 6 instances.
func lazyLargeScenario(t *testing.T) *sflow.Scenario {
	t.Helper()
	sc, err := sflow.GenerateLargeScenario(sflow.LargeScenarioConfig{Seed: 1, Nodes: 10000,
		Services: 6, InstancesPerService: 6})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// cloneSink keeps each clone reachable, so the compiler cannot drop the
// header allocation TestCloneAllocations counts.
var cloneSink *sflow.Overlay

// Cloning lazy-large's overlay allocates the new version's header and
// nothing else: the versions share every map and list until one writes.
// A deep copy allocated 20,112 times here. It counts, so it cannot flake.
func TestCloneAllocations(t *testing.T) {
	ov := lazyLargeScenario(t).Overlay
	const ceiling = 1
	if got := testing.AllocsPerRun(20, func() { cloneSink = ov.Clone() }); got > ceiling {
		t.Fatalf("Clone allocates %v, ceiling %d", got, ceiling)
	}
}

// One epoch of a lazy session on lazy-large's overlay, a grown link and the
// Snapshot that publishes it, allocates at most this much: the overlay
// copies the two adjacency maps and the two lists the growth writes, and the
// table patches a copy of the freeze's arc arrays the previous snapshot still
// routes on. It counts 85; with deep-copied overlays and a re-frozen table
// it counted 20,249. It counts, so it cannot flake.
func TestLazyEpochAllocations(t *testing.T) {
	sc := lazyLargeScenario(t)
	s := session.New(sc.Overlay, session.Options{Lazy: true, MaxRows: 16})
	s.Table().From(sc.SourceNID) // the freeze exists and a row is resident
	links := sc.Overlay.Links()
	i := 0
	epoch := func() {
		l := links[i%len(links)]
		i += 7919
		if err := s.GrowLinkBandwidth(l.From, l.To, 1); err != nil {
			t.Fatal(err)
		}
		s.Snapshot()
	}
	epoch()
	const ceiling = 150
	if got := testing.AllocsPerRun(20, epoch); got > ceiling {
		t.Fatalf("a lazy epoch allocates %v, ceiling %d", got, ceiling)
	}
}
