package sflow_test

import (
	"testing"

	"sflow"
	"sflow/internal/abstract"
	"sflow/internal/qos"
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
