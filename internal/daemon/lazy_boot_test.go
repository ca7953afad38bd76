package daemon

import (
	"testing"

	"sflow/internal/scenario"

	"sflow/internal/metrics"
)

// A lazy daemon must boot without routing anything: the session table, the
// published epoch AND the re-optimization planner's mirror session are all
// demand-driven. Regression for the planner eagerly building a full
// all-pairs session at New — on a 50k-node overlay that turned `sflowd
// -large -lazy` boot into minutes of O(N²) work before the listener ever
// opened.
func TestLazyBootRunsNoRouting(t *testing.T) {
	s, err := scenario.GenerateLarge(scenario.LargeConfig{Seed: 1, Nodes: 3000})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	srv := New(s.Overlay, Options{Routing: Routing{Workers: 1, Lazy: true, Metrics: reg}})
	defer srv.Close()
	for _, c := range reg.Snapshot().Counters {
		switch c.Key {
		case "qos_shortest_widest_runs_total", "qos_lazy_rows_computed_total",
			"qos_incremental_recomputed_sources_total":
			if c.Value != 0 {
				t.Fatalf("%s = %d after lazy boot, want 0", c.Key, c.Value)
			}
		}
	}
}
