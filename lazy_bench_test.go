// Benchmarks of the demand-driven routing path in the large-overlay regime
// the lazy table exists for. BenchmarkLazyFederate is the gated record
// (results/BENCH_lazy.json): one full federation — lazy table, abstract
// graph, reduction — against directly generated 10k- and 50k-node overlays,
// where an eager all-pairs build would run N Dijkstras to serve the ~10 rows
// the requirement reads. BenchmarkLazyCalibration is the same solve at an
// evaluation-adjacent size, used by `make lazy-check` to normalize away
// runner speed. BenchmarkLazyRowHit is the other end of the same table: what a
// read costs once the row is resident.
package sflow_test

import (
	"fmt"
	"testing"

	"sflow"
	"sflow/internal/qos"
)

func benchLazyFederate(b *testing.B, nodes int) {
	sc, err := sflow.GenerateLargeScenario(sflow.LargeScenarioConfig{Seed: 1, Nodes: nodes})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := sflow.Solve("heuristic", sc.Overlay, sc.Req, sc.SourceNID,
			sflow.SolveOptions{Lazy: true})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Metric.Bandwidth <= 0 {
			b.Fatal("no usable flow")
		}
	}
}

// BenchmarkLazyFederate measures one lazy federation per iteration; a fresh
// table every time, so the cost is the demand-driven worst case (every slot
// row computed, nothing memoized from earlier solves).
func BenchmarkLazyFederate(b *testing.B) {
	for _, n := range []int{10_000, 50_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchLazyFederate(b, n) })
	}
}

// BenchmarkLazyCalibration is the normalization leg: the identical solve at
// a size small enough to be cheap everywhere. Regressions specific to the
// large-overlay path show up in the gated ratio; uniform runner slowness
// cancels out.
func BenchmarkLazyCalibration(b *testing.B) {
	benchLazyFederate(b, 2000)
}

// BenchmarkLazyRowHit prices a read of a resident row of the 10k-node
// overlay. read=row is Result.Metric alone, the id lookup and array read a
// solve repeats per destination once it holds the row; read=table is the
// whole hit path through a bounded lazy AllPairs: one lock, one row lookup,
// one LRU touch, then the same read.
func BenchmarkLazyRowHit(b *testing.B) {
	sc, err := sflow.GenerateLargeScenario(sflow.LargeScenarioConfig{Seed: 1, Nodes: 10_000})
	if err != nil {
		b.Fatal(err)
	}
	lt := qos.New(sc.Overlay, qos.Options{Lazy: true, MaxRows: 16})
	row := lt.From(sc.SourceNID)
	dsts := sc.Overlay.Nodes()
	var sink qos.Metric
	b.Run("read=row", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = row.Metric(dsts[i%len(dsts)])
		}
	})
	b.Run("read=table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = lt.Metric(sc.SourceNID, dsts[i%len(dsts)])
		}
	})
	if !sink.Reachable() {
		b.Fatal("the overlay's last node is unreachable from the source")
	}
}
