package qos_test

import (
	"math/rand"
	"runtime"
	"testing"

	"sflow/internal/overlay"
	"sflow/internal/qos"
	"sflow/internal/scenario"
)

// allocsPerRow reports the heap bytes and allocations one steady-state
// ShortestWidestCSR(g, src, sc) performs. Nothing else runs in the test
// binary meanwhile, so the counts are exact.
func allocsPerRow(g qos.Graph, src int) (bytes, allocs float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cg := qos.FreezeGraph(g)
	sc := qos.NewScratch()
	qos.ShortestWidestCSR(cg, src, sc) // size the scratch
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		qos.ShortestWidestCSR(cg, src, sc)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs, float64(after.Mallocs-before.Mallocs) / runs
}

// TestRowAllocationLargeOverlay prices the row the lazy daemon keeps resident:
// on the 10k-node GenerateLarge overlay one row is a handful of allocations
// and at most 700 KB, against the 3.4 MB of maps and expanded paths it
// replaced.
func TestRowAllocationLargeOverlay(t *testing.T) {
	sc, err := scenario.GenerateLarge(scenario.LargeConfig{Seed: 1, Nodes: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	bytes, allocs := allocsPerRow(sc.Overlay, sc.SourceNID)
	if bytes > 700<<10 || allocs > 8 {
		t.Fatalf("a 10k-node row allocates %.0f bytes in %.1f allocations, want <= 700 KB in <= 8", bytes, allocs)
	}
	small, err := scenario.GenerateLarge(scenario.LargeConfig{Seed: 1, Nodes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, smallAllocs := allocsPerRow(small.Overlay, small.SourceNID); smallAllocs != allocs {
		t.Fatalf("allocations per row grow with the overlay: %.1f at 1k nodes, %.1f at 10k", smallAllocs, allocs)
	}
	row := qos.ShortestWidestCSR(qos.FreezeGraph(sc.Overlay), sc.SourceNID, nil)
	if got := float64(row.Bytes()); got > bytes || got < 0.9*bytes {
		t.Fatalf("Bytes() = %.0f, the row allocated %.0f", got, bytes)
	}
}

// TestRowAllDistinctWidthsFitsLegacyArena bounds the worst palette, N-1 width
// classes of one member each: a ring whose links narrow step by step away
// from node 0, so every node has a width of its own, plus chords as wide as
// some later ring link, so narrower classes cut across wider nodes' paths. A
// row may not own more bytes, nor allocate more, than the ints of the path
// arena the previous representation expanded every selected path into —
// before counting that representation's two maps.
func TestRowAllDistinctWidthsFitsLegacyArena(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	ov := overlay.New()
	const n = 300
	for i := 0; i < n; i++ {
		if err := ov.AddInstance(i, 1, -1); err != nil {
			t.Fatal(err)
		}
	}
	ringBW := func(i int) int64 { return int64(10 * (n - i)) } // of link i -> i+1
	link := func(u, v int, bw int64) {
		if u == v || ov.HasLink(u, v) {
			return
		}
		if err := ov.AddLink(u, v, bw, int64(1+rng.Intn(100))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		link(i, (i+1)%n, ringBW(i))
	}
	for i := 0; i < n; i++ {
		for d := 0; d < 3; d++ {
			// No wider than the ring into j or beyond, so no width changes.
			j := rng.Intn(n)
			link(i, j, ringBW(j+rng.Intn(n-j)))
		}
	}
	row := qos.ShortestWidestCSR(qos.FreezeGraph(ov), 0, nil)
	if !row.Equal(qos.ShortestWidestRef(ov, 0)) {
		t.Fatal("dense row diverged from the oracle")
	}
	arena, classes := 0, map[int64]bool{}
	for dst, m := range row.Reached {
		arena += 8 * len(row.PathTo(dst))
		classes[m.Bandwidth] = true
	}
	if len(classes) != n {
		t.Fatalf("%d width classes over %d nodes: not the all-distinct regime", len(classes), n)
	}
	if row.Overrides() < n/4 {
		t.Fatalf("%d overrides: the chords do not cut across wider nodes' paths", row.Overrides())
	}
	if row.Bytes() > arena {
		t.Fatalf("row owns %d bytes, the legacy arena alone held %d", row.Bytes(), arena)
	}
	if bytes, _ := allocsPerRow(ov, 0); bytes > float64(arena) {
		t.Fatalf("row allocates %.0f bytes, the legacy arena alone held %d", bytes, arena)
	}
}
