package require_test

import (
	"encoding/json"
	"runtime"
	"testing"

	"sflow/internal/require"
	"sflow/internal/scenario"
	"sflow/internal/wirejson"
)

// scenarioRequirementJSON returns the wire form of a benchmark scenario's
// requirement DAG.
func scenarioRequirementJSON(t *testing.T, size, services, instances int) []byte {
	t.Helper()
	sc, err := scenario.Generate(scenario.Config{Seed: 1, NetworkSize: size, Services: services,
		InstancesPerService: instances, Kind: scenario.KindGeneral})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(sc.Req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestReadJSONAllocations pins the decode of solve-hot's 5-service DAG: one
// pass lays the graph out (graph, its array, its list headers), and freezing
// it adds the requirement, the topological order and one array for sinks and
// junctions. Replaying the wire form through the Add methods took 36.
func TestReadJSONAllocations(t *testing.T) {
	data := scenarioRequirementJSON(t, 20, 5, 3)
	allocs := testing.AllocsPerRun(200, func() {
		rd := wirejson.NewReader(data)
		if _, err := require.ReadJSON(&rd); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 6
	t.Logf("ReadJSON %s: %.0f allocs (ceiling %d)", data, allocs, ceiling)
	if allocs > ceiling {
		t.Fatalf("ReadJSON %.0f allocs, ceiling %d", allocs, ceiling)
	}
}

// TestDecodedRequirementRetainedBytes pins the heap a decoded admit-mix
// requirement (8 services, 11 dependencies) keeps alive, which is what the
// allocator's admission log holds per admitted flow. The map-backed graph
// kept 3,192 bytes.
func TestDecodedRequirementRetainedBytes(t *testing.T) {
	data := scenarioRequirementJSON(t, 50, 8, 4)
	const n = 1000
	keep := make([]*require.Requirement, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		rd := wirejson.NewReader(data)
		r, err := require.ReadJSON(&rd)
		if err != nil {
			t.Fatal(err)
		}
		keep[i] = r
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	perReq := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	const ceiling = 1024
	t.Logf("%s: %.0f B retained per decoded requirement (ceiling %d)", data, perReq, ceiling)
	if perReq > ceiling {
		t.Fatalf("%.0f B retained per decoded requirement, ceiling %d", perReq, ceiling)
	}
}
