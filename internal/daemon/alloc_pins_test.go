package daemon

import (
	"testing"

	"sflow/internal/require"
)

// TestHandleAllocationCeilings pins what Server.Handle allocates for the two
// solves of the benchmark's static workloads over the seed-1 scenario: the
// smallest legal request (a 2-service path, fixed placement, as wire-min
// sends) and the scenario's DAG (heuristic, as solve-hot sends most). The
// requirements are frozen, so every structural query the solvers ask reads
// a cached view. With a map-backed requirement graph they took 61 and 164.
func TestHandleAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	sc := testScenario(t, 1)
	srv := New(sc.Overlay, Options{Routing: Routing{Workers: 1}})
	defer srv.Close()
	src := sc.Req.Source()
	path, err := require.NewPath(src, sc.Req.Downstream(src)[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		req     *Request
		ceiling float64
	}{
		{"wire-min", &Request{Op: OpSolve, Algorithm: "fixed", Requirement: path, Source: sc.SourceNID}, 37},
		{"solve-hot", &Request{Op: OpSolve, Algorithm: "heuristic", Requirement: sc.Req, Source: sc.SourceNID}, 112},
	} {
		out, err := srv.Handle(tc.req)
		if err != nil || out.(*Response).Err != "" {
			t.Fatalf("%s: %v %+v", tc.name, err, out)
		}
		allocs := testing.AllocsPerRun(200, func() { _, _ = srv.Handle(tc.req) })
		t.Logf("%s: Handle %.0f allocs (ceiling %.0f)", tc.name, allocs, tc.ceiling)
		if allocs > tc.ceiling {
			t.Errorf("%s: Handle %.0f allocs, ceiling %.0f", tc.name, allocs, tc.ceiling)
		}
	}
}
