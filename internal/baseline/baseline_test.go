package baseline

import (
	"errors"
	"math/rand"
	"testing"

	"sflow/internal/abstract"
	"sflow/internal/overlay"
	"sflow/internal/qos"
	"sflow/internal/require"
	"sflow/internal/topology"
)

// trapOverlay builds a chain requirement 1->2->3 where the greedy first hop
// (widest link out of the source) leads into a narrow dead-end, so only a
// globally optimal algorithm picks the right service-2 instance.
func trapOverlay(t *testing.T) (*abstract.Graph, *require.Requirement) {
	t.Helper()
	o := overlay.New()
	for _, in := range [][2]int{{10, 1}, {20, 2}, {21, 2}, {30, 3}} {
		if err := o.AddInstance(in[0], in[1], -1); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][4]int64{
		{10, 20, 100, 1}, // tempting wide first hop...
		{20, 30, 10, 1},  // ...but narrow afterwards
		{10, 21, 50, 2},
		{21, 30, 50, 2},
	} {
		if err := o.AddLink(int(l[0]), int(l[1]), l[2], l[3]); err != nil {
			t.Fatal(err)
		}
	}
	req, err := require.NewPath(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := abstract.Build(o, req)
	if err != nil {
		t.Fatal(err)
	}
	return ag, req
}

func TestSolvePicksGlobalOptimum(t *testing.T) {
	ag, req := trapOverlay(t)
	res, err := Solve(ag, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metric != (qos.Metric{Bandwidth: 50, Latency: 4}) {
		t.Fatalf("metric = %+v, want {50 4}", res.Metric)
	}
	if nid, _ := res.Flow.Assigned(2); nid != 21 {
		t.Fatalf("service 2 assigned to %d, want 21", nid)
	}
	if err := res.Flow.Validate(req, ag.Overlay()); err != nil {
		t.Fatalf("result does not validate: %v", err)
	}
	if got := res.Flow.Quality(req); got != res.Metric {
		t.Fatalf("flow quality %+v != reported metric %+v", got, res.Metric)
	}
}

func TestSolveRespectsPins(t *testing.T) {
	ag, req := trapOverlay(t)
	res, err := Solve(ag, 10, map[int]int{2: 20})
	if err != nil {
		t.Fatal(err)
	}
	if nid, _ := res.Flow.Assigned(2); nid != 20 {
		t.Fatalf("pin ignored: service 2 on %d", nid)
	}
	if res.Metric != (qos.Metric{Bandwidth: 10, Latency: 2}) {
		t.Fatalf("pinned metric = %+v", res.Metric)
	}
	if err := res.Flow.Validate(req, ag.Overlay()); err != nil {
		t.Fatal(err)
	}
	// Pin of the wrong service type is rejected.
	if _, err := Solve(ag, 10, map[int]int{2: 30}); err == nil {
		t.Fatal("wrong-service pin accepted")
	}
}

func TestSolveErrors(t *testing.T) {
	ag, _ := trapOverlay(t)
	// Wrong source instance service.
	if _, err := Solve(ag, 20, nil); err == nil {
		t.Fatal("source of wrong service accepted")
	}
	// Non-path requirement.
	o := ag.Overlay()
	dag, err := require.FromEdges([][2]int{{1, 2}, {1, 3}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	ag2, err := abstract.Build(o, dag)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(ag2, 10, nil); !errors.Is(err, ErrNotPath) {
		t.Fatalf("err = %v, want ErrNotPath", err)
	}
}

func TestSolveInfeasible(t *testing.T) {
	o := overlay.New()
	for _, in := range [][2]int{{10, 1}, {20, 2}, {30, 3}} {
		if err := o.AddInstance(in[0], in[1], -1); err != nil {
			t.Fatal(err)
		}
	}
	// 1 -> 2 exists but 2 -> 3 does not.
	if err := o.AddLink(10, 20, 10, 1); err != nil {
		t.Fatal(err)
	}
	req, err := require.NewPath(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := abstract.Build(o, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(ag, 10, nil); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// bruteBest enumerates every instance assignment of a path requirement and
// returns the best assignment metric.
func bruteBest(ag *abstract.Graph, chain []int, src int) qos.Metric {
	best := qos.Unreachable
	assign := map[int]int{chain[0]: src}
	var walk func(i int)
	walk = func(i int) {
		if i == len(chain) {
			if m := ag.AssignmentMetric(assign); m.Reachable() && m.Better(best) {
				best = m
			}
			return
		}
		for _, nid := range ag.Slots(chain[i]) {
			assign[chain[i]] = nid
			walk(i + 1)
		}
		delete(assign, chain[i])
	}
	walk(1)
	return best
}

func TestSolveMatchesBruteForceOnRandomOverlays(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		services := 3 + rng.Intn(3) // path of 3..5 services
		instPer := 1 + rng.Intn(3)
		under, err := topology.GenerateUniform(rng, topology.Config{Nodes: 12, ExtraLinks: 14})
		if err != nil {
			t.Fatal(err)
		}
		req, err := require.GeneratePath(services)
		if err != nil {
			t.Fatal(err)
		}
		compat := overlay.NewCompatibility()
		for _, e := range req.Edges() {
			compat.Allow(e[0], e[1])
		}
		var placements []overlay.Placement
		nid := 0
		for _, sid := range req.Services() {
			n := instPer
			if sid == req.Source() {
				n = 1
			}
			for k := 0; k < n; k++ {
				placements = append(placements, overlay.Placement{NID: nid, SID: sid, Host: rng.Intn(12)})
				nid++
			}
		}
		ov, err := overlay.Build(under, placements, compat)
		if err != nil {
			t.Fatal(err)
		}
		ag, err := abstract.Build(ov, req)
		if err != nil {
			t.Fatal(err)
		}
		src := ag.Slots(req.Source())[0]
		res, err := Solve(ag, src, nil)
		want := bruteBest(ag, req.PathServices(), src)
		if err != nil {
			if errors.Is(err, ErrInfeasible) && !want.Reachable() {
				continue
			}
			t.Fatalf("trial %d: %v (brute force says %+v)", trial, err, want)
		}
		if res.Metric != want {
			t.Fatalf("trial %d: baseline %+v, brute force %+v", trial, res.Metric, want)
		}
		if err := res.Flow.Validate(req, ov); err != nil {
			t.Fatalf("trial %d: invalid flow: %v", trial, err)
		}
	}
}

func TestSolveChainBothEndsPinned(t *testing.T) {
	ag, _ := trapOverlay(t)
	// Chain 1 -> 2 -> 3 with the sink pinned: only instance choices for
	// service 2 remain.
	res, err := SolveChain(ag, []int{1, 2, 3}, 10, map[int]int{3: 30})
	if err != nil {
		t.Fatal(err)
	}
	if nid, _ := res.Flow.Assigned(2); nid != 21 {
		t.Fatalf("mid service on %d, want 21", nid)
	}
	// Chain of two with both endpoints pinned: nothing to choose, but the
	// result must still carry the concrete stream.
	res, err = SolveChain(ag, []int{1, 2}, 10, map[int]int{2: 20})
	if err != nil {
		t.Fatal(err)
	}
	e, ok := res.Flow.Edge(1, 2)
	if !ok || e.ToNID != 20 {
		t.Fatalf("edge = %+v", e)
	}
	// Too-short chains are rejected.
	if _, err := SolveChain(ag, []int{1}, 10, nil); err == nil {
		t.Fatal("1-element chain accepted")
	}
}
