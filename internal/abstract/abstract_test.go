package abstract

import (
	"reflect"
	"testing"

	"sflow/internal/metrics"
	"sflow/internal/overlay"
	"sflow/internal/qos"
	"sflow/internal/require"
)

// fixture: services 1 -> 2 -> 3; instance 10 (svc 1), 20/21 (svc 2),
// 30 (svc 3); plus a relay instance 99 of service 9 bridging 21 -> 30.
func fixture(t *testing.T) (*overlay.Overlay, *require.Requirement) {
	t.Helper()
	o := overlay.New()
	for _, in := range [][3]int{{10, 1, -1}, {20, 2, -1}, {21, 2, -1}, {30, 3, -1}, {99, 9, -1}} {
		if err := o.AddInstance(in[0], in[1], in[2]); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][4]int64{
		{10, 20, 50, 5},
		{10, 21, 100, 2},
		{20, 30, 50, 5},
		{21, 99, 100, 1}, // 21 reaches 30 only via relay 99
		{99, 30, 100, 1},
	} {
		if err := o.AddLink(int(l[0]), int(l[1]), l[2], l[3]); err != nil {
			t.Fatal(err)
		}
	}
	req, err := require.NewPath(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	return o, req
}

func TestBuildRejectsMissingService(t *testing.T) {
	o, _ := fixture(t)
	req, err := require.NewPath(1, 2, 77)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(o, req); err == nil {
		t.Fatal("requirement with uninstantiated service accepted")
	}
}

func TestSlotsAndAccessors(t *testing.T) {
	o, req := fixture(t)
	g, err := Build(o, req)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{20, 21}; !reflect.DeepEqual(g.Slots(2), want) {
		t.Fatalf("Slots(2) = %v", g.Slots(2))
	}
	if g.Requirement() != req || g.Overlay() != o {
		t.Fatal("accessors do not return originals")
	}
	if g.AllPairs() == nil {
		t.Fatal("AllPairs nil")
	}
}

func TestEdgeMetricAndBridging(t *testing.T) {
	o, req := fixture(t)
	g, err := Build(o, req)
	if err != nil {
		t.Fatal(err)
	}
	// Direct link 10 -> 20.
	if m := g.EdgeMetric(10, 20); m != (qos.Metric{Bandwidth: 50, Latency: 5}) {
		t.Fatalf("EdgeMetric(10,20) = %+v", m)
	}
	// 21 -> 30 must route via the bridging instance 99.
	if m := g.EdgeMetric(21, 30); m != (qos.Metric{Bandwidth: 100, Latency: 2}) {
		t.Fatalf("EdgeMetric(21,30) = %+v", m)
	}
	if want := []int{21, 99, 30}; !reflect.DeepEqual(g.EdgePath(21, 30), want) {
		t.Fatalf("EdgePath(21,30) = %v", g.EdgePath(21, 30))
	}
	// Self edge.
	if m := g.EdgeMetric(10, 10); m != qos.Empty {
		t.Fatalf("self metric = %+v", m)
	}
	if want := []int{10}; !reflect.DeepEqual(g.EdgePath(10, 10), want) {
		t.Fatalf("self path = %v", g.EdgePath(10, 10))
	}
	// Unreachable pair (no reverse links).
	if g.EdgeMetric(30, 10).Reachable() {
		t.Fatal("reverse direction should be unreachable")
	}
	if g.EdgePath(30, 10) != nil {
		t.Fatal("reverse path should be nil")
	}
}

func TestAssignmentMetric(t *testing.T) {
	o, req := fixture(t)
	g, err := Build(o, req)
	if err != nil {
		t.Fatal(err)
	}
	// Via 20: min(50,50)=50 bw, 10 latency.
	if m := g.AssignmentMetric(map[int]int{1: 10, 2: 20, 3: 30}); m != (qos.Metric{Bandwidth: 50, Latency: 10}) {
		t.Fatalf("via 20: %+v", m)
	}
	// Via 21: min(100,100)=100 bw, 2+2=4 latency.
	if m := g.AssignmentMetric(map[int]int{1: 10, 2: 21, 3: 30}); m != (qos.Metric{Bandwidth: 100, Latency: 4}) {
		t.Fatalf("via 21: %+v", m)
	}
	// Incomplete assignment.
	if g.AssignmentMetric(map[int]int{1: 10, 2: 21}).Reachable() {
		t.Fatal("incomplete assignment should be unreachable")
	}
	// Assignment with unreachable edge.
	if g.AssignmentMetric(map[int]int{1: 30, 2: 20, 3: 10}).Reachable() {
		t.Fatal("unroutable assignment should be unreachable")
	}
}

func TestRealize(t *testing.T) {
	o, req := fixture(t)
	g, err := Build(o, req)
	if err != nil {
		t.Fatal(err)
	}
	assign := map[int]int{1: 10, 2: 21, 3: 30}
	fg, err := g.Realize(assign)
	if err != nil {
		t.Fatal(err)
	}
	if err := fg.Validate(req, o); err != nil {
		t.Fatalf("realized flow invalid: %v", err)
	}
	if got := fg.Quality(req); got != g.AssignmentMetric(assign) {
		t.Fatalf("quality %+v != assignment metric %+v", got, g.AssignmentMetric(assign))
	}
	// The 2->3 stream must be expanded through the bridging instance.
	e, ok := fg.Edge(2, 3)
	if !ok || len(e.Path) != 3 || e.Path[1] != 99 {
		t.Fatalf("edge 2->3 = %+v", e)
	}
	if _, err := g.Realize(map[int]int{1: 10, 2: 21}); err == nil {
		t.Fatal("incomplete assignment realized")
	}
	if _, err := g.Realize(map[int]int{1: 10, 2: 99, 3: 30}); err == nil {
		t.Fatal("wrong-service assignment realized")
	}
	if _, err := g.Realize(map[int]int{1: 30, 2: 20, 3: 10}); err == nil {
		t.Fatal("unroutable assignment realized")
	}
}

func TestAssignmentMetricCriticalPath(t *testing.T) {
	// Diamond requirement 1 -> {2,3} -> 4 with asymmetric branch latency:
	// quality latency must be the max branch, not the sum of all edges.
	o := overlay.New()
	for _, in := range [][2]int{{1, 1}, {2, 2}, {3, 3}, {4, 4}} {
		if err := o.AddInstance(in[0], in[1], -1); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][4]int64{{1, 2, 10, 1}, {1, 3, 10, 5}, {2, 4, 10, 1}, {3, 4, 10, 5}} {
		if err := o.AddLink(int(l[0]), int(l[1]), l[2], l[3]); err != nil {
			t.Fatal(err)
		}
	}
	req, err := require.FromEdges([][2]int{{1, 2}, {1, 3}, {2, 4}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(o, req)
	if err != nil {
		t.Fatal(err)
	}
	m := g.AssignmentMetric(map[int]int{1: 1, 2: 2, 3: 3, 4: 4})
	if m != (qos.Metric{Bandwidth: 10, Latency: 10}) {
		t.Fatalf("diamond metric = %+v, want {10 10}", m)
	}
}

// Every Build variant — worker-pooled, instrumented, and the FromAllPairs
// wrapper over an externally computed table — must label edges identically
// to the plain sequential Build.
func TestBuildVariantsEquivalent(t *testing.T) {
	o, req := fixture(t)
	base, err := Build(o, req)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	variants := map[string]*Graph{}
	if g, err := BuildWith(o, req, qos.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	} else {
		variants["workers=1"] = g
	}
	if g, err := BuildWith(o, req, qos.Options{Workers: 4}); err != nil {
		t.Fatal(err)
	} else {
		variants["workers=4"] = g
	}
	if g, err := BuildWith(o, req, qos.Options{Metrics: reg}); err != nil {
		t.Fatal(err)
	} else {
		variants["metrics"] = g
	}
	if g, err := BuildWith(o, req, qos.Options{Workers: 2, Metrics: reg}); err != nil {
		t.Fatal(err)
	} else {
		variants["workers+metrics"] = g
	}
	if g, err := FromAllPairs(o, req, base.AllPairs()); err != nil {
		t.Fatal(err)
	} else {
		variants["from-all-pairs"] = g
	}
	for name, g := range variants {
		for _, e := range req.Edges() {
			for _, u := range g.Slots(e[0]) {
				for _, v := range g.Slots(e[1]) {
					if got, want := g.EdgeMetric(u, v), base.EdgeMetric(u, v); got != want {
						t.Fatalf("%s: edge %d->%d = %+v, want %+v", name, u, v, got, want)
					}
				}
			}
		}
	}
	var builds int64 = -1
	for _, c := range reg.Snapshot().Counters {
		if c.Key == "abstract_builds_total" {
			builds = c.Value
		}
	}
	if builds != 2 {
		t.Fatalf("instrumented builds counted %d, want 2", builds)
	}
	// FromAllPairs still validates required services against the overlay.
	badReq, err := require.NewPath(1, 2, 77)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromAllPairs(o, badReq, base.AllPairs()); err == nil {
		t.Fatal("FromAllPairs accepted a requirement with an uninstantiated service")
	}
}
