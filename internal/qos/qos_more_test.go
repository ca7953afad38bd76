package qos

import (
	"reflect"
	"testing"
)

func TestShortestWidestDeterministicTies(t *testing.T) {
	// Two fully symmetric routes: repeated runs must pick the same one.
	g := newTestGraph()
	g.addArc(1, 2, 50, 5)
	g.addArc(2, 4, 50, 5)
	g.addArc(1, 3, 50, 5)
	g.addArc(3, 4, 50, 5)
	first := shortestWidestRef(g, 1).PathTo(4)
	for i := 0; i < 10; i++ {
		if got := shortestWidestRef(g, 1).PathTo(4); !reflect.DeepEqual(got, first) {
			t.Fatalf("tie-breaking not deterministic: %v vs %v", got, first)
		}
	}
}

func TestShortestLatencySelfAndUnreachable(t *testing.T) {
	g := newTestGraph()
	g.addArc(1, 2, 10, 5)
	g.addNode(3)
	res := shortestLatencyRef(g, 1)
	if m := res.Metric(1); m != Empty {
		t.Fatalf("self metric = %+v", m)
	}
	if res.Metric(3).Reachable() {
		t.Fatal("unreachable node has a metric")
	}
	if res.PathTo(3) != nil {
		t.Fatal("unreachable node has a path")
	}
}

func TestShortestWidestParallelArcs(t *testing.T) {
	// Two parallel arcs between the same endpoints: the wider must win for
	// shortest-widest, the faster for shortest-latency.
	g := newTestGraph()
	g.addArc(1, 2, 100, 50)
	g.addArc(1, 2, 10, 1)
	sw := shortestWidestRef(g, 1)
	if m := sw.Metric(2); m.Bandwidth != 100 {
		t.Fatalf("shortest-widest picked %+v", m)
	}
	sl := shortestLatencyRef(g, 1)
	if m := sl.Metric(2); m.Latency != 1 || m.Bandwidth != 10 {
		t.Fatalf("shortest-latency picked %+v", m)
	}
}

func TestAllPairsEmptyGraph(t *testing.T) {
	g := newTestGraph()
	ap := ComputeAllPairs(g)
	if len(ap.Sources()) != 0 {
		t.Fatal("empty graph has sources")
	}
	if ap.Metric(1, 2).Reachable() {
		t.Fatal("phantom metric")
	}
}

func TestMetricConcatAssociative(t *testing.T) {
	a := Metric{Bandwidth: 70, Latency: 3}
	b := Metric{Bandwidth: 40, Latency: 5}
	c := Metric{Bandwidth: 90, Latency: 2}
	left := a.Concat(b).Concat(c)
	right := a.Concat(b.Concat(c))
	if left != right {
		t.Fatalf("concat not associative: %+v vs %+v", left, right)
	}
	if left != (Metric{Bandwidth: 40, Latency: 10}) {
		t.Fatalf("concat = %+v", left)
	}
}
