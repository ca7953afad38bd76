package cluster

import (
	"errors"
	"testing"

	"sflow/internal/abstract"
	"sflow/internal/exact"
	"sflow/internal/overlay"
	"sflow/internal/qos"
	"sflow/internal/require"
	"sflow/internal/scenario"
)

func testScenario(t *testing.T, seed int64) *scenario.Scenario {
	t.Helper()
	s, err := scenario.Generate(scenario.Config{
		Seed: seed, NetworkSize: 20, Services: 6,
		InstancesPerService: 3, Kind: scenario.KindGeneral,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildPartition(t *testing.T) {
	s := testScenario(t, 1)
	for _, k := range []int{1, 2, 4} {
		cl, err := Build(s.Overlay, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(cl.Medoids) != k {
			t.Fatalf("k=%d: %d medoids", k, len(cl.Medoids))
		}
		// Every instance is assigned to exactly one cluster; medoids
		// belong to their own cluster.
		if len(cl.Member) != s.Overlay.NumInstances() {
			t.Fatalf("k=%d: %d members", k, len(cl.Member))
		}
		total := 0
		for ci, members := range cl.Clusters() {
			total += len(members)
			found := false
			for _, m := range members {
				if m == cl.Medoids[ci] {
					found = true
				}
			}
			if !found {
				t.Fatalf("k=%d: medoid %d not in its own cluster %v", k, cl.Medoids[ci], members)
			}
		}
		if total != s.Overlay.NumInstances() {
			t.Fatalf("k=%d: clusters cover %d instances", k, total)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	s := testScenario(t, 2)
	a, err := Build(s.Overlay, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(s.Overlay, 3)
	if err != nil {
		t.Fatal(err)
	}
	for nid, ca := range a.Member {
		if b.Member[nid] != ca {
			t.Fatal("clustering not deterministic")
		}
	}
}

func TestBuildValidation(t *testing.T) {
	s := testScenario(t, 3)
	if _, err := Build(s.Overlay, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Build(s.Overlay, s.Overlay.NumInstances()+1); err == nil {
		t.Fatal("k > instances accepted")
	}
}

func TestFederateHierarchical(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		s := testScenario(t, seed)
		res, err := Federate(s.Overlay, s.Req, s.SourceNID, 4, qos.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.Flow.Validate(s.Req, s.Overlay); err != nil {
			t.Fatalf("seed %d: invalid flow: %v", seed, err)
		}
		// Hierarchical restriction can never beat the global optimum.
		ag, err := abstract.Build(s.Overlay, s.Req)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := exact.Solve(ag, s.SourceNID, exact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Metric.Better(opt.Metric) {
			t.Fatalf("seed %d: hierarchical %+v beats optimal %+v", seed, res.Metric, opt.Metric)
		}
		// Every chosen instance lives in the cluster chosen for its
		// service... or at least the cluster set used must cover the
		// assignment (relays aside).
		cl, err := Build(s.Overlay, 4)
		if err != nil {
			t.Fatal(err)
		}
		usedClusters := make(map[int]bool)
		for _, cid := range res.ClusterOf {
			usedClusters[cid] = true
		}
		for sid, nid := range res.Flow.Assignment() {
			if !usedClusters[cl.Member[nid]] {
				t.Fatalf("seed %d: service %d placed outside the chosen clusters", seed, sid)
			}
		}
	}
}

func TestFederateSingleClusterEqualsHeuristic(t *testing.T) {
	// With k=1 the hierarchy is a no-op: the whole overlay is one cluster.
	s := testScenario(t, 5)
	res, err := Federate(s.Overlay, s.Req, s.SourceNID, 1, qos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Flow.Validate(s.Req, s.Overlay); err != nil {
		t.Fatal(err)
	}
}

func TestFederateInfeasible(t *testing.T) {
	// Service 3 exists but only in a cluster no upstream can reach.
	o := overlay.New()
	for _, in := range [][2]int{{1, 1}, {2, 2}, {3, 3}} {
		if err := o.AddInstance(in[0], in[1], -1); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.AddLink(1, 2, 10, 1); err != nil {
		t.Fatal(err)
	}
	req, err := require.NewPath(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Federate(o, req, 1, 2, qos.Options{}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if _, err := Federate(o, req, 2, 2, qos.Options{}); err == nil {
		t.Fatal("wrong source accepted")
	}
}
