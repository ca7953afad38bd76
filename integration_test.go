package sflow_test

import (
	"errors"
	"math/rand"
	"testing"

	"sflow"
)

// TestIntegrationFullStack drives the complete system end to end through the
// public API: a generated workload federated over real TCP sockets with
// link-state-built views, validated against the optimum, then repaired after
// a failure, and finally provisioned repeatedly until saturation.
func TestIntegrationFullStack(t *testing.T) {
	sc, err := sflow.GenerateScenario(sflow.ScenarioConfig{
		Seed: 1234, NetworkSize: 20, Services: 6,
		InstancesPerService: 3, Kind: sflow.KindGeneral,
	})
	if err != nil {
		t.Fatal(err)
	}

	// 1. Distributed federation over loopback TCP with link-state views.
	rec := sflow.NewTrace()
	res, err := sflow.Federate(sc.Overlay, sc.Req, sc.SourceNID, sflow.Options{
		Loopback: true, LinkState: true, Trace: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Flow.Validate(sc.Req, sc.Overlay); err != nil {
		t.Fatalf("flow invalid: %v", err)
	}
	if rec.Len() == 0 {
		t.Fatal("no trace events")
	}

	// 2. Quality sanity against the global optimum.
	opt, err := sflow.Solve("optimal", sc.Overlay, sc.Req, sc.SourceNID, sflow.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metric.Better(opt.Metric) {
		t.Fatalf("distributed %+v beats optimal %+v", res.Metric, opt.Metric)
	}
	if cc := res.Flow.CorrectnessCoefficient(opt.Flow); cc < 0.5 {
		t.Fatalf("correctness %v suspiciously low", cc)
	}

	// 3. Fail a placed instance and repair with minimal churn.
	victimSID := sc.Req.TopoOrder()[1]
	victim, _ := res.Flow.Assigned(victimSID)
	rep, err := sflow.Repair(sc.Overlay, sc.Req, res.Flow, []int{victim}, sflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Flow.Validate(sc.Req, sc.Overlay); err != nil {
		t.Fatalf("repaired flow invalid: %v", err)
	}
	if nid, _ := rep.Flow.Assigned(victimSID); nid == victim {
		t.Fatal("victim still placed on failed instance")
	}

	// 4. Provision the repaired requirement until the overlay saturates.
	p := sflow.NewProvisioner(sc.Overlay)
	admitted := 0
	for {
		_, err := p.Admit(sc.Req, sc.SourceNID, 200, sflow.RegistryAlgorithm("sflow", sflow.SolveOptions{}))
		if errors.Is(err, sflow.ErrRejected) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		admitted++
		if admitted > 1000 {
			t.Fatal("admission never saturates")
		}
	}
	if admitted == 0 {
		t.Fatal("nothing admitted")
	}
}

// TestIntegrationAlgorithmInvariants sweeps every federation algorithm over
// a matrix of scenario shapes and asserts the cross-cutting invariants:
// results validate, nothing beats the optimum, and the quality ordering
// optimal >= heuristic and optimal >= sflow holds.
func TestIntegrationAlgorithmInvariants(t *testing.T) {
	kinds := []sflow.ScenarioKind{
		sflow.KindPath, sflow.KindDisjoint, sflow.KindSplitMerge,
		sflow.KindGeneral, sflow.KindTree,
	}
	for _, kind := range kinds {
		for seed := int64(0); seed < 4; seed++ {
			sc, err := sflow.GenerateScenario(sflow.ScenarioConfig{
				Seed: seed, NetworkSize: 16, Services: 6,
				InstancesPerService: 2, Kind: kind,
			})
			if err != nil {
				t.Fatal(err)
			}
			opt, err := sflow.Solve("optimal", sc.Overlay, sc.Req, sc.SourceNID, sflow.SolveOptions{})
			if err != nil {
				t.Fatalf("%v seed %d: optimal: %v", kind, seed, err)
			}
			optMetric := opt.Metric

			res, err := sflow.Federate(sc.Overlay, sc.Req, sc.SourceNID, sflow.Options{})
			if err != nil {
				t.Fatalf("%v seed %d: sflow: %v", kind, seed, err)
			}
			check(t, kind, seed, "sflow", sc, res.Flow, res.Metric, optMetric)

			for _, alg := range []string{"heuristic", "fixed", "random"} {
				sol, err := sflow.Solve(alg, sc.Overlay, sc.Req, sc.SourceNID,
					sflow.SolveOptions{Rng: rand.New(rand.NewSource(seed))})
				if err != nil {
					t.Fatalf("%v seed %d: %s: %v", kind, seed, alg, err)
				}
				check(t, kind, seed, alg, sc, sol.Flow, sol.Metric, optMetric)
			}
		}
	}
}

func check(t *testing.T, kind sflow.ScenarioKind, seed int64, alg string,
	sc *sflow.Scenario, fg *sflow.FlowGraph, m, opt sflow.Metric) {
	t.Helper()
	if err := fg.Validate(sc.Req, sc.Overlay); err != nil {
		t.Fatalf("%v seed %d: %s flow invalid: %v", kind, seed, alg, err)
	}
	if m != fg.Quality(sc.Req) {
		t.Fatalf("%v seed %d: %s metric inconsistent", kind, seed, alg)
	}
	if m.Better(opt) {
		t.Fatalf("%v seed %d: %s %+v beats optimal %+v", kind, seed, alg, m, opt)
	}
}
