package sflow_test

import (
	"fmt"

	"sflow"
)

// diamond builds the documentation overlay used by several examples.
func diamond() (*sflow.Overlay, *sflow.Requirement) {
	ov := sflow.NewOverlay()
	for _, in := range [][2]int{{10, 1}, {20, 2}, {30, 3}, {40, 4}, {41, 4}} {
		if err := ov.AddInstance(in[0], in[1], -1); err != nil {
			panic(err)
		}
	}
	for _, l := range [][4]int64{
		{10, 20, 100, 10}, {10, 30, 100, 10},
		{20, 40, 100, 10}, {30, 40, 10, 10},
		{20, 41, 80, 10}, {30, 41, 80, 10},
	} {
		if err := ov.AddLink(int(l[0]), int(l[1]), l[2], l[3]); err != nil {
			panic(err)
		}
	}
	req, err := sflow.RequirementFromEdges([][2]int{{1, 2}, {1, 3}, {2, 4}, {3, 4}})
	if err != nil {
		panic(err)
	}
	return ov, req
}

// ExampleRepair fails the federated merge instance and repairs with minimal
// churn: only the victim service moves.
func ExampleRepair() {
	ov, req := diamond()
	res, err := sflow.Federate(ov, req, 10, sflow.Options{})
	if err != nil {
		panic(err)
	}
	victim, _ := res.Flow.Assigned(4)
	rep, err := sflow.Repair(ov, req, res.Flow, []int{victim}, sflow.Options{})
	if err != nil {
		panic(err)
	}
	after, _ := rep.Flow.Assigned(4)
	fmt.Println(victim, "->", after, "moved:", rep.Moved)
	// Output:
	// 41 -> 40 moved: [4]
}

// ExampleHierarchical runs the cluster-based divide-and-conquer federation.
func ExampleHierarchical() {
	ov, req := diamond()
	fg, m, err := sflow.Hierarchical(ov, req, 10, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println(fg.Complete(req), m.Reachable())
	// Output:
	// true true
}

// ExampleBestChoice resolves an optional-services slot (Fig 2) to the
// better-performing alternative.
func ExampleBestChoice() {
	ov := sflow.NewOverlay()
	for _, in := range [][2]int{{1, 1}, {2, 2}, {3, 3}, {9, 9}} {
		if err := ov.AddInstance(in[0], in[1], -1); err != nil {
			panic(err)
		}
	}
	// Alternative 2 is wide, alternative 3 narrow.
	for _, l := range [][4]int64{{1, 2, 90, 1}, {2, 9, 90, 1}, {1, 3, 20, 1}, {3, 9, 20, 1}} {
		if err := ov.AddLink(int(l[0]), int(l[1]), l[2], l[3]); err != nil {
			panic(err)
		}
	}
	spec := sflow.NewChoiceSpec()
	for _, step := range []error{
		spec.AddTerm(1, 1),
		spec.AddTerm(50, 2, 3), // either service 2 or service 3
		spec.AddTerm(9, 9),
		spec.Connect(1, 50),
		spec.Connect(50, 9),
	} {
		if step != nil {
			panic(step)
		}
	}
	res, err := sflow.BestChoice(ov, spec, 1,
		func(o *sflow.Overlay, r *sflow.Requirement, s int) (*sflow.FlowGraph, sflow.Metric, error) {
			sol, err := sflow.Solve("optimal", o, r, s, sflow.SolveOptions{})
			if err != nil {
				return nil, sflow.Unreachable, err
			}
			return sol.Flow, sol.Metric, nil
		})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Req.Has(2), res.Req.Has(3), res.Metric.Bandwidth)
	// Output:
	// true false 90
}

// ExampleSimulateWorkload replays a mixed Poisson request stream over a
// provisioned overlay.
func ExampleSimulateWorkload() {
	sc, err := sflow.GenerateScenario(sflow.ScenarioConfig{
		Seed: 12, NetworkSize: 15, Services: 5, InstancesPerService: 2,
	})
	if err != nil {
		panic(err)
	}
	reqs, err := sflow.GenerateWorkload(sc.Req, sc.SourceNID, sflow.WorkloadConfig{
		Seed: 1, Count: 20, MeanInterarrival: 50_000, MeanHolding: 20_000,
		DemandMin: 10, DemandMax: 50,
	})
	if err != nil {
		panic(err)
	}
	res, err := sflow.SimulateWorkload(sc.Overlay, reqs, sflow.RegistryAlgorithm("heuristic", sflow.SolveOptions{}))
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Offered, res.Admitted+res.Blocked == res.Offered)
	// Output:
	// 20 true
}

// ExampleNewServiceRegistry derives compatibility from typed interfaces.
func ExampleNewServiceRegistry() {
	reg := sflow.NewServiceRegistry()
	for _, d := range []sflow.ServiceDescription{
		{SID: 1, Name: "camera", Outputs: []sflow.ServiceType{"video/raw"}},
		{SID: 2, Name: "transcoder", Inputs: []sflow.ServiceType{"video/raw"}, Outputs: []sflow.ServiceType{"video/h264"}},
		{SID: 3, Name: "viewer", Inputs: []sflow.ServiceType{"video/h264"}},
	} {
		if err := reg.Register(d); err != nil {
			panic(err)
		}
	}
	compat := reg.Compatibility()
	fmt.Println(compat.Compatible(1, 2), compat.Compatible(2, 3), compat.Compatible(1, 3))
	// Output:
	// true true false
}

// ExampleTraceRecorder_Mermaid renders a federation timeline as a sequence
// diagram.
func ExampleTraceRecorder_Mermaid() {
	ov, req := diamond()
	rec := sflow.NewTrace()
	if _, err := sflow.Federate(ov, req, 10, sflow.Options{Trace: rec}); err != nil {
		panic(err)
	}
	out := rec.Mermaid()
	fmt.Println(len(out) > 0 && out[:15] == "sequenceDiagram")
	// Output:
	// true
}
