package sflow_test

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sflow"
)

// buildTravelOverlay assembles the paper's running example by hand through
// the public API: Travel Engine (1) -> Car Rental (2) / Map (3);
// 2 -> Currency (4); 3 -> 4; 4 -> Agency (5); with two instances of the
// Currency service.
func buildTravelOverlay(t *testing.T) (*sflow.Overlay, *sflow.Requirement) {
	t.Helper()
	req, err := sflow.RequirementFromEdges([][2]int{{1, 2}, {1, 3}, {2, 4}, {3, 4}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	ov := sflow.NewOverlay()
	for _, in := range [][2]int{{1, 1}, {2, 2}, {3, 3}, {40, 4}, {41, 4}, {5, 5}} {
		if err := ov.AddInstance(in[0], in[1], -1); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][4]int64{
		{1, 2, 90, 100}, {1, 3, 90, 120},
		{2, 40, 100, 50}, {3, 40, 20, 50},
		{2, 41, 70, 60}, {3, 41, 70, 40},
		{40, 5, 100, 30}, {41, 5, 80, 30},
	} {
		if err := ov.AddLink(int(l[0]), int(l[1]), l[2], l[3]); err != nil {
			t.Fatal(err)
		}
	}
	return ov, req
}

func TestPublicFederate(t *testing.T) {
	ov, req := buildTravelOverlay(t)
	res, err := sflow.Federate(ov, req, 1, sflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Flow.Validate(req, ov); err != nil {
		t.Fatalf("invalid flow: %v", err)
	}
	// Instance 41 balances both branches into the Currency merge.
	if nid, _ := res.Flow.Assigned(4); nid != 41 {
		t.Fatalf("currency on %d, want 41", nid)
	}
	opt, err := sflow.Solve("optimal", ov, req, 1, sflow.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metric.Better(opt.Metric) {
		t.Fatal("distributed result beats optimal")
	}
	if cc := res.Flow.CorrectnessCoefficient(opt.Flow); cc != 1.0 {
		t.Fatalf("correctness = %v, want 1 on this instance", cc)
	}
}

// Paths returned through the public surface are defensive copies: a caller
// scribbling over a returned route must not corrupt later queries against
// the same flow graph.
func TestPublicPathsAreDefensiveCopies(t *testing.T) {
	ov, req := buildTravelOverlay(t)
	res, err := sflow.Federate(ov, req, 1, sflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := res.Flow.Edges()
	for _, e := range before {
		for i := range e.Path {
			e.Path[i] = -1
		}
	}
	if err := res.Flow.Validate(req, ov); err != nil {
		t.Fatalf("mutating returned paths corrupted the flow graph: %v", err)
	}
	after := res.Flow.Edges()
	for i := range after {
		for _, n := range after[i].Path {
			if n < 0 {
				t.Fatalf("edge %d->%d path carries the caller's scribbles: %v",
					after[i].FromSID, after[i].ToSID, after[i].Path)
			}
		}
	}
}

func TestPublicCentralisedAlgorithms(t *testing.T) {
	ov, req := buildTravelOverlay(t)

	none := sflow.SolveOptions{}
	if _, err := sflow.Solve("baseline", ov, req, 1, none); err == nil {
		t.Fatal("baseline must reject a DAG requirement")
	}
	h, err := sflow.Solve("heuristic", ov, req, 1, none)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Flow.Validate(req, ov); err != nil {
		t.Fatal(err)
	}
	if !h.Metric.Reachable() {
		t.Fatal("heuristic metric unreachable")
	}

	if f, err := sflow.Solve("fixed", ov, req, 1, none); err != nil || !f.Metric.Reachable() {
		t.Fatalf("fixed: %v %+v", err, f)
	}
	if r, err := sflow.Solve("random", ov, req, 1, sflow.SolveOptions{Rng: rand.New(rand.NewSource(1))}); err != nil || !r.Metric.Reachable() {
		t.Fatalf("random: %v %+v", err, r)
	}
	sp, err := sflow.Solve("servicepath", ov, req, 1, none)
	if !errors.Is(err, sflow.ErrPartialFederation) {
		t.Fatalf("service path on a DAG: got err %v, want ErrPartialFederation", err)
	}
	var partial *sflow.PartialFederationError
	if !errors.As(err, &partial) || partial.Flow == nil {
		t.Fatalf("service path error should carry the partial flow, got %v", err)
	}
	if sp != nil || partial.Flow.Complete(req) {
		t.Fatal("service path should be partial on a DAG")
	}

	// Baseline works on the path sub-requirement.
	path, err := sflow.PathRequirement(1, 2, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sflow.Solve("baseline", ov, path, 1, none)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Flow.Validate(path, ov); err != nil {
		t.Fatal(err)
	}
	opt, err := sflow.Solve("optimal", ov, path, 1, none)
	if err != nil {
		t.Fatal(err)
	}
	if b.Metric != opt.Metric {
		t.Fatalf("baseline %+v != optimal %+v on a path", b.Metric, opt.Metric)
	}
}

func TestPublicScenarioAndNetwork(t *testing.T) {
	sc, err := sflow.GenerateScenario(sflow.ScenarioConfig{
		Seed: 7, NetworkSize: 20, Services: 5, Kind: sflow.KindGeneral,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sflow.Federate(sc.Overlay, sc.Req, sc.SourceNID, sflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Flow.Validate(sc.Req, sc.Overlay); err != nil {
		t.Fatal(err)
	}

	nw, err := sflow.GenerateNetwork(rand.New(rand.NewSource(1)), sflow.NetworkConfig{Nodes: 10, ExtraLinks: -1})
	if err != nil {
		t.Fatal(err)
	}
	compat := sflow.NewCompatibility()
	compat.Allow(1, 2)
	ov, err := sflow.BuildOverlay(nw, []sflow.Placement{
		{NID: 0, SID: 1, Host: 0}, {NID: 1, SID: 2, Host: 9},
	}, compat)
	if err != nil {
		t.Fatal(err)
	}
	if !ov.HasLink(0, 1) {
		t.Fatal("derived overlay missing link")
	}
}

func TestPublicDOT(t *testing.T) {
	ov, req := buildTravelOverlay(t)
	res, err := sflow.Federate(ov, req, 1, sflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sflow.RequirementDOT(req), "digraph requirement") {
		t.Fatal("requirement DOT wrong")
	}
	if !strings.Contains(sflow.OverlayDOT(ov), "digraph overlay") {
		t.Fatal("overlay DOT wrong")
	}
	if !strings.Contains(sflow.FlowDOT(ov, res.Flow), "digraph flowgraph") {
		t.Fatal("flow DOT wrong")
	}
}

func TestPublicExperimentsSmoke(t *testing.T) {
	cfg := sflow.ExperimentConfig{Sizes: []int{10}, Trials: 2, Seed: 2, Services: 5, Instances: 2}
	s, err := sflow.Fig10a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 1 {
		t.Fatalf("points = %d", len(s.Points))
	}
	if _, err := sflow.ParseScenarioKind("general"); err != nil {
		t.Fatal(err)
	}
}

func TestPublicConstructionHelpers(t *testing.T) {
	req := sflow.NewRequirement()
	req.AddDependency(1, 2)
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	nw := sflow.NewNetwork(3)
	if err := nw.AddLink(0, 1, 10, 1); err != nil {
		t.Fatal(err)
	}
	if nw.Size() != 3 {
		t.Fatalf("Size = %d", nw.Size())
	}
}

func TestPublicEvaluateAssignment(t *testing.T) {
	ov, req := buildTravelOverlay(t)
	res, err := sflow.Federate(ov, req, 1, sflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sflow.EvaluateAssignment(ov, req, res.Flow.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	// The evaluation scores the same assignment at least as well as the
	// committed streams (it may find better routes per stream).
	if m.Bandwidth < res.Metric.Bandwidth {
		t.Fatalf("evaluation %+v below federation %+v", m, res.Metric)
	}
	if _, err := sflow.EvaluateAssignment(ov, req, map[int]int{1: 1}); err != nil {
		// Incomplete assignments yield an unreachable metric, not an error.
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestPublicChoice(t *testing.T) {
	ov, _ := buildTravelOverlay(t)
	spec := sflow.NewChoiceSpec()
	for _, term := range [][]int{{1, 1}, {2, 2}, {5, 5}} {
		if err := spec.AddTerm(term[0], term[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := spec.AddTerm(40, 4, 3); err != nil { // Currency or Map slot
		t.Fatal(err)
	}
	for _, e := range [][2]int{{1, 2}, {2, 40}, {40, 5}} {
		if err := spec.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sflow.BestChoice(ov, spec, 1, func(o *sflow.Overlay, r *sflow.Requirement, s int) (*sflow.FlowGraph, sflow.Metric, error) {
		sol, err := sflow.Solve("optimal", o, r, s, sflow.SolveOptions{})
		if err != nil {
			return nil, sflow.Unreachable, err
		}
		return sol.Flow, sol.Metric, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Considered != 2 {
		t.Fatalf("considered %d expansions", res.Considered)
	}
	if err := res.Flow.Validate(res.Req, ov); err != nil {
		t.Fatal(err)
	}
}

func TestPublicProvisionAlgorithms(t *testing.T) {
	sc, err := sflow.GenerateScenario(sflow.ScenarioConfig{
		Seed: 2, NetworkSize: 12, Services: 4, InstancesPerService: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, alg := range map[string]sflow.FederationAlgorithm{
		"fixed":  sflow.RegistryAlgorithm("fixed", sflow.SolveOptions{}),
		"random": sflow.RegistryAlgorithm("random", sflow.SolveOptions{Rng: rand.New(rand.NewSource(3))}),
	} {
		p := sflow.NewProvisioner(sc.Overlay)
		if _, err := p.Admit(sc.Req, sc.SourceNID, 50, alg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.NumAdmitted() != 1 {
			t.Fatalf("%s: admitted %d", name, p.NumAdmitted())
		}
	}
}

func TestPublicAbstractDOT(t *testing.T) {
	ov, req := buildTravelOverlay(t)
	d, err := sflow.AbstractDOT(ov, req)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(d, "digraph abstract") {
		t.Fatalf("dot = %q", d[:40])
	}
	bad, err := sflow.PathRequirement(1, 77)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sflow.AbstractDOT(ov, bad); err == nil {
		t.Fatal("uninstantiated service accepted")
	}
}

func TestPublicHierarchical(t *testing.T) {
	sc, err := sflow.GenerateScenario(sflow.ScenarioConfig{
		Seed: 6, NetworkSize: 16, Services: 5, InstancesPerService: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	fg, m, err := sflow.Hierarchical(sc.Overlay, sc.Req, sc.SourceNID, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := fg.Validate(sc.Req, sc.Overlay); err != nil {
		t.Fatal(err)
	}
	opt, err := sflow.Solve("optimal", sc.Overlay, sc.Req, sc.SourceNID, sflow.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Better(opt.Metric) {
		t.Fatalf("hierarchical %+v beats optimal %+v", m, opt.Metric)
	}
	// Solve's "hierarchical" entry is the same federation.
	sol, err := sflow.Solve("hierarchical", sc.Overlay, sc.Req, sc.SourceNID, sflow.SolveOptions{ClusterK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Metric != m || !reflect.DeepEqual(sol.Flow.Assignment(), fg.Assignment()) {
		t.Fatalf("Solve(hierarchical) = %v %+v, Hierarchical = %v %+v", sol.Flow, sol.Metric, fg, m)
	}
	if _, _, err := sflow.Hierarchical(sc.Overlay, sc.Req, sc.SourceNID, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestPublicAugmentation(t *testing.T) {
	sc, err := sflow.GenerateScenario(sflow.ScenarioConfig{
		Seed: 8, NetworkSize: 14, Services: 5, InstancesPerService: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	compat := sflow.NewCompatibility()
	for _, e := range sc.Req.Edges() {
		compat.Allow(e[0], e[1])
	}
	thin, err := sflow.SparsifyOverlay(sc.Overlay, rand.New(rand.NewSource(1)), 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if thin.NumLinks() >= sc.Overlay.NumLinks() {
		t.Fatal("sparsify did nothing")
	}
	before := thin.NumLinks()
	if _, err := sflow.AugmentShortcuts(thin, compat, 3); err != nil {
		t.Fatal(err)
	}
	if thin.NumLinks() > before+3 {
		t.Fatal("budget exceeded")
	}
	if _, err := sflow.DensifyOverlay(thin, compat); err != nil {
		t.Fatal(err)
	}
	// Densified to fixpoint: no further candidates.
	n, err := sflow.AugmentShortcuts(thin, compat, 0)
	if err != nil || n != 0 {
		t.Fatalf("fixpoint violated: added %d (%v)", n, err)
	}
}

func TestPublicRenderSVG(t *testing.T) {
	s, err := sflow.Fig10a(sflow.ExperimentConfig{Sizes: []int{10}, Trials: 1, Seed: 4, Services: 4, Instances: 2})
	if err != nil {
		t.Fatal(err)
	}
	svg := sflow.RenderSVG(s)
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "sflow") {
		t.Fatalf("svg = %q", svg[:40])
	}
}

func TestPublicErrorPaths(t *testing.T) {
	// A requirement naming a service with no instance: every centralised
	// algorithm must reject it at the abstract-graph stage.
	ov, _ := buildTravelOverlay(t)
	ghost, err := sflow.PathRequirement(1, 2, 777)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"heuristic", "fixed", "random", "servicepath"} {
		if _, err := sflow.Solve(name, ov, ghost, 1, sflow.SolveOptions{Rng: rand.New(rand.NewSource(1))}); err == nil {
			t.Fatalf("%s accepted ghost service", name)
		}
	}
	if _, err := sflow.EvaluateAssignment(ov, ghost, map[int]int{}); err == nil {
		t.Fatal("evaluate accepted ghost service")
	}
}

func TestPublicServiceRegistry(t *testing.T) {
	reg := sflow.NewServiceRegistry()
	for _, d := range []sflow.ServiceDescription{
		{SID: 1, Name: "src", Outputs: []sflow.ServiceType{"x"}},
		{SID: 2, Name: "mid", Inputs: []sflow.ServiceType{"x"}, Outputs: []sflow.ServiceType{"y"}},
		{SID: 3, Name: "dst", Inputs: []sflow.ServiceType{"y"}},
	} {
		if err := reg.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	compat := reg.Compatibility()
	if !compat.Compatible(1, 2) || !compat.Compatible(2, 3) || compat.Compatible(1, 3) {
		t.Fatal("derived compatibility wrong")
	}
	if err := reg.Validate([][2]int{{1, 3}}); err == nil {
		t.Fatal("type mismatch accepted")
	}
}

func TestPublicWorkload(t *testing.T) {
	sc, err := sflow.GenerateScenario(sflow.ScenarioConfig{
		Seed: 12, NetworkSize: 15, Services: 5, InstancesPerService: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := sflow.GenerateWorkload(sc.Req, sc.SourceNID, sflow.WorkloadConfig{
		Seed: 1, Count: 25, MeanInterarrival: 20_000, MeanHolding: 60_000,
		DemandMin: 50, DemandMax: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sflow.SimulateWorkload(sc.Overlay, reqs, sflow.RegistryAlgorithm("sflow", sflow.SolveOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted+res.Blocked != res.Offered || res.Offered != 25 {
		t.Fatalf("accounting wrong: %+v", res)
	}
	if p := res.BlockingProbability(); p < 0 || p > 1 {
		t.Fatalf("blocking probability %v", p)
	}
}
