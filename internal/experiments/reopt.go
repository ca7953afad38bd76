package experiments

import (
	"fmt"

	"sflow/internal/abstract"
	"sflow/internal/flow"
	"sflow/internal/overlay"
	"sflow/internal/provision"
	"sflow/internal/qos"
	"sflow/internal/reduce"
	"sflow/internal/reopt"
	"sflow/internal/require"
)

// reoptPaths is the ReoptSweep x-axis: how many thin parallel paths flank the
// fat path traffic concentrates on.
var reoptPaths = []int{2, 3, 4, 5, 6}

// reoptTopology builds the concentrate scenario: one fat two-hop path through
// hub 1 (bandwidth 1000) that the widest-first heuristic pins every admission
// to, plus `paths` thin parallel two-hop paths (bandwidth 130) the
// reoptimizer can migrate tenants onto.
func reoptTopology(paths int) (*overlay.Overlay, *require.Requirement, error) {
	ov := overlay.New()
	sink := paths + 2
	if err := ov.AddInstance(0, 0, -1); err != nil {
		return nil, nil, err
	}
	if err := ov.AddInstance(1, 1, -1); err != nil {
		return nil, nil, err
	}
	for i := 0; i < paths; i++ {
		if err := ov.AddInstance(2+i, 1, -1); err != nil {
			return nil, nil, err
		}
	}
	if err := ov.AddInstance(sink, 2, -1); err != nil {
		return nil, nil, err
	}
	if err := ov.AddLink(0, 1, 1000, 10); err != nil {
		return nil, nil, err
	}
	if err := ov.AddLink(1, sink, 1000, 10); err != nil {
		return nil, nil, err
	}
	for i := 0; i < paths; i++ {
		if err := ov.AddLink(0, 2+i, 130, 20); err != nil {
			return nil, nil, err
		}
		if err := ov.AddLink(2+i, sink, 130, 20); err != nil {
			return nil, nil, err
		}
	}
	req, err := require.NewPath(0, 1, 2)
	if err != nil {
		return nil, nil, err
	}
	return ov, req, nil
}

// reoptHeuristic is the widest-then-shortest admission algorithm the sweep
// federates with — it concentrates on the fat path until it thins out.
func reoptHeuristic(ov *overlay.Overlay, req *require.Requirement, src int) (*flow.Graph, qos.Metric, error) {
	ag, err := abstract.Build(ov, req)
	if err != nil {
		return nil, qos.Unreachable, err
	}
	r, err := reduce.Solve(ag, src, nil)
	if err != nil {
		return nil, qos.Unreachable, err
	}
	return r.Flow, r.Metric, nil
}

// Reopt is the congestion-driven re-optimization experiment (`-fig reopt`):
// the concentrate→detect→migrate→no-new-hotspot scenario. Per cell, small
// tenants then seven large ones all federate onto the fat path (the widest
// path — admission is greedy), driving it beyond the 85% hot threshold. The
// planner then detects the sustained hotspot and live-migrates the cheapest
// tenants onto the parallel paths under the no-regression gate.
//
// Columns:
//
//   - premax: maximum link utilization after admission, before any migration
//   - postmax: maximum link utilization once the planner quiesces (the gate
//     guarantees postmax <= premax)
//   - migrations: committed live migrations off the hot link
//   - newhot: links at/above the hot threshold afterwards that were below it
//     before — the scenario-4 trap; always 0
//
// Every cell is deterministic (seeded demands, deterministic solver and
// planner), so the series is byte-identical at any -workers count.
func Reopt(cfg Config) (*Series, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	const hotThreshold = 0.85
	cols := []string{"premax", "postmax", "migrations", "newhot"}
	points, err := runOver(cfg, reoptPaths, cols, func(paths, trial int) (map[string]float64, error) {
		ov, req, err := reoptTopology(paths)
		if err != nil {
			return nil, err
		}
		ledger := reopt.NewLedger(ov, cfg.Metrics)
		alloc := provision.NewAllocator(ov, provision.AllocatorOptions{Observer: ledger})
		defer alloc.Close()

		for i := 0; i < paths; i++ {
			if _, err := alloc.Admit(provision.AdmitRequest{
				Req: req, Src: 0, Demand: int64(16 + (i+trial)%8),
				Tag: fmt.Sprintf("small%d", i), Alg: reoptHeuristic,
			}); err != nil {
				return nil, fmt.Errorf("small %d: %w", i, err)
			}
		}
		for i := 0; i < 7; i++ {
			if _, err := alloc.Admit(provision.AdmitRequest{
				Req: req, Src: 0, Demand: 120,
				Tag: fmt.Sprintf("big%d", i), Alg: reoptHeuristic,
			}); err != nil {
				return nil, fmt.Errorf("big %d: %w", i, err)
			}
		}

		preLinks := ledger.Links()
		preMax := 0.0
		preHot := map[reopt.Link]bool{}
		for _, ll := range preLinks {
			u := ll.Utilization()
			if u > preMax {
				preMax = u
			}
			if u >= hotThreshold {
				preHot[reopt.Link{ll.From, ll.To}] = true
			}
		}
		if preMax < hotThreshold {
			return nil, fmt.Errorf("scenario did not concentrate: premax %.3f", preMax)
		}

		p := reopt.NewPlanner(alloc, ledger, ov, reopt.PlannerConfig{
			Detector: reopt.DetectorConfig{HotThreshold: hotThreshold, Sustain: 2},
			Routing:  qos.Options{Workers: 1, Metrics: cfg.Metrics},
		})
		migrations := 0
		for step := 0; step < 10; step++ {
			rep := p.Step()
			if rep.PostMax > rep.PreMax+1e-9 {
				return nil, fmt.Errorf("step %d regressed: pre %.4f post %.4f", step, rep.PreMax, rep.PostMax)
			}
			migrations += rep.Migrations
			if step >= 1 && rep.Migrations == 0 {
				break
			}
		}

		postMax, newHot := 0.0, 0
		for _, ll := range ledger.Links() {
			u := ll.Utilization()
			if u > postMax {
				postMax = u
			}
			if u >= hotThreshold && !preHot[reopt.Link{ll.From, ll.To}] {
				newHot++
			}
		}
		return map[string]float64{
			"premax":     preMax,
			"postmax":    postMax,
			"migrations": float64(migrations),
			"newhot":     float64(newHot),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Series{
		ID:      "reopt",
		Title:   "Congestion-driven re-optimization (hotspot relief via gated live migration vs parallel paths)",
		XLabel:  "ParallelPaths",
		YLabel:  "utilization / count",
		Columns: cols,
		Points:  points,
	}, nil
}
