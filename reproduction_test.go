package sflow_test

import (
	"testing"

	"sflow"
)

// TestReproductionHeadlineClaims guards the paper's qualitative results as
// assertions over a fixed seeded sweep, so any future change that breaks a
// reproduced shape fails CI rather than silently drifting. The bounds are
// deliberately looser than the measured values in EXPERIMENTS.md.
func TestReproductionHeadlineClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-figure sweep")
	}
	cfg := sflow.ExperimentConfig{Sizes: []int{10, 30, 50}, Trials: 10, Seed: 1}

	// Fig 10(a): sFlow has the highest correctness, around 0.9; random
	// trends to coin-flip territory.
	a, err := sflow.Fig10a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range a.Points {
		if p.Values["sflow"] < 0.8 {
			t.Errorf("fig10a N=%d: sflow correctness %.3f below 0.8", p.X, p.Values["sflow"])
		}
		for _, rival := range []string{"fixed", "random", "servicepath"} {
			if p.Values["sflow"] < p.Values[rival] {
				t.Errorf("fig10a N=%d: sflow %.3f below %s %.3f",
					p.X, p.Values["sflow"], rival, p.Values[rival])
			}
		}
		if p.Values["random"] > 0.75 {
			t.Errorf("fig10a N=%d: random correctness %.3f implausibly high", p.X, p.Values["random"])
		}
	}

	// Fig 10(c): sFlow yields the lowest-latency flow graphs.
	c, err := sflow.Fig10c(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Points {
		if p.Values["sflow"] > p.Values["fixed"] || p.Values["sflow"] > p.Values["random"] {
			t.Errorf("fig10c N=%d: sflow latency %.0f not lowest (fixed %.0f, random %.0f)",
				p.X, p.Values["sflow"], p.Values["fixed"], p.Values["random"])
		}
	}

	// Fig 10(d): optimal >= sflow >= fixed >= random in bandwidth, and
	// sFlow tracks the optimal closely.
	d, err := sflow.Fig10d(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Points {
		opt, sf, fx, rd := p.Values["optimal"], p.Values["sflow"], p.Values["fixed"], p.Values["random"]
		if !(opt >= sf && sf >= fx && fx >= rd) {
			t.Errorf("fig10d N=%d: ordering violated: opt %.0f sflow %.0f fixed %.0f random %.0f",
				p.X, opt, sf, fx, rd)
		}
		if sf < 0.9*opt {
			t.Errorf("fig10d N=%d: sflow %.0f below 90%% of optimal %.0f", p.X, sf, opt)
		}
	}

	// Fig 10(b): both computation curves grow with network size, and they
	// stay within an order of magnitude of each other. Asserted on the work
	// behind the two times, not on the times: Fig10b's columns are wall-clock
	// and move with the machine and with what one routing row costs, which is
	// for the bench gates to watch.
	var firstWork, lastWork fig10bWork
	for i, size := range cfg.Sizes {
		w := measureFig10bWork(t, size, cfg.Trials)
		if i == 0 {
			firstWork = w
		}
		lastWork = w
		for _, unit := range []struct {
			name           string
			sflow, optimal int64
		}{
			{"relaxations", w.sflowRelaxations, w.optimalRelaxations},
			{"kernel runs", w.sflowRuns, w.optimalRuns},
		} {
			ratio := float64(unit.sflow) / float64(unit.optimal)
			if ratio < 0.1 || ratio > 10 {
				t.Errorf("fig10b N=%d: sflow/optimal %s ratio %.2f out of the paper's comparable range", size, unit.name, ratio)
			}
		}
	}
	if lastWork.sflowRelaxations <= firstWork.sflowRelaxations || lastWork.sflowRuns <= firstWork.sflowRuns {
		t.Errorf("fig10b: sflow work does not grow (%+v -> %+v)", firstWork, lastWork)
	}
	if lastWork.optimalRelaxations <= firstWork.optimalRelaxations || lastWork.optimalRuns <= firstWork.optimalRuns {
		t.Errorf("fig10b: optimal work does not grow (%+v -> %+v)", firstWork, lastWork)
	}
}

// fig10bWork is the routing work of Fig 10(b)'s two sides summed over the
// trials of one network size, in the deterministic counters the kernels
// publish: Dijkstra arc relaxations and shortest-widest kernel runs.
type fig10bWork struct {
	sflowRelaxations, sflowRuns     int64
	optimalRelaxations, optimalRuns int64
}

// measureFig10bWork federates Fig 10(b)'s scenarios (path requirements, the
// sweep's services and instance scaling) both ways, each into a registry of
// its own: the distributed algorithm's work is every node's local-view
// routing, the optimal's is the all-pairs table behind its one solve.
func measureFig10bWork(t *testing.T, size, trials int) fig10bWork {
	t.Helper()
	var w fig10bWork
	for trial := 0; trial < trials; trial++ {
		sc, err := sflow.GenerateScenario(sflow.ScenarioConfig{
			Seed:                int64(1000*size + trial),
			NetworkSize:         size,
			Services:            6,
			InstancesPerService: max(2, size/10),
			Kind:                sflow.KindPath,
		})
		if err != nil {
			t.Fatal(err)
		}
		distributed, central := sflow.NewMetrics(), sflow.NewMetrics()
		if _, err := sflow.Federate(sc.Overlay, sc.Req, sc.SourceNID, sflow.Options{Metrics: distributed}); err != nil {
			t.Fatal(err)
		}
		if _, err := sflow.Solve("baseline", sc.Overlay, sc.Req, sc.SourceNID, sflow.SolveOptions{Workers: 1, Metrics: central}); err != nil {
			t.Fatal(err)
		}
		w.sflowRelaxations += distributed.Counter("qos_relaxations_total").Value()
		w.sflowRuns += distributed.Counter("qos_shortest_widest_runs_total").Value()
		w.optimalRelaxations += central.Counter("qos_relaxations_total").Value()
		w.optimalRuns += central.Counter("qos_shortest_widest_runs_total").Value()
	}
	return w
}
