package experiments

import (
	"reflect"
	"time"

	"sflow/internal/abstract"
	"sflow/internal/cluster"
	"sflow/internal/metrics"
	"sflow/internal/qos"
	"sflow/internal/reduce"
	"sflow/internal/scenario"
)

// scaleOracleCutoff is the largest overlay the scale experiment verifies
// against a full eager rebuild: above it the N-source eager computation is
// exactly the cost the lazy path exists to avoid, so the oracle would
// dominate the sweep. Larger sizes fall back to a one-row spot check (see
// Scale) and the lazy-vs-eager battery in the test suite pins equivalence on
// oracle-sized topologies.
const scaleOracleCutoff = 2000

// scaleSizes is the default large-overlay sweep: the regime where the full
// N² table stops being affordable. Deliberately past the evaluation sweep's
// 10..50 but bounded so `-fig scale` finishes interactively; pass -sizes for
// the 50k/100k end.
var scaleSizes = []int{500, 2000, 10000}

// Scale (experiment A15) measures demand-driven federation on large
// generated overlays: per overlay size, a path requirement is solved with
// the reduction heuristic over a lazy table, and — for comparison on the
// hierarchy fast path — with the contracted cluster algorithm. The series
// reports only deterministic columns, byte-identical at any Config.Workers:
//
//   - solved: fraction of trials where the lazy solve produced a flow.
//   - rows_frac: shortest-widest rows the lazy table actually computed, as a
//     fraction of the overlay's nodes — the work an eager build would have
//     done that the lazy path skipped is 1 - rows_frac (≈ 0.999 at 10k).
//   - match: at sizes <= 2000, fraction of trials where the lazy solution
//     (flow graph and metric) equals a from-scratch eager solve exactly;
//     above the cutoff, where the eager oracle is unaffordable, fraction
//     where the source slot's lazy row equals a freshly frozen-and-computed
//     row byte for byte (a memoization spot check, not a full oracle).
//   - contracted_solved: fraction of trials where the contracted hierarchical
//     path (BFS clusters + cluster-digraph routing) produced a flow.
//
// Wall-clock goes to volatile histograms on Config.Metrics
// (exp_scale_lazy_us and exp_scale_contracted_us, per-solve microseconds).
func Scale(cfg Config) (*Series, error) {
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = scaleSizes
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cols := []string{"solved", "rows_frac", "match", "contracted_solved"}
	lazyUS := cfg.Metrics.Histogram("exp_scale_lazy_us",
		metrics.ExponentialBounds(100, 10, 7), metrics.Volatile())
	contractedUS := cfg.Metrics.Histogram("exp_scale_contracted_us",
		metrics.ExponentialBounds(100, 10, 7), metrics.Volatile())
	points, err := run(cfg, cols, func(size, trial int) (map[string]float64, error) {
		s, err := scenario.GenerateLarge(scenario.LargeConfig{
			Seed:     trialSeed(cfg.Seed, size, trial),
			Nodes:    size,
			Services: cfg.Services,
		})
		if err != nil {
			return nil, err
		}
		vals := map[string]float64{}

		// Lazy demand-driven solve. Per-cell parallelism stays at 1: the
		// sweep pool already fans cells out, and the answers are identical
		// at any worker count anyway.
		lt := qos.NewLazyAllPairs(s.Overlay, cfg.Metrics)
		start := time.Now()
		ag, err := abstract.FromAllPairs(s.Overlay, s.Req, lt)
		var lazySol *reduce.Result
		if err == nil {
			lazySol, err = reduce.Solve(ag, s.SourceNID, nil)
		}
		lazyUS.Observe(time.Since(start).Microseconds())
		if err == nil {
			vals["solved"] = 1
		}
		vals["rows_frac"] = float64(lt.Stats().Computed) / float64(s.Overlay.NumInstances())

		if size <= scaleOracleCutoff {
			eg, oerr := abstract.BuildWorkers(s.Overlay, s.Req, 1)
			var eagerSol *reduce.Result
			if oerr == nil {
				eagerSol, oerr = reduce.Solve(eg, s.SourceNID, nil)
			}
			if (err == nil) == (oerr == nil) &&
				(err != nil || (lazySol.Metric == eagerSol.Metric && reflect.DeepEqual(lazySol.Flow, eagerSol.Flow))) {
				vals["match"] = 1
			}
		} else {
			// Spot check: the memoized source row must equal a fresh
			// dense computation on a fresh freeze of the same overlay.
			fresh := qos.ShortestWidestCSR(qos.FreezeGraph(s.Overlay), s.SourceNID, qos.NewScratch())
			if memo := lt.From(s.SourceNID); memo != nil && memo.Equal(fresh) {
				vals["match"] = 1
			}
		}

		k := 8
		if n := s.Overlay.NumInstances(); k > n {
			k = n
		}
		start = time.Now()
		_, cerr := cluster.FederateContracted(s.Overlay, s.Req, s.SourceNID, k, 1)
		contractedUS.Observe(time.Since(start).Microseconds())
		if cerr == nil {
			vals["contracted_solved"] = 1
		}
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	return &Series{
		ID:      "scale",
		Title:   "Demand-driven federation on large overlays (lazy rows vs overlay size)",
		XLabel:  "OverlayNodes",
		YLabel:  "fraction",
		Columns: cols,
		Points:  points,
	}, nil
}
