// Package experiments reproduces the paper's evaluation (Sec 5). Every
// panel of Figure 10 has one entry point that sweeps the network sizes the
// paper uses (10..50), runs the four federation algorithms plus the global
// optimal on seeded random scenarios, and returns the mean series the paper
// plots. Two ablation experiments (local-view radius and the reduction
// heuristics) extend the paper's evaluation.
package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"sflow/internal/abstract"
	"sflow/internal/baseline"
	"sflow/internal/control"
	"sflow/internal/core"
	"sflow/internal/exact"
	"sflow/internal/flow"
	"sflow/internal/metrics"
	"sflow/internal/qos"
	"sflow/internal/scenario"
	"sflow/internal/stats"
)

// Config controls an experiment sweep.
type Config struct {
	// Sizes are the underlay network sizes (default 10, 20, 30, 40, 50 —
	// the paper's sweep). Every size must be >= 2.
	Sizes []int
	// Trials is the number of seeded scenarios per size (default 10,
	// must not be negative).
	Trials int
	// Seed makes the whole sweep reproducible: the same seed produces
	// byte-identical series (Table/CSV output) at any worker count.
	Seed int64
	// Services is the number of required services per scenario
	// (default 6; a requirement needs at least 2 — a source and a sink).
	Services int
	// Instances is the number of instances per non-source service.
	// Zero scales it with network size (max(2, size/10)), matching the
	// paper's model where the overlay grows with the network.
	Instances int
	// Workers bounds the number of (size, trial) cells evaluated
	// concurrently. Zero (the default) uses runtime.GOMAXPROCS(0); 1
	// reproduces the historical sequential sweep exactly. Every cell
	// derives its own seed, so the assembled series are identical at any
	// worker count — only wall-clock timing columns (Fig 10b) carry
	// scheduling noise.
	Workers int
	// Metrics, when non-nil, collects counters and histograms from the
	// sweep and everything it calls into (federation protocol, routing,
	// abstract-graph builds, provisioning). Non-volatile metrics are sums
	// of deterministic per-cell work, so Snapshot().StableText() is
	// byte-identical at any worker count for a fixed Seed; wall-clock and
	// scheduling metrics are marked volatile and appear only in Text().
	Metrics *metrics.Registry
}

// withDefaults fills unset fields with the paper's defaults and rejects
// nonsense values (negative trial counts, undersized networks, requirements
// with fewer than two services) that would otherwise silently produce
// all-zero series.
func (c Config) withDefaults() (Config, error) {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{10, 20, 30, 40, 50}
	}
	for _, s := range c.Sizes {
		if s < 2 {
			return c, fmt.Errorf("experiments: network size %d out of range (must be >= 2)", s)
		}
	}
	if c.Trials == 0 {
		c.Trials = 10
	}
	if c.Trials < 0 {
		return c, fmt.Errorf("experiments: trials %d out of range (must be >= 1)", c.Trials)
	}
	if c.Services == 0 {
		c.Services = 6
	}
	if c.Services < 2 {
		return c, fmt.Errorf("experiments: services %d out of range (a requirement needs a source and a sink, so >= 2)", c.Services)
	}
	if c.Instances < 0 {
		return c, fmt.Errorf("experiments: instances %d out of range (must be >= 0; 0 scales with network size)", c.Instances)
	}
	if c.Workers < 0 {
		return c, fmt.Errorf("experiments: workers %d out of range (must be >= 0; 0 means GOMAXPROCS)", c.Workers)
	}
	return c, nil
}

// workers resolves the effective worker count of the sweep pool.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// instancesFor returns the per-service instance count for a network size.
func (c Config) instancesFor(size int) int {
	if c.Instances > 0 {
		return c.Instances
	}
	if n := size / 10; n > 2 {
		return n
	}
	return 2
}

// Point is one x position of a series with one value per algorithm.
type Point struct {
	X      int
	Values map[string]float64
	// Std holds the sample standard deviation behind each mean value.
	Std map[string]float64
}

// Series is the data behind one figure panel.
type Series struct {
	ID      string
	Title   string
	XLabel  string
	YLabel  string
	Columns []string
	Points  []Point
}

// Table renders the series as an aligned text table.
func (s *Series) Table() string {
	width := 16
	for _, c := range s.Columns {
		if len(c)+2 > width {
			width = len(c) + 2
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", s.ID, s.Title)
	fmt.Fprintf(&b, "%-12s", s.XLabel)
	for _, c := range s.Columns {
		fmt.Fprintf(&b, "%*s", width, c)
	}
	b.WriteByte('\n')
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%-12d", p.X)
		for _, c := range s.Columns {
			fmt.Fprintf(&b, "%*.4f", width, p.Values[c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the series as comma-separated values with a header row.
func (s *Series) CSV() string {
	var b strings.Builder
	b.WriteString(strings.ToLower(s.XLabel))
	for _, c := range s.Columns {
		b.WriteString(",")
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%d", p.X)
		for _, c := range s.Columns {
			fmt.Fprintf(&b, ",%.6f", p.Values[c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// trialSeed derives a deterministic per-trial seed.
func trialSeed(base int64, size, trial int) int64 {
	return base*1_000_003 + int64(size)*1_009 + int64(trial)
}

// run executes fn for every (size, trial) pair and assembles mean values per
// column: the standard sweep over cfg.Sizes.
func run(cfg Config, columns []string, fn func(size, trial int) (map[string]float64, error)) ([]Point, error) {
	return runOver(cfg, cfg.Sizes, columns, fn)
}

// runOver executes fn for every (x, trial) pair over an arbitrary x-axis and
// assembles mean values per column. Cells fan out over cfg.workers()
// goroutines — every cell owns an independent seed via trialSeed, so results
// do not depend on execution order — and are reassembled in (x, trial) order,
// making the returned series (and hence Table/CSV output) byte-identical at
// any worker count.
func runOver(cfg Config, xs []int, columns []string, fn func(x, trial int) (map[string]float64, error)) ([]Point, error) {
	cells := make([]map[string]float64, len(xs)*cfg.Trials)
	// Per-cell instrumentation: the cell count is a deterministic sum; the
	// wall-time histogram and the pool-occupancy peak depend on scheduling,
	// so both are volatile.
	cellsDone := cfg.Metrics.Counter("exp_cells_total")
	cellWall := cfg.Metrics.Histogram("exp_cell_wall_us",
		metrics.ExponentialBounds(100, 10, 6), metrics.Volatile())
	var active, peak atomic.Int64
	err := forEachCell(len(cells), cfg.workers(), func(i int) error {
		x, trial := xs[i/cfg.Trials], i%cfg.Trials
		if now := active.Add(1); now > peak.Load() {
			peak.Store(now) // best-effort peak; the gauge is volatile anyway
		}
		start := time.Now()
		vals, err := fn(x, trial)
		cellWall.Observe(time.Since(start).Microseconds())
		active.Add(-1)
		cellsDone.Inc()
		if err != nil {
			return fmt.Errorf("experiments: x=%d trial %d: %w", x, trial, err)
		}
		cells[i] = vals
		return nil
	})
	cfg.Metrics.Gauge("exp_pool_peak_active_workers", metrics.Volatile()).Set(peak.Load())
	if err != nil {
		return nil, err
	}
	points := make([]Point, 0, len(xs))
	for si, x := range xs {
		samples := make(map[string][]float64, len(columns))
		for trial := 0; trial < cfg.Trials; trial++ {
			vals := cells[si*cfg.Trials+trial]
			for _, c := range columns {
				samples[c] = append(samples[c], vals[c])
			}
		}
		p := Point{
			X:      x,
			Values: make(map[string]float64, len(columns)),
			Std:    make(map[string]float64, len(columns)),
		}
		for _, c := range columns {
			sum := stats.Summarize(samples[c])
			p.Values[c] = sum.Mean
			p.Std[c] = sum.Std
		}
		points = append(points, p)
	}
	return points, nil
}

// mixedKind rotates through the non-path requirement shapes: the paper's
// consumer "creates service requirements of any type", so the correctness,
// latency and bandwidth panels average over general DAGs, disjoint paths and
// split-and-merge diamonds.
func mixedKind(trial int) scenario.Kind {
	switch trial % 3 {
	case 0:
		return scenario.KindGeneral
	case 1:
		return scenario.KindDisjoint
	default:
		return scenario.KindSplitMerge
	}
}

// generalScenario builds the DAG-requirement scenario of one trial.
func generalScenario(cfg Config, size, trial int, kind scenario.Kind) (*scenario.Scenario, *abstract.Graph, error) {
	s, err := scenario.Generate(scenario.Config{
		Seed:                trialSeed(cfg.Seed, size, trial),
		NetworkSize:         size,
		Services:            cfg.Services,
		InstancesPerService: cfg.instancesFor(size),
		Kind:                kind,
	})
	if err != nil {
		return nil, nil, err
	}
	// The sweep pool already fans (size, trial) cells out across the
	// host's cores; keep the per-cell all-pairs computation sequential so
	// a single-worker sweep reproduces the historical behaviour exactly
	// and a parallel sweep does not oversubscribe.
	ag, err := abstract.BuildWith(s.Overlay, s.Req, qos.Options{Workers: 1, Metrics: cfg.Metrics})
	if err != nil {
		return nil, nil, err
	}
	return s, ag, nil
}

// Fig10a reproduces Fig 10(a): the correctness coefficient (fraction of
// instance choices matching the global optimal flow graph) versus network
// size, for sFlow and the three control algorithms.
func Fig10a(cfg Config) (*Series, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cols := []string{"sflow", "fixed", "random", "servicepath"}
	points, err := run(cfg, cols, func(size, trial int) (map[string]float64, error) {
		s, ag, err := generalScenario(cfg, size, trial, mixedKind(trial))
		if err != nil {
			return nil, err
		}
		opt, err := exact.Solve(ag, s.SourceNID, exact.Options{})
		if err != nil {
			return nil, err
		}
		cc := func(fg *flow.Graph) float64 { return fg.CorrectnessCoefficient(opt.Flow) }
		vals := make(map[string]float64, len(cols))

		sf, err := core.Federate(s.Overlay, s.Req, s.SourceNID, core.Options{Metrics: cfg.Metrics})
		if err != nil {
			return nil, fmt.Errorf("sflow: %w", err)
		}
		vals["sflow"] = cc(sf.Flow)

		fx, err := control.Fixed(ag, s.SourceNID)
		if err != nil {
			return nil, fmt.Errorf("fixed: %w", err)
		}
		vals["fixed"] = cc(fx.Flow)

		rd, err := control.Random(ag, s.SourceNID, rand.New(rand.NewSource(trialSeed(cfg.Seed, size, trial)+7)))
		if err != nil {
			return nil, fmt.Errorf("random: %w", err)
		}
		vals["random"] = cc(rd.Flow)

		sp, err := control.ServicePath(ag, s.SourceNID)
		if err != nil {
			return nil, fmt.Errorf("servicepath: %w", err)
		}
		vals["servicepath"] = cc(sp.Flow)
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	return &Series{
		ID:      "fig10a",
		Title:   "Correctness of the sFlow algorithm (correctness coefficient vs network size)",
		XLabel:  "NetworkSize",
		YLabel:  "correctness coefficient",
		Columns: cols,
		Points:  points,
	}, nil
}

// Fig10b reproduces Fig 10(b): computation time versus network size, sFlow
// against the global optimal algorithm. As in the paper, only simple
// (single-path) requirements are used so the two are comparable; sFlow's
// time is the total local computation time across all nodes, the optimal's
// is its single centralised solve. Values are microseconds.
func Fig10b(cfg Config) (*Series, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cols := []string{"sflow", "optimal"}
	points, err := run(cfg, cols, func(size, trial int) (map[string]float64, error) {
		s, _, err := generalScenario(cfg, size, trial, scenario.KindPath)
		if err != nil {
			return nil, err
		}
		// Wall-clock microbenchmarks need a warm-up run and a few
		// repetitions to rise above allocator noise.
		const reps = 5
		var sfTotal time.Duration
		for i := 0; i <= reps; i++ {
			sf, err := core.Federate(s.Overlay, s.Req, s.SourceNID, core.Options{Metrics: cfg.Metrics})
			if err != nil {
				return nil, fmt.Errorf("sflow: %w", err)
			}
			if i > 0 { // skip the warm-up measurement
				sfTotal += sf.Stats.ComputeTime
			}
		}
		// On a path requirement the baseline algorithm IS the global
		// optimal (and polynomial — the reason the paper restricts this
		// comparison to simple requirements). Its time includes step 1,
		// the all-pairs shortest-widest computation behind the abstract
		// graph, exactly as sFlow's per-node time includes its local
		// view computations.
		var optTotal time.Duration
		for i := 0; i <= reps; i++ {
			start := time.Now()
			// Sequential all-pairs: the timed comparison against
			// sFlow's single-threaded per-node computations stays
			// apples-to-apples regardless of the sweep's fan-out.
			ag, err := abstract.BuildWith(s.Overlay, s.Req, qos.Options{Workers: 1})
			if err != nil {
				return nil, err
			}
			if _, err := baseline.Solve(ag, s.SourceNID, nil); err != nil {
				return nil, fmt.Errorf("optimal: %w", err)
			}
			if i > 0 {
				optTotal += time.Since(start)
			}
		}
		return map[string]float64{
			"sflow":   float64(sfTotal.Microseconds()) / reps,
			"optimal": float64(optTotal.Microseconds()) / reps,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Series{
		ID:      "fig10b",
		Title:   "Scalability over network size (computation time, microseconds)",
		XLabel:  "NetworkSize",
		YLabel:  "time (us)",
		Columns: cols,
		Points:  points,
	}, nil
}

// Fig10c reproduces Fig 10(c): the end-to-end latency of the federated
// service flow graph versus network size for sFlow, fixed and random.
// Values are microseconds.
func Fig10c(cfg Config) (*Series, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cols := []string{"sflow", "fixed", "random"}
	points, err := run(cfg, cols, func(size, trial int) (map[string]float64, error) {
		s, ag, err := generalScenario(cfg, size, trial, mixedKind(trial))
		if err != nil {
			return nil, err
		}
		vals := make(map[string]float64, len(cols))
		sf, err := core.Federate(s.Overlay, s.Req, s.SourceNID, core.Options{Metrics: cfg.Metrics})
		if err != nil {
			return nil, fmt.Errorf("sflow: %w", err)
		}
		vals["sflow"] = float64(sf.Metric.Latency)
		fx, err := control.Fixed(ag, s.SourceNID)
		if err != nil {
			return nil, fmt.Errorf("fixed: %w", err)
		}
		vals["fixed"] = float64(fx.Metric.Latency)
		rd, err := control.Random(ag, s.SourceNID, rand.New(rand.NewSource(trialSeed(cfg.Seed, size, trial)+7)))
		if err != nil {
			return nil, fmt.Errorf("random: %w", err)
		}
		vals["random"] = float64(rd.Metric.Latency)
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	return &Series{
		ID:      "fig10c",
		Title:   "sFlow latency performance (end-to-end latency, microseconds)",
		XLabel:  "NetworkSize",
		YLabel:  "latency (us)",
		Columns: cols,
		Points:  points,
	}, nil
}

// Fig10d reproduces Fig 10(d): the end-to-end bottleneck bandwidth of the
// federated service flow graph versus network size for the global optimal,
// sFlow, fixed and random. Values are Kbit/s.
func Fig10d(cfg Config) (*Series, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cols := []string{"optimal", "sflow", "fixed", "random"}
	points, err := run(cfg, cols, func(size, trial int) (map[string]float64, error) {
		s, ag, err := generalScenario(cfg, size, trial, mixedKind(trial))
		if err != nil {
			return nil, err
		}
		vals := make(map[string]float64, len(cols))
		opt, err := exact.Solve(ag, s.SourceNID, exact.Options{})
		if err != nil {
			return nil, fmt.Errorf("optimal: %w", err)
		}
		vals["optimal"] = float64(opt.Metric.Bandwidth)
		sf, err := core.Federate(s.Overlay, s.Req, s.SourceNID, core.Options{Metrics: cfg.Metrics})
		if err != nil {
			return nil, fmt.Errorf("sflow: %w", err)
		}
		vals["sflow"] = float64(sf.Metric.Bandwidth)
		fx, err := control.Fixed(ag, s.SourceNID)
		if err != nil {
			return nil, fmt.Errorf("fixed: %w", err)
		}
		vals["fixed"] = float64(fx.Metric.Bandwidth)
		rd, err := control.Random(ag, s.SourceNID, rand.New(rand.NewSource(trialSeed(cfg.Seed, size, trial)+7)))
		if err != nil {
			return nil, fmt.Errorf("random: %w", err)
		}
		vals["random"] = float64(rd.Metric.Bandwidth)
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	return &Series{
		ID:      "fig10d",
		Title:   "sFlow bandwidth performance (end-to-end bandwidth, Kbit/s)",
		XLabel:  "NetworkSize",
		YLabel:  "bandwidth (Kbit/s)",
		Columns: cols,
		Points:  points,
	}, nil
}

// AblationLookahead measures the correctness coefficient of sFlow as the
// local-view radius varies (1, 2 and 3 hops) — quantifying the paper's
// two-hop local knowledge assumption.
func AblationLookahead(cfg Config) (*Series, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cols := []string{"hops=1", "hops=2", "hops=3"}
	points, err := run(cfg, cols, func(size, trial int) (map[string]float64, error) {
		s, ag, err := generalScenario(cfg, size, trial, scenario.KindGeneral)
		if err != nil {
			return nil, err
		}
		opt, err := exact.Solve(ag, s.SourceNID, exact.Options{})
		if err != nil {
			return nil, err
		}
		vals := make(map[string]float64, len(cols))
		for hops := 1; hops <= 3; hops++ {
			sf, err := core.Federate(s.Overlay, s.Req, s.SourceNID, core.Options{Hops: hops, Metrics: cfg.Metrics})
			if err != nil {
				return nil, fmt.Errorf("hops=%d: %w", hops, err)
			}
			vals[fmt.Sprintf("hops=%d", hops)] = sf.Flow.CorrectnessCoefficient(opt.Flow)
		}
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	return &Series{
		ID:      "ablation-lookahead",
		Title:   "sFlow correctness vs local-view radius",
		XLabel:  "NetworkSize",
		YLabel:  "correctness coefficient",
		Columns: cols,
		Points:  points,
	}, nil
}

// AblationReduction measures the bandwidth of the flow graphs produced by
// full sFlow against the greedy ablation (reductions disabled), both
// normalised by the global optimal bandwidth.
func AblationReduction(cfg Config) (*Series, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cols := []string{"full", "greedy"}
	points, err := run(cfg, cols, func(size, trial int) (map[string]float64, error) {
		s, ag, err := generalScenario(cfg, size, trial, scenario.KindGeneral)
		if err != nil {
			return nil, err
		}
		opt, err := exact.Solve(ag, s.SourceNID, exact.Options{})
		if err != nil {
			return nil, err
		}
		vals := make(map[string]float64, len(cols))
		full, err := core.Federate(s.Overlay, s.Req, s.SourceNID, core.Options{Metrics: cfg.Metrics})
		if err != nil {
			return nil, fmt.Errorf("full: %w", err)
		}
		vals["full"] = float64(full.Metric.Bandwidth) / float64(opt.Metric.Bandwidth)
		greedy, err := core.Federate(s.Overlay, s.Req, s.SourceNID, core.Options{DisableReductions: true, Metrics: cfg.Metrics})
		if err != nil {
			return nil, fmt.Errorf("greedy: %w", err)
		}
		vals["greedy"] = float64(greedy.Metric.Bandwidth) / float64(opt.Metric.Bandwidth)
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	return &Series{
		ID:      "ablation-reduction",
		Title:   "Flow-graph bandwidth relative to optimal: full sFlow vs greedy ablation",
		XLabel:  "NetworkSize",
		YLabel:  "bandwidth / optimal",
		Columns: cols,
		Points:  points,
	}, nil
}

// All runs every figure and ablation with one config.
func All(cfg Config) ([]*Series, error) {
	type entry struct {
		name string
		fn   func(Config) (*Series, error)
	}
	var out []*Series
	for _, e := range []entry{
		{"fig10a", Fig10a}, {"fig10b", Fig10b}, {"fig10c", Fig10c}, {"fig10d", Fig10d},
		{"ablation-lookahead", AblationLookahead}, {"ablation-reduction", AblationReduction},
		{"admission", Admission},
		{"tenants", Tenants},
		{"overhead", Overhead},
		{"repair", RepairChurn},
		{"blocking", Blocking},
		{"hierarchy", Hierarchy},
		{"faults", FaultSweep},
		{"dynamics", Dynamics},
		{"reopt", Reopt},
	} {
		s, err := e.fn(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.name, err)
		}
		out = append(out, s)
	}
	return out, nil
}
