package experiments

import (
	"errors"
	"fmt"
	"math/rand"

	"sflow/internal/des"
	"sflow/internal/metrics"
	"sflow/internal/provision"
	"sflow/internal/scenario"
)

// blockingArrivals is the number of requests offered per simulation run.
const blockingArrivals = 150

// blockingHolding is the mean holding time of an admitted request in virtual
// microseconds.
const blockingHolding = 1_000_000

// Blocking measures the blocking probability of each federation algorithm
// under Poisson churn (experiment A8 of DESIGN.md): requests arrive with
// exponential inter-arrival times, hold their reserved bandwidth for an
// exponential duration, and depart. The x axis is the offered load — the
// expected number of concurrently held requests (arrival rate times mean
// holding time) — on a fixed 30-node network; the value is the fraction of
// requests rejected.
func Blocking(cfg Config) (*Series, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	loads := []int{2, 5, 10, 20, 40}
	cols := []string{"sflow", "fixed", "random"}

	// One scenario per trial, shared across every load level, so the load
	// sweep is a controlled comparison.
	scenarios := make([]*scenario.Scenario, cfg.Trials)
	for trial := range scenarios {
		s, err := scenario.Generate(scenario.Config{
			Seed:                trialSeed(cfg.Seed, 997, trial),
			NetworkSize:         30,
			Services:            cfg.Services,
			InstancesPerService: cfg.instancesFor(30),
			Kind:                mixedKind(trial),
		})
		if err != nil {
			return nil, err
		}
		scenarios[trial] = s
	}

	// Fan the (load, trial) cells out exactly like run() does for
	// (size, trial): every cell reseeds its own rngs and admits over its
	// own residual copy of the shared scenario overlay, so execution
	// order cannot change any cell's result. Reassembling in (load,
	// trial) order keeps the series byte-identical at any worker count.
	cells := make([]map[string]float64, len(loads)*cfg.Trials)
	err = forEachCell(len(cells), cfg.workers(), func(i int) error {
		load, trial := loads[i/cfg.Trials], i%cfg.Trials
		s := scenarios[trial]
		algs := map[string]provision.Algorithm{
			"sflow": federateAlg(cfg.Metrics),
			"fixed": fixedAlg(cfg.Metrics),
			"random": randomAlg(rand.New(rand.NewSource(
				trialSeed(cfg.Seed, load, trial)+17)), cfg.Metrics),
		}
		vals := make(map[string]float64, len(cols))
		for name, alg := range algs {
			p, err := blockingRun(s, alg, load,
				rand.New(rand.NewSource(trialSeed(cfg.Seed, load, trial)+31)), cfg.Metrics)
			if err != nil {
				return fmt.Errorf("experiments: blocking %s load %d trial %d: %w",
					name, load, trial, err)
			}
			vals[name] = p
		}
		cells[i] = vals
		return nil
	})
	if err != nil {
		return nil, err
	}
	points := make([]Point, 0, len(loads))
	for li, load := range loads {
		sums := make(map[string]float64, len(cols))
		for trial := 0; trial < cfg.Trials; trial++ {
			for _, c := range cols {
				sums[c] += cells[li*cfg.Trials+trial][c]
			}
		}
		pt := Point{X: load, Values: make(map[string]float64, len(cols))}
		for _, c := range cols {
			pt.Values[c] = sums[c] / float64(cfg.Trials)
		}
		points = append(points, pt)
	}
	return &Series{
		ID:      "blocking",
		Title:   "Blocking probability under Poisson churn (30-node network, demand 150 Kbit/s)",
		XLabel:  "OfferedLoad",
		YLabel:  "blocking probability",
		Columns: cols,
		Points:  points,
	}, nil
}

// blockingRun simulates one Poisson arrival/departure process over a shared
// overlay and returns the fraction of blocked requests.
func blockingRun(s *scenario.Scenario, alg provision.Algorithm, load int, rng *rand.Rand, reg *metrics.Registry) (float64, error) {
	sim := des.New()
	mgr := provision.NewManager(s.Overlay, reg)
	interarrival := float64(blockingHolding) / float64(load)

	var (
		offered, blocked int
		failure          error
	)
	var arrive func()
	arrive = func() {
		if failure != nil {
			return
		}
		offered++
		adm, err := mgr.Admit(s.Req, s.SourceNID, admissionDemand, alg)
		switch {
		case err == nil:
			hold := int64(rng.ExpFloat64() * blockingHolding)
			if err := sim.Schedule(hold, func() {
				if err := mgr.Release(adm); err != nil && failure == nil {
					failure = err
				}
			}); err != nil {
				failure = err
				return
			}
		case errors.Is(err, provision.ErrRejected):
			blocked++
		default:
			failure = err
			return
		}
		if offered < blockingArrivals {
			gap := int64(rng.ExpFloat64() * interarrival)
			if err := sim.Schedule(gap, arrive); err != nil {
				failure = err
			}
		}
	}
	if err := sim.Schedule(0, arrive); err != nil {
		return 0, err
	}
	sim.Run()
	if failure != nil {
		return 0, failure
	}
	return float64(blocked) / float64(offered), nil
}
