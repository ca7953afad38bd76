package experiments

import (
	"fmt"
	"math/rand"

	"sflow/internal/abstract"
	"sflow/internal/control"
	"sflow/internal/core"
	"sflow/internal/flow"
	"sflow/internal/metrics"
	"sflow/internal/overlay"
	"sflow/internal/provision"
	"sflow/internal/qos"
	"sflow/internal/require"
)

// admissionDemand is the bandwidth each admitted request reserves.
const admissionDemand int64 = 150

// admissionCap bounds the number of requests probed per trial.
const admissionCap = 200

// Admission measures resource efficiency under contention (experiment A3 of
// DESIGN.md, extending the paper): identical requests are admitted one after
// another over a shared overlay, each reserving its demanded bandwidth along
// its streams, until the federation algorithm can no longer find a flow
// graph sustaining the demand. More admitted requests = the algorithm
// spends the network's capacity more frugally.
func Admission(cfg Config) (*Series, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cols := []string{"sflow", "fixed", "random"}
	points, err := run(cfg, cols, func(size, trial int) (map[string]float64, error) {
		s, _, err := generalScenario(cfg, size, trial, mixedKind(trial))
		if err != nil {
			return nil, err
		}
		vals := make(map[string]float64, len(cols))
		algs := map[string]provision.Algorithm{
			"sflow": federateAlg(cfg.Metrics),
			"fixed": fixedAlg(cfg.Metrics),
			"random": randomAlg(rand.New(rand.NewSource(
				trialSeed(cfg.Seed, size, trial)+13)), cfg.Metrics),
		}
		for name, alg := range algs {
			m := provision.NewManager(s.Overlay, cfg.Metrics)
			n, err := m.AdmitUntilRejected(s.Req, s.SourceNID, admissionDemand, alg, admissionCap)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			vals[name] = float64(n)
		}
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	return &Series{
		ID:      "admission",
		Title:   "Requests admitted before saturation (demand 150 Kbit/s each)",
		XLabel:  "NetworkSize",
		YLabel:  "admitted requests",
		Columns: cols,
		Points:  points,
	}, nil
}

// federateAlg adapts the distributed sFlow protocol to the provisioning
// Algorithm shape, instrumented into reg (nil disables).
func federateAlg(reg *metrics.Registry) provision.Algorithm {
	return func(ov *overlay.Overlay, req *require.Requirement, src int) (*flow.Graph, qos.Metric, error) {
		res, err := core.Federate(ov, req, src, core.Options{Metrics: reg})
		if err != nil {
			return nil, qos.Unreachable, err
		}
		return res.Flow, res.Metric, nil
	}
}

// fixedAlg adapts the fixed control algorithm.
func fixedAlg(reg *metrics.Registry) provision.Algorithm {
	return func(ov *overlay.Overlay, req *require.Requirement, src int) (*flow.Graph, qos.Metric, error) {
		ag, err := abstract.BuildWith(ov, req, qos.Options{Metrics: reg})
		if err != nil {
			return nil, qos.Unreachable, err
		}
		r, err := control.Fixed(ag, src)
		if err != nil {
			return nil, qos.Unreachable, err
		}
		return r.Flow, r.Metric, nil
	}
}

// randomAlg adapts the random control algorithm with a dedicated rng.
func randomAlg(rng *rand.Rand, reg *metrics.Registry) provision.Algorithm {
	return func(ov *overlay.Overlay, req *require.Requirement, src int) (*flow.Graph, qos.Metric, error) {
		ag, err := abstract.BuildWith(ov, req, qos.Options{Metrics: reg})
		if err != nil {
			return nil, qos.Unreachable, err
		}
		r, err := control.Random(ag, src, rng)
		if err != nil {
			return nil, qos.Unreachable, err
		}
		return r.Flow, r.Metric, nil
	}
}
