package experiments

import (
	"fmt"

	"sflow/internal/cluster"
	"sflow/internal/core"
	"sflow/internal/exact"
	"sflow/internal/qos"
)

// Hierarchy compares full sFlow against the cluster-based divide-and-conquer
// federation of the related work (experiment A9 of DESIGN.md): correctness
// coefficient vs network size for sFlow and the hierarchical algorithm at
// two cluster granularities, all measured against the global optimum.
func Hierarchy(cfg Config) (*Series, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cols := []string{"sflow", "hier(k=3)", "hier(k=6)"}
	points, err := run(cfg, cols, func(size, trial int) (map[string]float64, error) {
		s, ag, err := generalScenario(cfg, size, trial, mixedKind(trial))
		if err != nil {
			return nil, err
		}
		opt, err := exact.Solve(ag, s.SourceNID, exact.Options{})
		if err != nil {
			return nil, err
		}
		vals := make(map[string]float64, len(cols))
		sf, err := core.Federate(s.Overlay, s.Req, s.SourceNID, core.Options{Metrics: cfg.Metrics})
		if err != nil {
			return nil, fmt.Errorf("sflow: %w", err)
		}
		vals["sflow"] = sf.Flow.CorrectnessCoefficient(opt.Flow)
		for _, k := range []int{3, 6} {
			col := fmt.Sprintf("hier(k=%d)", k)
			kk := k
			if n := s.Overlay.NumInstances(); kk > n {
				kk = n
			}
			h, err := cluster.Federate(s.Overlay, s.Req, s.SourceNID, kk, qos.Options{})
			if err != nil {
				// The hierarchy can genuinely fail to connect a
				// requirement its clusters split badly; score zero.
				vals[col] = 0
				continue
			}
			vals[col] = h.Flow.CorrectnessCoefficient(opt.Flow)
		}
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	return &Series{
		ID:      "hierarchy",
		Title:   "sFlow vs cluster-based divide-and-conquer (correctness coefficient)",
		XLabel:  "NetworkSize",
		YLabel:  "correctness coefficient",
		Columns: cols,
		Points:  points,
	}, nil
}
