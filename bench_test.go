// Benchmarks regenerating the paper's evaluation. One benchmark per Figure
// 10 panel (the paper has no numbered result tables — Table 1 is pseudocode)
// plus the ablations from DESIGN.md and micro-benchmarks of the core
// algorithms. Reproduced series values are attached as custom benchmark
// metrics so `go test -bench` output carries the actual figures.
package sflow_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"sflow"
)

// benchCfg is the sweep used inside benchmarks: the paper's sizes with a
// modest trial count so one benchmark iteration stays in the tens of
// milliseconds.
func benchCfg() sflow.ExperimentConfig {
	return sflow.ExperimentConfig{Sizes: []int{10, 20, 30, 40, 50}, Trials: 6, Seed: 1}
}

// reportSeries attaches the last point (network size 50) of every column as
// a custom metric.
func reportSeries(b *testing.B, s *sflow.Series, unit string) {
	b.Helper()
	last := s.Points[len(s.Points)-1]
	for _, col := range s.Columns {
		b.ReportMetric(last.Values[col], col+"_"+unit)
	}
}

// BenchmarkFig10aCorrectness regenerates Fig 10(a): correctness coefficient
// vs network size for sFlow, fixed, random and service-path.
func BenchmarkFig10aCorrectness(b *testing.B) {
	var s *sflow.Series
	for i := 0; i < b.N; i++ {
		var err error
		s, err = sflow.Fig10a(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, s, "cc@50")
}

// BenchmarkFig10bTime regenerates Fig 10(b): computation time vs network
// size, sFlow vs the global optimal on simple requirements.
func BenchmarkFig10bTime(b *testing.B) {
	var s *sflow.Series
	for i := 0; i < b.N; i++ {
		var err error
		s, err = sflow.Fig10b(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, s, "us@50")
}

// BenchmarkFig10cLatency regenerates Fig 10(c): end-to-end flow-graph
// latency vs network size.
func BenchmarkFig10cLatency(b *testing.B) {
	var s *sflow.Series
	for i := 0; i < b.N; i++ {
		var err error
		s, err = sflow.Fig10c(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, s, "us@50")
}

// BenchmarkFig10dBandwidth regenerates Fig 10(d): end-to-end flow-graph
// bandwidth vs network size.
func BenchmarkFig10dBandwidth(b *testing.B) {
	var s *sflow.Series
	for i := 0; i < b.N; i++ {
		var err error
		s, err = sflow.Fig10d(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, s, "kbps@50")
}

// BenchmarkAblationLookahead measures sFlow correctness vs local-view radius
// (DESIGN.md experiment A1).
func BenchmarkAblationLookahead(b *testing.B) {
	cfg := benchCfg()
	cfg.Sizes = []int{20, 40}
	var s *sflow.Series
	for i := 0; i < b.N; i++ {
		var err error
		s, err = sflow.AblationLookahead(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, s, "cc@40")
}

// BenchmarkAblationReduction measures the reduction heuristics' contribution
// (DESIGN.md experiment A2).
func BenchmarkAblationReduction(b *testing.B) {
	cfg := benchCfg()
	cfg.Sizes = []int{20, 40}
	var s *sflow.Series
	for i := 0; i < b.N; i++ {
		var err error
		s, err = sflow.AblationReduction(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, s, "ratio@40")
}

// BenchmarkSweepWorkers compares the evaluation sweep at one worker (the
// historical sequential harness) against the host's GOMAXPROCS: the same
// seeded cells, fanned out. Output is byte-identical either way (see
// TestCSVDeterministicAcrossWorkerCounts); only wall-clock should move, and
// on a multi-core host the parallel sweep should win roughly linearly in
// cores. Fig 10(a) is the heaviest panel (exact solve per cell), so it is
// the honest workload for the comparison.
func BenchmarkSweepWorkers(b *testing.B) {
	for _, workers := range []int{1, multiWorkers()} {
		cfg := benchCfg()
		cfg.Workers = workers
		b.Run(fmt.Sprintf("fig10a/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sflow.Fig10a(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// multiWorkers is the parallel leg of the workers=1 comparison: the host's
// GOMAXPROCS, floored at 4 so the comparison still exercises the pool
// machinery (overhead included) on a single-core runner.
func multiWorkers() int {
	if n := runtime.GOMAXPROCS(0); n >= 2 {
		return n
	}
	return 4
}

// benchScenario generates one scenario per network size for the micro
// benchmarks.
func benchScenario(b *testing.B, size int, kind sflow.ScenarioKind) *sflow.Scenario {
	b.Helper()
	sc, err := sflow.GenerateScenario(sflow.ScenarioConfig{
		Seed: int64(size), NetworkSize: size, Services: 6,
		InstancesPerService: 3, Kind: kind,
	})
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

// BenchmarkFederate measures one full distributed federation (DES transport)
// at each of the paper's network sizes.
func BenchmarkFederate(b *testing.B) {
	for _, size := range []int{10, 30, 50} {
		sc := benchScenario(b, size, sflow.KindGeneral)
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sflow.Federate(sc.Overlay, sc.Req, sc.SourceNID, sflow.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFederateConcurrent measures the goroutine-transport federation.
func BenchmarkFederateConcurrent(b *testing.B) {
	sc := benchScenario(b, 30, sflow.KindGeneral)
	for i := 0; i < b.N; i++ {
		if _, err := sflow.Federate(sc.Overlay, sc.Req, sc.SourceNID, sflow.Options{Concurrent: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimal measures the exhaustive global search.
func BenchmarkOptimal(b *testing.B) {
	for _, size := range []int{10, 30, 50} {
		sc := benchScenario(b, size, sflow.KindGeneral)
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sflow.Solve("optimal", sc.Overlay, sc.Req, sc.SourceNID, sflow.SolveOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBaseline measures the polynomial baseline on path requirements.
func BenchmarkBaseline(b *testing.B) {
	sc := benchScenario(b, 50, sflow.KindPath)
	for i := 0; i < b.N; i++ {
		if _, err := sflow.Solve("baseline", sc.Overlay, sc.Req, sc.SourceNID, sflow.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeuristic measures the centralised reduction heuristic.
func BenchmarkHeuristic(b *testing.B) {
	sc := benchScenario(b, 50, sflow.KindGeneral)
	for i := 0; i < b.N; i++ {
		if _, err := sflow.Solve("heuristic", sc.Overlay, sc.Req, sc.SourceNID, sflow.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControls measures the three control algorithms.
func BenchmarkControls(b *testing.B) {
	sc := benchScenario(b, 30, sflow.KindGeneral)
	b.Run("fixed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sflow.Solve("fixed", sc.Overlay, sc.Req, sc.SourceNID, sflow.SolveOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("random", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			if _, err := sflow.Solve("random", sc.Overlay, sc.Req, sc.SourceNID, sflow.SolveOptions{Rng: rng}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("servicepath", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sflow.Solve("servicepath", sc.Overlay, sc.Req, sc.SourceNID, sflow.SolveOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScenarioGeneration measures workload generation itself.
func BenchmarkScenarioGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sflow.GenerateScenario(sflow.ScenarioConfig{
			Seed: int64(i), NetworkSize: 50, Services: 6,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTheorem1 measures the SAT -> MSFG reduction and decision on the
// paper's Fig 7 formula.
func BenchmarkTheorem1(b *testing.B) {
	f := sflow.NewSATFormula(4)
	for _, cl := range [][]sflow.SATLiteral{
		{1, 2, 3, 4}, {-1, 2, -3}, {1, -2, 4}, {-2, 3},
	} {
		if err := f.AddClause(cl...); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < b.N; i++ {
		in, err := sflow.ReduceSATToMSFG(f)
		if err != nil {
			b.Fatal(err)
		}
		if ok, _, _ := in.Decide(); !ok {
			b.Fatal("paper formula should be satisfiable")
		}
	}
}

// BenchmarkAdmission measures the admission-capacity experiment (DESIGN.md
// experiment A3): requests admitted before saturation per algorithm.
func BenchmarkAdmission(b *testing.B) {
	cfg := benchCfg()
	cfg.Sizes = []int{20, 40}
	cfg.Trials = 3
	var s *sflow.Series
	for i := 0; i < b.N; i++ {
		var err error
		s, err = sflow.AdmissionCapacity(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, s, "reqs@40")
}

// BenchmarkBlocking measures the Poisson-churn blocking experiment
// (DESIGN.md experiment A8).
func BenchmarkBlocking(b *testing.B) {
	cfg := sflow.ExperimentConfig{Trials: 2, Seed: 1, Services: 5, Instances: 2}
	var s *sflow.Series
	for i := 0; i < b.N; i++ {
		var err error
		s, err = sflow.BlockingUnderLoad(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, s, "pblock@40")
}

// BenchmarkRepairChurn measures the failure-repair experiment (DESIGN.md
// experiment A7).
func BenchmarkRepairChurn(b *testing.B) {
	cfg := benchCfg()
	cfg.Sizes = []int{20, 40}
	cfg.Trials = 3
	var s *sflow.Series
	for i := 0; i < b.N; i++ {
		var err error
		s, err = sflow.RepairChurn(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, s, "at40")
}

// BenchmarkWorkloadSimulate measures mixed-traffic replay over a provisioned
// overlay.
func BenchmarkWorkloadSimulate(b *testing.B) {
	sc := benchScenario(b, 30, sflow.KindGeneral)
	reqs, err := sflow.GenerateWorkload(sc.Req, sc.SourceNID, sflow.WorkloadConfig{
		Seed: 1, Count: 60, MeanInterarrival: 20_000, MeanHolding: 80_000,
		DemandMin: 50, DemandMax: 250,
	})
	if err != nil {
		b.Fatal(err)
	}
	alg := sflow.RegistryAlgorithm("fixed", sflow.SolveOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sflow.SimulateWorkload(sc.Overlay, reqs, alg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHierarchical measures the cluster-based federation.
func BenchmarkHierarchical(b *testing.B) {
	sc := benchScenario(b, 30, sflow.KindGeneral)
	for i := 0; i < b.N; i++ {
		if _, _, err := sflow.Hierarchical(sc.Overlay, sc.Req, sc.SourceNID, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepair measures failure repair on a completed federation.
func BenchmarkRepair(b *testing.B) {
	sc := benchScenario(b, 30, sflow.KindGeneral)
	res, err := sflow.Federate(sc.Overlay, sc.Req, sc.SourceNID, sflow.Options{})
	if err != nil {
		b.Fatal(err)
	}
	victimSID := sc.Req.TopoOrder()[1]
	victim, _ := res.Flow.Assigned(victimSID)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sflow.Repair(sc.Overlay, sc.Req, res.Flow, []int{victim}, sflow.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFederateLoopbackTCP measures the protocol over real sockets.
func BenchmarkFederateLoopbackTCP(b *testing.B) {
	sc := benchScenario(b, 20, sflow.KindGeneral)
	for i := 0; i < b.N; i++ {
		if _, err := sflow.Federate(sc.Overlay, sc.Req, sc.SourceNID, sflow.Options{Loopback: true}); err != nil {
			b.Fatal(err)
		}
	}
}
