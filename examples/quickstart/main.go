// Quickstart: generate a random service overlay scenario, run the
// distributed sFlow federation, and compare the result against the global
// optimum.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"sflow"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A reproducible workload: a 30-node underlying network carrying a
	// 6-service DAG requirement with 3 candidate instances per service.
	sc, err := sflow.GenerateScenario(sflow.ScenarioConfig{
		Seed:                42,
		NetworkSize:         30,
		Services:            6,
		InstancesPerService: 3,
		Kind:                sflow.KindGeneral,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "requirement: %v (shape: %s)\n", sc.Req, sc.Req.Shape())
	fmt.Fprintf(w, "overlay:     %d instances, %d service links\n\n",
		sc.Overlay.NumInstances(), sc.Overlay.NumLinks())

	// Run the distributed sFlow algorithm: the consumer injects the
	// requirement at the source instance; sfederate messages propagate on
	// a discrete-event-simulated network until the sink reports back.
	res, err := sflow.Federate(sc.Overlay, sc.Req, sc.SourceNID, sflow.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sFlow flow graph: %v\n", res.Flow)
	fmt.Fprintf(w, "  bandwidth %d Kbit/s, latency %d us\n", res.Metric.Bandwidth, res.Metric.Latency)
	fmt.Fprintf(w, "  %d messages, %d local computations, virtual time %d us\n\n",
		res.Stats.Messages, res.Stats.LocalComputations, res.Stats.VirtualTime)

	// Compare with the (exponential) global optimum.
	opt, err := sflow.Solve("optimal", sc.Overlay, sc.Req, sc.SourceNID, sflow.SolveOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "optimal flow graph: %v\n", opt.Flow)
	fmt.Fprintf(w, "  bandwidth %d Kbit/s, latency %d us\n", opt.Metric.Bandwidth, opt.Metric.Latency)
	fmt.Fprintf(w, "correctness coefficient: %.2f\n", res.Flow.CorrectnessCoefficient(opt.Flow))
	return nil
}
