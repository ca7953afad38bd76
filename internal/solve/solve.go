// Package solve is the one registry of the centralised federation algorithms
// that run over a built service abstract graph: six names, one function
// shape, one solution type. The facade (sflow.Solve, Session.Solve), the
// daemon's solve handler and its admission path all dispatch through it, so
// a served answer and a stateless one come from the same call.
//
// "hierarchical" is not here: the cluster hierarchy works on the raw overlay,
// not on an abstract graph, and the facade dispatches it separately.
package solve

import (
	"math/rand"
	"sort"

	"sflow/internal/abstract"
	"sflow/internal/baseline"
	"sflow/internal/control"
	"sflow/internal/core"
	"sflow/internal/exact"
	"sflow/internal/flow"
	"sflow/internal/qos"
	"sflow/internal/reduce"
)

// Solution is the outcome of one algorithm: the computed service flow graph
// and its end-to-end quality.
type Solution struct {
	Flow   *flow.Graph
	Metric qos.Metric
}

// Func runs one algorithm over ag from the source instance src.
type Func func(ag *abstract.Graph, src int) (Solution, error)

var registry = map[string]Func{
	"baseline": func(ag *abstract.Graph, src int) (Solution, error) {
		r, err := baseline.Solve(ag, src, nil)
		if err != nil {
			return Solution{}, err
		}
		return Solution{r.Flow, r.Metric}, nil
	},
	"heuristic": func(ag *abstract.Graph, src int) (Solution, error) {
		r, err := reduce.Solve(ag, src, nil)
		if err != nil {
			return Solution{}, err
		}
		return Solution{r.Flow, r.Metric}, nil
	},
	"optimal": func(ag *abstract.Graph, src int) (Solution, error) {
		r, err := exact.Solve(ag, src, exact.Options{})
		if err != nil {
			return Solution{}, err
		}
		return Solution{r.Flow, r.Metric}, nil
	},
	"fixed": func(ag *abstract.Graph, src int) (Solution, error) {
		return fromControl(control.Fixed(ag, src))
	},
	// A fresh fixed-seed rng per call keeps every solve, and so every
	// recorded admission log, reproducible; see Random for a caller's rng.
	"random": func(ag *abstract.Graph, src int) (Solution, error) {
		return Random(rand.New(rand.NewSource(1)))(ag, src)
	},
	"servicepath": func(ag *abstract.Graph, src int) (Solution, error) {
		return fromControl(control.ServicePath(ag, src))
	},
}

// fromControl converts a control algorithm's outcome; an incomplete flow (a
// service path on a non-path requirement) is a *core.PartialFederationError
// carrying what was federated.
func fromControl(r *control.Result, err error) (Solution, error) {
	if err != nil {
		return Solution{}, err
	}
	if !r.Complete {
		return Solution{}, &core.PartialFederationError{Flow: r.Flow}
	}
	return Solution{r.Flow, r.Metric}, nil
}

// Random is the "random" algorithm drawing from rng.
func Random(rng *rand.Rand) Func {
	return func(ag *abstract.Graph, src int) (Solution, error) {
		return fromControl(control.Random(ag, src, rng))
	}
}

// Lookup returns the algorithm registered under name.
func Lookup(name string) (Func, bool) {
	fn, ok := registry[name]
	return fn, ok
}

// Names lists the registered algorithms, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
