package sflow

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"sflow/internal/abstract"
	"sflow/internal/cluster"
	"sflow/internal/core"
	"sflow/internal/metrics"
	"sflow/internal/qos"
	"sflow/internal/solve"
)

// Metrics is a registry of counters, gauges and histograms that the library
// fills in as it works: protocol messages and bytes, Dijkstra relaxations,
// abstract-graph builds, admissions, sweep cells. A nil *Metrics anywhere one
// is accepted disables instrumentation at (near) zero cost. All updates are
// atomic and safe for concurrent use.
type Metrics = metrics.Registry

// MetricsSnapshot is a point-in-time, deterministically ordered copy of a
// Metrics registry. Text() renders everything; StableText() omits volatile
// (wall-clock / scheduling dependent) metrics, so for a fixed seed it is
// byte-identical at any worker count. JSON() is the machine-readable form.
type MetricsSnapshot = metrics.Snapshot

// NewMetrics returns an empty metrics registry. Pass it in Options.Metrics,
// SolveOptions.Metrics or ExperimentConfig.Metrics and read it back with its
// Snapshot method.
func NewMetrics() *Metrics { return metrics.New() }

// Unreachable is the Metric reported when no route (or no complete
// federation) exists; its Reachable method returns false.
var Unreachable = qos.Unreachable

// Solution is the outcome of one centralised federation algorithm: the
// computed service flow graph (Flow) and its end-to-end quality (Metric).
type Solution = solve.Solution

// SolveOptions tunes Solve. The zero value is ready to use.
type SolveOptions struct {
	// Rng drives the "random" algorithm. Nil defaults to a fixed seed so
	// Solve stays reproducible by default.
	Rng *rand.Rand
	// ClusterK is the cluster count of the "hierarchical" algorithm
	// (0 defaults to 4, clamped to the overlay's instance count).
	ClusterK int
	// Workers bounds the all-pairs shortest-widest fan-out behind the
	// abstract-graph build, as qos.Options.Workers does: 0 uses
	// runtime.GOMAXPROCS(0) from 24 nodes up, 1 forces the sequential
	// computation.
	Workers int
	// Metrics, when non-nil, collects instrumentation from the build and
	// the algorithm run.
	Metrics *Metrics
	// Lazy routes demand-driven: no all-pairs computation runs up front, and
	// only the shortest-widest rows the chosen algorithm actually reads —
	// the rows of instances populating service slots — are computed. Answers
	// are byte-identical to eager mode for every algorithm; the cost stops
	// scaling with overlay size, which is what makes 10k–100k-node overlays
	// interactive. For "hierarchical", Lazy prices clusters and solves the
	// intra-cluster problem from lazy tables.
	Lazy bool
	// Contracted switches the "hierarchical" algorithm to the large-overlay
	// fast path: O(E) BFS clustering, inter-cluster routing on the
	// contracted k-node cluster digraph, and a lazily expanded
	// instance-level solve inside the chosen clusters. Cluster pairs are
	// priced by their best boundary link rather than exact member-pair
	// routes, so flows may differ from the classic hierarchical algorithm
	// (they remain valid federations with exact instance-level routes).
	// Ignored by the other algorithms.
	Contracted bool
}

// ErrUnknownAlgorithm is returned by Solve for a name outside Algorithms().
var ErrUnknownAlgorithm = errors.New("sflow: unknown algorithm")

// ErrPartialFederation is the sentinel wrapped by every error that carries a
// partial federation: the algorithm placed only part of the requirement
// (ServicePath on a non-path requirement federates just the main chain; a
// distributed run under faults times out or exhausts its retry budget).
// Match with errors.Is and recover the partial flow graph with errors.As on
// *PartialFederationError.
var ErrPartialFederation = core.ErrPartialFederation

// PartialFederationError reports that an algorithm could not satisfy the full
// requirement and carries what it did federate — plus, for distributed runs,
// the unresponsive instances (feed them to RepairPartial) and the protocol
// stats. It unwraps to ErrPartialFederation and to its Cause when set.
type PartialFederationError = core.PartialFederationError

// buildAbstract builds the service abstract graph behind every centralised
// algorithm, mapping build failures (a required service without instances)
// onto the facade's (nil, Unreachable, error) convention.
func buildAbstract(ov *Overlay, req *Requirement, opts SolveOptions) (*abstract.Graph, error) {
	return abstract.BuildWith(ov, req, qos.Options{Workers: opts.Workers, Lazy: opts.Lazy, Metrics: opts.Metrics})
}

// hierarchical runs the "hierarchical" algorithm over ov, with table
// configuring its routing tables (see cluster.Federate); the contracted path
// reads only its Workers.
func hierarchical(ov *Overlay, req *Requirement, src int, opts SolveOptions, table qos.Options) (*Solution, error) {
	k := opts.ClusterK
	if k == 0 {
		k = 4
	}
	if n := ov.NumInstances(); k > n {
		k = n
	}
	var r *cluster.Result
	var err error
	if opts.Contracted {
		r, err = cluster.FederateContracted(ov, req, src, k, table.Workers)
	} else {
		r, err = cluster.Federate(ov, req, src, k, table)
	}
	if err != nil {
		return nil, err
	}
	return &Solution{Flow: r.Flow, Metric: r.Metric}, nil
}

// abstractSolver resolves a registry algorithm (every name but
// "hierarchical"), with "random" drawing from opts.Rng when one is given.
func abstractSolver(name string, opts SolveOptions) (solve.Func, error) {
	if name == "random" && opts.Rng != nil {
		return solve.Random(opts.Rng), nil
	}
	if fn, ok := solve.Lookup(name); ok {
		return fn, nil
	}
	return nil, fmt.Errorf("%w %q (have %s)", ErrUnknownAlgorithm, name, strings.Join(Algorithms(), ", "))
}

// solveAbstract runs fn over ag in the facade's *Solution convention.
func solveAbstract(fn solve.Func, ag *abstract.Graph, src int) (*Solution, error) {
	sol, err := fn(ag, src)
	if err != nil {
		return nil, err
	}
	return &sol, nil
}

// Algorithms lists the names Solve accepts, sorted.
func Algorithms() []string {
	names := append(solve.Names(), "hierarchical")
	sort.Strings(names)
	return names
}

// Solve runs the named centralised federation algorithm over the overlay:
//
//   - "baseline": the paper's polynomial algorithm for path requirements
//   - "heuristic": the reduction heuristic for general DAGs
//   - "optimal": the exhaustive branch-and-bound global optimum
//   - "fixed": widest-direct-link greedy control
//   - "random": random feasible placement control (seed via SolveOptions.Rng)
//   - "servicepath": end-to-end single-path control; on non-path
//     requirements it returns a *PartialFederationError carrying the
//     main-chain flow graph
//   - "hierarchical": cluster-based divide-and-conquer federation
//     (cluster count via SolveOptions.ClusterK)
//
// All algorithms except "hierarchical" share a single abstract-graph build.
// The returned Solution is non-nil exactly when the error is nil.
func Solve(name string, ov *Overlay, req *Requirement, src int, opts SolveOptions) (*Solution, error) {
	if name == "hierarchical" {
		return hierarchical(ov, req, src, opts, qos.Options{Workers: opts.Workers, Lazy: opts.Lazy})
	}
	fn, err := abstractSolver(name, opts)
	if err != nil {
		return nil, err
	}
	ag, err := buildAbstract(ov, req, opts)
	if err != nil {
		return nil, err
	}
	return solveAbstract(fn, ag, src)
}
