// Package control implements the three control algorithms the paper
// evaluates sFlow against (Sec 5):
//
//   - Random: each required service is placed on a random instance that its
//     already-placed upstream services can feed over a direct service link.
//   - Fixed: each required service is placed on the instance reachable over
//     the direct service link with the highest bandwidth — a one-hop greedy
//     with no lookahead and no latency awareness.
//   - ServicePath: the end-to-end single-path federation of Gu et al. It
//     federates one service chain optimally, but a DAG requirement is beyond
//     it: it only covers the main (longest) source-to-sink chain and ignores
//     every service off that chain, which is why the paper measures it with
//     the lowest correctness.
//
// Unlike sFlow and the baseline, Random and Fixed use only direct service
// links — they never route a stream through a bridging instance.
package control

import (
	"errors"
	"fmt"
	"math/rand"

	"sflow/internal/abstract"
	"sflow/internal/baseline"
	"sflow/internal/flow"
	"sflow/internal/overlay"
	"sflow/internal/qos"
	"sflow/internal/require"
)

// ErrInfeasible is returned when an algorithm cannot place every service.
var ErrInfeasible = errors.New("control: no feasible placement")

// Result is the outcome of a control algorithm.
type Result struct {
	// Flow carries the chosen assignments, and the realised streams when
	// Complete is true.
	Flow *flow.Graph
	// Metric is the end-to-end quality (qos.Unreachable when incomplete).
	Metric qos.Metric
	// Complete reports whether every required service and stream was
	// realised. ServicePath on a DAG requirement is never complete.
	Complete bool
}

// Random places every service on a uniformly random instance among those all
// already-placed upstream services can feed directly. The rng makes runs
// reproducible.
func Random(ag *abstract.Graph, src int, rng *rand.Rand) (*Result, error) {
	return place(ag, src, func(sid int, feasible []int, assign map[int]int) int {
		return feasible[rng.Intn(len(feasible))]
	})
}

// Fixed places every service on the instance whose incoming direct links
// from the already-placed upstream services have the highest bottleneck
// bandwidth. As the paper describes it, the fixed algorithm looks at
// bandwidth only — it is blind to latency (ties break on the lower NID).
func Fixed(ag *abstract.Graph, src int) (*Result, error) {
	ov := ag.Overlay()
	req := ag.Requirement()
	return place(ag, src, func(sid int, feasible []int, assign map[int]int) int {
		best := -1
		var bestBW int64 = -1
		for _, nid := range feasible {
			bw := qos.InfBandwidth
			for _, up := range req.Upstream(sid) {
				// Upstream assignment is always present: place
				// walks in topological order.
				lm, ok := ov.LinkMetric(assign[up], nid)
				if !ok {
					bw = 0
					break
				}
				if lm.Bandwidth < bw {
					bw = lm.Bandwidth
				}
			}
			if bw > bestBW {
				best, bestBW = nid, bw
			}
		}
		if best == -1 {
			return feasible[0]
		}
		return best
	})
}

// place walks the requirement in topological order; at each service it
// computes the feasible instances (all upstream direct links exist) and asks
// choose to pick one. It then realises the result over direct links.
func place(ag *abstract.Graph, src int, choose func(sid int, feasible []int, assign map[int]int) int) (*Result, error) {
	req := ag.Requirement()
	ov := ag.Overlay()
	if got := ov.SIDOf(src); got != req.Source() {
		return nil, fmt.Errorf("control: source instance %d provides service %d, requirement starts at %d",
			src, got, req.Source())
	}
	assign := map[int]int{req.Source(): src}
	for _, sid := range req.TopoOrder() {
		if sid == req.Source() {
			continue
		}
		var feasible []int
		upstream := req.Upstream(sid)
		for _, nid := range ag.Slots(sid) {
			ok := true
			for _, up := range upstream {
				if _, direct := ov.LinkMetric(assign[up], nid); !direct {
					ok = false
					break
				}
			}
			if ok {
				feasible = append(feasible, nid)
			}
		}
		if len(feasible) == 0 {
			return nil, fmt.Errorf("%w: service %d has no directly reachable instance", ErrInfeasible, sid)
		}
		assign[sid] = choose(sid, feasible, assign)
	}
	fg, err := realizeDirect(ov, req, assign)
	if err != nil {
		return nil, fmt.Errorf("control: realise: %w", err)
	}
	return &Result{Flow: fg, Metric: fg.Quality(req), Complete: true}, nil
}

// realizeDirect materialises an assignment using only direct service links.
func realizeDirect(ov *overlay.Overlay, req *require.Requirement, assign map[int]int) (*flow.Graph, error) {
	fg := flow.New()
	for sid, nid := range assign {
		if err := fg.Assign(sid, nid); err != nil {
			return nil, err
		}
	}
	for _, e := range req.Edges() {
		from, to := assign[e[0]], assign[e[1]]
		m, ok := ov.LinkMetric(from, to)
		if !ok {
			return nil, fmt.Errorf("no direct link %d->%d for edge %d->%d", from, to, e[0], e[1])
		}
		if err := fg.AddEdge(flow.Edge{
			FromSID: e[0], ToSID: e[1],
			FromNID: from, ToNID: to,
			Path:   []int{from, to},
			Metric: m,
		}); err != nil {
			return nil, err
		}
	}
	return fg, nil
}

// ServicePath runs the end-to-end single-path federation. On a path-shaped
// requirement it is exact (it is the baseline algorithm). On any other
// requirement it federates only the main chain — the longest source-to-sink
// path of the requirement DAG — and reports an incomplete result.
func ServicePath(ag *abstract.Graph, src int) (*Result, error) {
	req := ag.Requirement()
	if req.Shape() == require.ShapePath {
		r, err := baseline.Solve(ag, src, nil)
		if err != nil {
			return nil, fmt.Errorf("control: service path: %w", err)
		}
		return &Result{Flow: r.Flow, Metric: r.Metric, Complete: true}, nil
	}
	chain := mainChain(req)
	if len(chain) < 2 {
		return nil, fmt.Errorf("%w: no source-to-sink chain", ErrInfeasible)
	}
	r, err := baseline.SolveChain(ag, chain, src, nil)
	if err != nil {
		return nil, fmt.Errorf("control: service path: %w", err)
	}
	// The off-chain services stay unplaced; the result cannot satisfy the
	// full requirement.
	return &Result{Flow: r.Flow, Metric: qos.Unreachable, Complete: false}, nil
}

// mainChain returns the longest (most hops) source-to-sink path of the
// requirement, deterministically.
func mainChain(req *require.Requirement) []int {
	hops := req.CriticalPath(func(u, v int) int64 { return 1 })
	if hops == nil {
		return nil
	}
	hopsOf := func(sid int) int64 { return hops[req.Index(sid)] }
	// Pick the sink with the most hops (ties: smaller SID); unreached
	// services read -1.
	bestSink, bestHops := -1, int64(-1)
	for _, s := range req.Sinks() {
		if h := hopsOf(s); h > bestHops {
			bestSink, bestHops = s, h
		}
	}
	if bestSink < 0 {
		return nil
	}
	// Walk backwards along predecessors that realise the hop count.
	chain := []int{bestSink}
	cur := bestSink
	for cur != req.Source() {
		next := -1
		for _, p := range req.Upstream(cur) {
			if hopsOf(p) == hopsOf(cur)-1 {
				next = p
				break // Upstream is sorted: smallest SID wins ties
			}
		}
		if next < 0 {
			return nil
		}
		chain = append(chain, next)
		cur = next
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}
