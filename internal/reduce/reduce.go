// Package reduce implements the reduction heuristics of Sec 3.4 that extend
// the polynomial baseline algorithm from single service paths to general DAG
// requirements:
//
//   - Path reduction decomposes the requirement into maximal single-path
//     fragments (chains) between junction services — the services where
//     streams split or merge, plus the source and the sinks.
//   - Split-and-merge reduction treats the parallel chains between a
//     splitting and a merging junction as one edge between the junctions:
//     as wide as their narrowest, as slow as their slowest.
//
// Solve combines the two: the requirement collapses to its junction
// skeleton, junction instances are chosen by bounded exhaustive search over
// the skeleton (greedy topological scoring beyond the bound), and with all
// junctions fixed every fragment's optimal path, from the baseline's layered
// DP, joins the final service flow graph. As the paper notes, the reductions
// are best-effort heuristics — the underlying problem is NP-complete
// (Theorem 1) — but each fragment is individually optimal.
package reduce

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"sflow/internal/abstract"
	"sflow/internal/baseline"
	"sflow/internal/flow"
	"sflow/internal/qos"
	"sflow/internal/require"
)

// ErrInfeasible is returned when no instance assignment connects the
// requirement under the heuristic's choices.
var ErrInfeasible = errors.New("reduce: no feasible service flow graph")

// Chain is one single-path fragment of a requirement produced by path
// reduction: From and To are junction services, Via the intermediate
// (non-junction) services in order.
type Chain struct {
	From, To int
	Via      []int
}

// Services returns the full service chain including both junctions.
func (c Chain) Services() []int {
	out := append(make([]int, 0, len(c.Via)+2), c.From)
	return append(append(out, c.Via...), c.To)
}

// PathReduction decomposes a validated requirement into its chain fragments
// between junctions. Every requirement edge belongs to exactly one chain;
// every non-junction service appears in exactly one chain's Via list. The
// result is sorted by (From, To, first Via).
func PathReduction(req *require.Requirement) []Chain {
	junctions := req.Junctions()
	junction := make(map[int]bool, len(junctions))
	for _, j := range junctions {
		junction[j] = true
	}
	var chains []Chain
	for _, j := range junctions {
		for _, next := range req.Downstream(j) {
			c := Chain{From: j}
			for ; !junction[next]; next = req.Downstream(next)[0] { // non-junction: out-degree exactly 1
				c.Via = append(c.Via, next)
			}
			c.To = next
			chains = append(chains, c)
		}
	}
	slices.SortFunc(chains, func(a, b Chain) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To), cmp.Compare(firstVia(a), firstVia(b)))
	})
	return chains
}

func firstVia(c Chain) int {
	if len(c.Via) == 0 {
		return -1
	}
	return c.Via[0]
}

// Result is the outcome of the reduction-based heuristic.
type Result struct {
	// Flow is the computed service flow graph.
	Flow *flow.Graph
	// Metric is its end-to-end quality.
	Metric qos.Metric
	// Junctions records the instances chosen for the junction services.
	Junctions map[int]int
}

// maxJunctionCombos bounds the exhaustive search over junction instance
// combinations; above this the solver falls back to the greedy scorer.
// Chain interiors are never enumerated — each fragment is solved by the
// polynomial baseline — so the bound only concerns the junction skeleton.
const maxJunctionCombos = 50_000

// Solve computes a service flow graph for an arbitrary requirement using the
// reduction heuristics. src is the designated instance of the source
// service; pins (optional) force instances for specific services and take
// precedence over the heuristic's own junction choices.
//
// Junction services are assigned first: when the combination space is small
// (the common case — requirements have few junctions), every combination is
// scored under branch-and-bound, which makes the result bandwidth-optimal
// given that each fragment is realised by its own shortest-widest solution.
// Large skeletons fall back to a greedy topological scorer. Chain metrics are
// memoized per (chain, tail instance): one layered-DP sweep answers every
// head instance. The flow is assembled once, for the chosen junctions.
func Solve(ag *abstract.Graph, src int, pins map[int]int) (*Result, error) {
	req := ag.Requirement()
	if got := ag.Overlay().SIDOf(src); got != req.Source() {
		return nil, fmt.Errorf("reduce: source instance %d provides service %d, requirement starts at %d",
			src, got, req.Source())
	}
	s := newSolver(ag, src, pins)
	defer func() {
		for _, l := range s.lay {
			baseline.Put(l)
		}
	}()
	search := s.greedyJunctions
	if s.combos <= maxJunctionCombos {
		search = s.exhaustiveJunctions
	}
	chosen, err := search()
	if err != nil {
		return nil, err
	}
	fg := flow.New()
	junctions := make(map[int]int, len(s.order))
	for i, sid := range s.order {
		junctions[sid] = s.cands[i][chosen[i]]
	}
	for ci, c := range s.chains {
		l := s.lay[ci]
		err := l.From(junctions[c.From])
		if err == nil {
			err = l.Flow(fg, chosen[s.ends[ci][1]])
		}
		if err != nil {
			return nil, fmt.Errorf("%w: fragment %d->%d: %v", ErrInfeasible, c.From, c.To, err)
		}
	}
	m := fg.Quality(req)
	if !m.Reachable() {
		return nil, ErrInfeasible
	}
	return &Result{Flow: fg, Metric: m, Junctions: junctions}, nil
}

// solver carries the state of one reduction solve. Junctions are numbered by
// their place in topological order, their instances by slot: the index among
// the junction's candidates.
type solver struct {
	chains []Chain
	order  []int    // junction services, in topological order
	cands  [][]int  // per junction, its candidate instances
	in     [][]int  // per junction, the chains ending there
	ends   [][2]int // per chain, its From and To junctions
	combos int      // junction combinations, counted up to maxJunctionCombos
	lay    []*baseline.Layered
	// memo[off[ci]+j*len(cands[To])+k] is chain ci's metric from slot j of
	// its From to slot k of its To; Bandwidth -1 until that row is swept.
	memo []qos.Metric
	off  []int
	dist []int64 // per junction, comboMetric's critical-path latency
}

func newSolver(ag *abstract.Graph, src int, pins map[int]int) *solver {
	req := ag.Requirement()
	s := &solver{chains: PathReduction(req), combos: 1}
	junctions := req.Junctions()
	for _, sid := range req.TopoOrder() {
		if slices.Contains(junctions, sid) {
			s.order = append(s.order, sid)
		}
	}
	s.cands, s.in, s.dist = make([][]int, len(s.order)), make([][]int, len(s.order)), make([]int64, len(s.order))
	for i, sid := range s.order {
		// Abstract graphs check every required service has an instance.
		nid, pinned := pins[sid]
		switch {
		case sid == req.Source():
			s.cands[i] = []int{src}
		case pinned:
			s.cands[i] = []int{nid}
		default:
			s.cands[i] = ag.Slots(sid)
		}
		if s.combos <= maxJunctionCombos {
			s.combos *= len(s.cands[i])
		}
	}
	s.ends, s.off = make([][2]int, len(s.chains)), make([]int, len(s.chains)+1)
	for ci, c := range s.chains {
		from, to := slices.Index(s.order, c.From), slices.Index(s.order, c.To)
		s.ends[ci] = [2]int{from, to}
		s.in[to] = append(s.in[to], ci)
		s.lay = append(s.lay, baseline.Get())
		s.lay[ci].Reset(ag, c.Services(), pins)
		s.off[ci+1] = s.off[ci] + len(s.cands[from])*len(s.cands[to])
	}
	s.memo = make([]qos.Metric, s.off[len(s.chains)])
	for i := range s.memo {
		s.memo[i].Bandwidth = -1
	}
	return s
}

// chainMetric returns the optimal metric of chain ci from slot j of its From
// junction to slot k of its To junction (Unreachable when infeasible). The
// first probe of a (ci, j) row sweeps the whole row.
func (s *solver) chainMetric(ci, j, k int) qos.Metric {
	n := len(s.cands[s.ends[ci][1]])
	row := s.memo[s.off[ci]+j*n:][:n]
	if row[0].Bandwidth < 0 {
		clear(row) // Unreachable where From fails
		if s.lay[ci].From(s.cands[s.ends[ci][0]][j]) == nil {
			s.lay[ci].Metrics(row)
		}
	}
	return row[k]
}

// inMetric scores slot k of junction i against the chains ending there,
// whose tails assign has placed: their narrowest width and their largest
// latency, Unreachable as soon as one is infeasible.
func (s *solver) inMetric(i, k int, assign []int) qos.Metric {
	m := qos.Empty
	for _, ci := range s.in[i] {
		c := s.chainMetric(ci, assign[s.ends[ci][0]], k)
		if !c.Reachable() {
			return qos.Unreachable
		}
		m = qos.Metric{Bandwidth: min(m.Bandwidth, c.Bandwidth), Latency: max(m.Latency, c.Latency)}
	}
	return m
}

// exhaustiveJunctions enumerates every junction combination in topological
// order with branch-and-bound on the running bottleneck width and returns
// the best, a slot per junction.
func (s *solver) exhaustiveJunctions() ([]int, error) {
	assign := make([]int, len(s.order))
	var best []int
	bestMetric := qos.Unreachable
	var walk func(i int, width int64)
	walk = func(i int, width int64) {
		if i == len(s.order) {
			if m := s.comboMetric(assign, width); best == nil || m.Better(bestMetric) {
				bestMetric, best = m, append(best[:0], assign...)
			}
			return
		}
		for k := range s.cands[i] {
			in := s.inMetric(i, k, assign)
			if w := min(width, in.Bandwidth); in.Reachable() && (best == nil || w >= bestMetric.Bandwidth) {
				assign[i] = k
				walk(i+1, w)
			}
		}
	}
	walk(0, qos.InfBandwidth)
	if best == nil {
		return nil, fmt.Errorf("%w: no junction combination connects the requirement", ErrInfeasible)
	}
	return best, nil
}

// comboMetric evaluates a complete junction assignment whose chains are all
// feasible: width is their accumulated bottleneck, the latency the critical
// path over the junction skeleton. Junctions come in topological order, so
// one pass settles every path.
func (s *solver) comboMetric(assign []int, width int64) qos.Metric {
	var worst int64
	for i := range s.order {
		s.dist[i] = 0
		for _, ci := range s.in[i] {
			from := s.ends[ci][0]
			s.dist[i] = max(s.dist[i], s.dist[from]+s.chainMetric(ci, assign[from], assign[i]).Latency)
		}
		worst = max(worst, s.dist[i])
	}
	return qos.Metric{Bandwidth: width, Latency: worst}
}

// greedyJunctions is the fallback for huge junction skeletons: junctions are
// assigned in topological order, each scored by exactly solving its incoming
// chain fragments.
func (s *solver) greedyJunctions() ([]int, error) {
	chosen := make([]int, len(s.order))
	for i := 1; i < len(s.order); i++ {
		best, bestScore := -1, qos.Unreachable
		for k := range s.cands[i] {
			if score := s.inMetric(i, k, chosen); score.Reachable() && (best == -1 || score.Better(bestScore)) {
				best, bestScore = k, score
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("%w: no instance of junction service %d is reachable", ErrInfeasible, s.order[i])
		}
		chosen[i] = best
	}
	return chosen, nil
}
