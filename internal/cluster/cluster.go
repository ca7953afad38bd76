// Package cluster implements a hierarchical, cluster-based federation in
// the style the paper attributes to Jin and Nahrstedt: "the service overlay
// network is first organized into a cluster network. The service path
// finding algorithm is then applied hierarchically in a divide-and-conquer
// fashion."
//
// Instances are grouped into latency-based clusters (farthest-first
// k-medoids over shortest-latency distances); federation then decides at
// cluster granularity first — one cluster per required service, scored on
// summarised inter-cluster link quality — and solves the instance-level problem
// inside the union of the chosen clusters. The result is a fourth
// distributed-flavoured comparison point between the myopic fixed algorithm
// and full sFlow.
package cluster

import (
	"errors"
	"fmt"
	"sort"

	"sflow/internal/abstract"
	"sflow/internal/flow"
	"sflow/internal/overlay"
	"sflow/internal/qos"
	"sflow/internal/reduce"
	"sflow/internal/require"
)

// ErrInfeasible is returned when the cluster hierarchy cannot satisfy the
// requirement.
var ErrInfeasible = errors.New("cluster: no feasible hierarchical federation")

// Clustering is a partition of the overlay's instances.
type Clustering struct {
	// Medoids holds one representative NID per cluster, index = cluster id.
	Medoids []int
	// Member maps every NID to its cluster id.
	Member map[int]int
}

// Clusters returns the member NIDs of each cluster, ascending within each.
func (c *Clustering) Clusters() [][]int {
	out := make([][]int, len(c.Medoids))
	for nid, cid := range c.Member {
		out[cid] = append(out[cid], nid)
	}
	for _, m := range out {
		sort.Ints(m)
	}
	return out
}

// Build partitions the overlay into k latency-based clusters using
// farthest-first medoid selection: the first medoid is the lowest NID, each
// further medoid is the instance farthest (by symmetric shortest latency)
// from all chosen medoids; every instance joins its nearest medoid.
// Deterministic.
func Build(ov *overlay.Overlay, k int) (*Clustering, error) {
	nodes := ov.Nodes()
	if k < 1 || k > len(nodes) {
		return nil, fmt.Errorf("cluster: k=%d out of range [1,%d]", k, len(nodes))
	}
	// Symmetric latency distance from shortest-latency routes.
	dist := make(map[int]map[int]int64, len(nodes))
	frozen, sc := qos.FreezeGraph(ov), qos.NewScratch()
	for _, n := range nodes {
		res := qos.ShortestLatencyCSR(frozen, n, sc)
		dist[n] = make(map[int]int64, len(nodes))
		for _, m := range nodes {
			if r := res.Metric(m); r.Reachable() || n == m {
				dist[n][m] = r.Latency
			} else {
				dist[n][m] = -1 // unreachable
			}
		}
	}
	d := func(a, b int) int64 {
		ab, ba := dist[a][b], dist[b][a]
		switch {
		case ab >= 0 && ba >= 0:
			if ab < ba {
				return ab
			}
			return ba
		case ab >= 0:
			return ab
		case ba >= 0:
			return ba
		default:
			return 1 << 40 // disconnected pair: effectively infinite
		}
	}

	medoids := []int{nodes[0]}
	for len(medoids) < k {
		best, bestD := -1, int64(-1)
		for _, n := range nodes {
			taken := false
			for _, m := range medoids {
				if m == n {
					taken = true
					break
				}
			}
			if taken {
				continue
			}
			nearest := int64(1 << 62)
			for _, m := range medoids {
				if dd := d(n, m); dd < nearest {
					nearest = dd
				}
			}
			if nearest > bestD || (nearest == bestD && (best == -1 || n < best)) {
				best, bestD = n, nearest
			}
		}
		medoids = append(medoids, best)
	}
	sort.Ints(medoids)

	member := make(map[int]int, len(nodes))
	for _, n := range nodes {
		bestC, bestD := 0, int64(1<<62)
		for ci, m := range medoids {
			if dd := d(n, m); dd < bestD {
				bestC, bestD = ci, dd
			}
		}
		member[n] = bestC
	}
	return &Clustering{Medoids: medoids, Member: member}, nil
}

// Result is the outcome of a hierarchical federation.
type Result struct {
	// Flow is the computed service flow graph.
	Flow *flow.Graph
	// Metric is its end-to-end quality.
	Metric qos.Metric
	// ClusterOf records the cluster chosen for each service.
	ClusterOf map[int]int
	// K is the number of clusters used.
	K int
}

// Options tunes Federate's routing-table strategy.
type Options struct {
	// Lazy prices cluster pairs and solves the intra-cluster problem from
	// demand-driven tables instead of eager all-pairs computations: only the
	// rows the greedy assignment and the final solve actually read are ever
	// routed. The result is byte-identical to eager mode.
	Lazy bool
	// Workers bounds the lazy slot-row prefetch fan-out (<= 0 means
	// GOMAXPROCS). Ignored in eager mode.
	Workers int
}

// Federate runs the hierarchical algorithm: cluster the overlay into k
// groups, pick one cluster per required service greedily on summarised
// inter-cluster link quality, then solve the instance-level federation
// inside the chosen clusters with the reduction heuristics.
func Federate(ov *overlay.Overlay, req *require.Requirement, src int, k int) (*Result, error) {
	return FederateWith(ov, req, src, k, Options{})
}

// FederateWith is Federate with an explicit table strategy.
func FederateWith(ov *overlay.Overlay, req *require.Requirement, src int, k int, opts Options) (*Result, error) {
	if got := ov.SIDOf(src); got != req.Source() {
		return nil, fmt.Errorf("cluster: source instance %d provides service %d, requirement starts at %d",
			src, got, req.Source())
	}
	cl, err := Build(ov, k)
	if err != nil {
		return nil, err
	}

	// Clusters hosting each required service.
	hosts := make(map[int]map[int]bool) // sid -> cluster set
	for _, sid := range req.Services() {
		hosts[sid] = make(map[int]bool)
		for _, nid := range ov.InstancesOf(sid) {
			hosts[sid][cl.Member[nid]] = true
		}
		if len(hosts[sid]) == 0 {
			return nil, fmt.Errorf("%w: service %d has no instance in any cluster", ErrInfeasible, sid)
		}
	}

	// Cluster-level link quality: the best achievable metric between any
	// instance of one cluster and any instance of the other — the summary
	// a cluster head would advertise for its group. Memoised per pair.
	var ap qos.Table
	if opts.Lazy {
		ap = qos.NewLazyAllPairs(ov, nil)
	} else {
		ap = qos.ComputeAllPairs(ov)
	}
	members := cl.Clusters()
	memo := make(map[[2]int]qos.Metric)
	clusterMetric := func(a, b int) qos.Metric {
		if a == b {
			return qos.Empty
		}
		key := [2]int{a, b}
		if m, ok := memo[key]; ok {
			return m
		}
		best := qos.Unreachable
		for _, x := range members[a] {
			for _, y := range members[b] {
				if m := ap.Metric(x, y); m.Reachable() && m.Better(best) {
					best = m
				}
			}
		}
		memo[key] = best
		return best
	}

	// Greedy cluster assignment in topological order: the source's cluster
	// is fixed; each later service picks the hosting cluster with the best
	// bottleneck from its upstream services' clusters.
	chosen := map[int]int{req.Source(): cl.Member[src]}
	for _, sid := range req.TopoOrder() {
		if sid == req.Source() {
			continue
		}
		bestC := -1
		bestM := qos.Unreachable
		for cid := range hosts[sid] {
			m := qos.Empty
			for _, up := range req.Upstream(sid) {
				m = m.Concat(clusterMetric(chosen[up], cid))
				if !m.Reachable() {
					break
				}
			}
			if !m.Reachable() {
				continue
			}
			if bestC == -1 || m.Better(bestM) || (m == bestM && cid < bestC) {
				bestC, bestM = cid, m
			}
		}
		if bestC == -1 {
			return nil, fmt.Errorf("%w: no cluster reaches service %d", ErrInfeasible, sid)
		}
		chosen[sid] = bestC
	}

	// Instance-level solve inside the union of chosen clusters (keeping
	// every instance of those clusters so relays remain available).
	keep := make(map[int]bool)
	for _, cid := range chosen {
		for nid, member := range cl.Member {
			if member == cid {
				keep[nid] = true
			}
		}
	}
	sub := overlay.New()
	for _, inst := range ov.Instances() {
		if keep[inst.NID] {
			if err := sub.AddInstance(inst.NID, inst.SID, inst.Host); err != nil {
				return nil, err
			}
		}
	}
	for _, l := range ov.Links() {
		if keep[l.From] && keep[l.To] {
			if err := sub.AddLink(l.From, l.To, l.Bandwidth, l.Latency); err != nil {
				return nil, err
			}
		}
	}
	var ag *abstract.Graph
	if opts.Lazy {
		ag, err = abstract.BuildLazy(sub, req, opts.Workers, nil)
	} else {
		ag, err = abstract.Build(sub, req)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
	}
	r, err := reduce.Solve(ag, src, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
	}
	return &Result{Flow: r.Flow, Metric: r.Metric, ClusterOf: chosen, K: k}, nil
}
