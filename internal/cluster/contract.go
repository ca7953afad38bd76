// Contracted hierarchical routing for large overlays.
//
// The classic Federate in this package prices cluster pairs from a full
// all-pairs table and clusters by k-medoids over per-node shortest-latency
// runs — both O(N·Dijkstra), which defeats the point on a 50k-node overlay.
// The contracted path replaces them with machinery whose cost scales with
// edges and clusters, not nodes:
//
//   - BuildBFS clusters the overlay with one multi-source BFS from k evenly
//     spaced seeds — O(V+E), deterministic.
//   - Contract collapses the overlay into a k-node cluster digraph (the best
//     boundary link per ordered cluster pair) implementing qos.Graph, so
//     inter-cluster routing is a shortest-widest run over k nodes.
//   - FederateContracted picks one hosting cluster per required service on
//     the contracted graph, then solves the instance-level problem inside
//     the union of the chosen clusters over a lazy demand-driven table —
//     the only per-node routing that ever runs is for the slot rows of the
//     few clusters that won.
package cluster

import (
	"fmt"
	"sort"

	"sflow/internal/abstract"
	"sflow/internal/overlay"
	"sflow/internal/qos"
	"sflow/internal/reduce"
	"sflow/internal/require"
)

// BuildBFS partitions the overlay into (at most) k clusters with one
// multi-source BFS over the undirected view of the link graph, seeded at k
// evenly spaced NIDs of the sorted node list. Nodes unreachable from every
// seed join cluster 0. Deterministic: the frontier is processed in insertion
// order and neighbors are visited ascending. O(V + E), no routing.
func BuildBFS(ov *overlay.Overlay, k int) (*Clustering, error) {
	nodes := ov.Nodes()
	if k < 1 || k > len(nodes) {
		return nil, fmt.Errorf("cluster: k=%d out of range [1,%d]", k, len(nodes))
	}
	seeds := make([]int, k)
	for i := range seeds {
		seeds[i] = nodes[i*len(nodes)/k]
	}
	member := make(map[int]int, len(nodes))
	queue := make([]int, 0, len(nodes))
	for ci, s := range seeds {
		if _, ok := member[s]; !ok {
			member[s] = ci
			queue = append(queue, s)
		}
	}
	neighbors := make([]int, 0, 16)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		neighbors = neighbors[:0]
		for _, a := range ov.Out(u) {
			neighbors = append(neighbors, a.To)
		}
		for _, a := range ov.In(u) {
			neighbors = append(neighbors, a.To)
		}
		sort.Ints(neighbors)
		for _, v := range neighbors {
			if _, ok := member[v]; !ok {
				member[v] = member[u]
				queue = append(queue, v)
			}
		}
	}
	for _, n := range nodes {
		if _, ok := member[n]; !ok {
			member[n] = 0
		}
	}
	return &Clustering{Medoids: seeds, Member: member}, nil
}

// ClusterGraph is the contracted digraph of a clustering: one node per
// cluster id, and for every ordered cluster pair connected by at least one
// boundary link, one arc labelled with the best such link (widest bandwidth,
// then lowest latency). It implements qos.Graph, so the shortest-widest
// machinery routes over it unchanged.
type ClusterGraph struct {
	nodes []int
	out   [][]qos.Arc
}

// Contract collapses ov along cl. O(E); deterministic (the per-pair best is
// order-independent and out-arc lists are sorted by destination cluster).
func Contract(ov *overlay.Overlay, cl *Clustering) *ClusterGraph {
	k := len(cl.Medoids)
	best := make([]map[int]qos.Metric, k)
	for _, l := range ov.Links() {
		a, b := cl.Member[l.From], cl.Member[l.To]
		if a == b {
			continue
		}
		if best[a] == nil {
			best[a] = make(map[int]qos.Metric)
		}
		m := qos.Metric{Bandwidth: l.Bandwidth, Latency: l.Latency}
		if cur, ok := best[a][b]; !ok || m.Better(cur) {
			best[a][b] = m
		}
	}
	g := &ClusterGraph{nodes: make([]int, k), out: make([][]qos.Arc, k)}
	for c := 0; c < k; c++ {
		g.nodes[c] = c
		for to, m := range best[c] {
			g.out[c] = append(g.out[c], qos.Arc{To: to, Bandwidth: m.Bandwidth, Latency: m.Latency})
		}
		sort.Slice(g.out[c], func(i, j int) bool { return g.out[c][i].To < g.out[c][j].To })
	}
	return g
}

// Nodes implements qos.Graph: the cluster ids, ascending.
func (g *ClusterGraph) Nodes() []int { return g.nodes }

// Out implements qos.Graph: the contracted out-arcs of a cluster. The
// returned slice must not be modified.
func (g *ClusterGraph) Out(u int) []qos.Arc {
	if u < 0 || u >= len(g.out) {
		return nil
	}
	return g.out[u]
}

// FederateContracted is the large-overlay hierarchical federation: BFS
// clustering, cluster-level service placement routed on the contracted
// digraph, then an instance-level solve inside the union of the chosen
// clusters over a lazy table. workers bounds the slot-row prefetch fan-out
// of that final solve (<= 0 means GOMAXPROCS).
//
// The total routing work is O(E) clustering + k-node inter-cluster runs +
// one shortest-widest row per slot instance of the chosen clusters — nothing
// scales with the overlay's node count. The trade is fidelity: cluster pairs
// are priced by their single best boundary link rather than true best
// member-pair routes, so the chosen clusters (and hence the flow) may differ
// from classic Federate's; the returned flow is still a valid federation
// with exact instance-level routes.
func FederateContracted(ov *overlay.Overlay, req *require.Requirement, src, k, workers int) (*Result, error) {
	if got := ov.SIDOf(src); got != req.Source() {
		return nil, fmt.Errorf("cluster: source instance %d provides service %d, requirement starts at %d",
			src, got, req.Source())
	}
	cl, err := BuildBFS(ov, k)
	if err != nil {
		return nil, err
	}
	cg := Contract(ov, cl)

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

	// Inter-cluster quality from shortest-widest runs over the k-node
	// contracted graph, one memoized row per source cluster actually used.
	rows := make(map[int]*qos.Result)
	frozen, sc := qos.FreezeGraph(cg), qos.NewScratch()
	clusterMetric := func(a, b int) qos.Metric {
		if a == b {
			return qos.Empty
		}
		row, ok := rows[a]
		if !ok {
			row = qos.ShortestWidestCSR(frozen, a, sc)
			rows[a] = row
		}
		return row.Metric(b)
	}

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

	// Instance-level solve inside the chosen clusters plus the corridor
	// clusters the inter-cluster routes pass through — without the corridors
	// two chosen clusters can be adjacent on the contracted graph only via
	// clusters that host no slot, and the expanded sub-overlay would
	// disconnect them. Expansion stays lazy: the sub-overlay keeps every
	// member of a kept cluster (relays stay available), but only slot rows
	// are ever routed.
	keep := make(map[int]bool)
	for _, cid := range chosen {
		keep[cid] = true
	}
	for _, sid := range req.TopoOrder() {
		for _, up := range req.Upstream(sid) {
			a, b := chosen[up], chosen[sid]
			if a == b {
				continue
			}
			row, ok := rows[a]
			if !ok {
				row = qos.ShortestWidestCSR(frozen, a, sc)
				rows[a] = row
			}
			for _, cid := range row.PathTo(b) {
				keep[cid] = true
			}
		}
	}
	sub := overlay.New()
	for _, inst := range ov.Instances() {
		if keep[cl.Member[inst.NID]] {
			if err := sub.AddInstance(inst.NID, inst.SID, inst.Host); err != nil {
				return nil, err
			}
		}
	}
	for _, l := range ov.Links() {
		if keep[cl.Member[l.From]] && keep[cl.Member[l.To]] {
			if err := sub.AddLink(l.From, l.To, l.Bandwidth, l.Latency); err != nil {
				return nil, err
			}
		}
	}
	r, err := solveLazy(sub, req, src, workers)
	if err != nil {
		// The contracted expansion can prove infeasible even when the full
		// overlay is not: clustering walks the undirected link view, so a
		// kept corridor cluster guarantees undirected connectivity only — a
		// DIRECTED instance-level route may thread clusters that host no
		// slot and lie on no contracted path. Escalate to the whole overlay
		// rather than fail: the table stays demand-driven (only slot rows
		// route), so the fallback costs one lazy solve, and the contracted
		// machinery still did its job as a placement guide.
		r, err = solveLazy(ov, req, src, workers)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
		}
	}
	return &Result{Flow: r.Flow, Metric: r.Metric, ClusterOf: chosen, K: len(cl.Medoids)}, nil
}

// solveLazy runs the instance-level federation over ov with a demand-driven
// table: one shortest-widest row per slot source, nothing proportional to the
// overlay's node count.
func solveLazy(ov *overlay.Overlay, req *require.Requirement, src, workers int) (*reduce.Result, error) {
	ag, err := abstract.BuildWith(ov, req, qos.Options{Lazy: true, Workers: workers})
	if err != nil {
		return nil, err
	}
	return reduce.Solve(ag, src, nil)
}
