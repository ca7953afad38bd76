package require

import (
	"fmt"
	"math/rand"
)

// GeneratePath returns a chain requirement over services 1..n.
func GeneratePath(n int) (*Requirement, error) {
	if n < 2 {
		return nil, fmt.Errorf("require: path length %d < 2", n)
	}
	sids := make([]int, n)
	for i := range sids {
		sids[i] = i + 1
	}
	return NewPath(sids...)
}

// GenerateDisjoint returns a requirement of `branches` vertex-disjoint chains
// from a common source to a common sink (Fig 3 of the paper). Each branch
// has a length drawn uniformly from [minLen, maxLen] intermediate services.
func GenerateDisjoint(rng *rand.Rand, branches, minLen, maxLen int) (*Requirement, error) {
	if branches < 2 {
		return nil, fmt.Errorf("require: need >= 2 branches, got %d", branches)
	}
	if minLen < 1 || maxLen < minLen {
		return nil, fmt.Errorf("require: bad branch length range [%d,%d]", minLen, maxLen)
	}
	var edges [][2]int
	src := 1
	next := 2
	var branchEnds []int
	for b := 0; b < branches; b++ {
		length := minLen + rng.Intn(maxLen-minLen+1)
		prev := src
		for i := 0; i < length; i++ {
			edges = append(edges, [2]int{prev, next})
			prev = next
			next++
		}
		branchEnds = append(branchEnds, prev)
	}
	sink := next
	for _, e := range branchEnds {
		edges = append(edges, [2]int{e, sink})
	}
	return Build(nil, edges)
}

// GenerateSplitMerge returns a diamond-style requirement: a chain of `lead`
// services, then a split into `branches` parallel chains of one service each,
// a merge, and a chain of `tail` services (the split-and-merge topology of
// Fig 8).
func GenerateSplitMerge(lead, branches, tail int) (*Requirement, error) {
	if branches < 2 {
		return nil, fmt.Errorf("require: need >= 2 branches, got %d", branches)
	}
	if lead < 1 || tail < 1 {
		return nil, fmt.Errorf("require: lead and tail must be >= 1")
	}
	var edges [][2]int
	next := 1
	prev := next
	next++
	for i := 1; i < lead; i++ {
		edges = append(edges, [2]int{prev, next})
		prev = next
		next++
	}
	split := prev
	merge := next + branches
	for b := 0; b < branches; b++ {
		mid := next
		next++
		edges = append(edges, [2]int{split, mid}, [2]int{mid, merge})
	}
	prev = merge
	next = merge + 1
	for i := 0; i < tail; i++ {
		edges = append(edges, [2]int{prev, next})
		prev = next
		next++
	}
	return Build(nil, edges)
}

// GenerateTree returns a service multicast tree over services 1..n: every
// service except the root consumes exactly one earlier service, and leaves
// are sinks (the tree form of service federation the paper discusses, where
// one source serves several consumer groups). maxFanout bounds each
// service's out-degree (0 = unbounded).
func GenerateTree(rng *rand.Rand, n, maxFanout int) (*Requirement, error) {
	if n < 2 {
		return nil, fmt.Errorf("require: tree needs >= 2 services, got %d", n)
	}
	outDeg := make([]int, n+1)
	edges := make([][2]int, 0, n-1)
	for s := 2; s <= n; s++ {
		parent := 1 + rng.Intn(s-1)
		for maxFanout > 0 && outDeg[parent] >= maxFanout {
			parent = 1 + rng.Intn(s-1)
		}
		outDeg[parent]++
		edges = append(edges, [2]int{parent, s})
	}
	return Build(nil, edges)
}

// DAGConfig controls GenerateDAG.
type DAGConfig struct {
	// Services is the number of required services (>= 3).
	Services int
	// EdgeProb is the probability of each admissible forward edge beyond
	// the connecting backbone (0 keeps a near-tree, 1 densifies fully).
	EdgeProb float64
	// MaxFan bounds both in- and out-degree (0 = unbounded).
	MaxFan int
}

// GenerateDAG returns a random general requirement over services 1..n with a
// single source and a single sink: services are arranged in a random
// topological line; each service (except the first) consumes at least one
// earlier service; extra forward edges appear with probability EdgeProb;
// services with no consumer are wired to the final (sink) service.
func GenerateDAG(rng *rand.Rand, cfg DAGConfig) (*Requirement, error) {
	n := cfg.Services
	if n < 3 {
		return nil, fmt.Errorf("require: need >= 3 services for a general DAG, got %d", n)
	}
	if cfg.EdgeProb < 0 || cfg.EdgeProb > 1 {
		return nil, fmt.Errorf("require: EdgeProb %v out of [0,1]", cfg.EdgeProb)
	}
	fanOK := func(deg int) bool { return cfg.MaxFan == 0 || deg < cfg.MaxFan }
	// The graph is tracked here and built once at the end: degrees and an
	// adjacency matrix over services 1..n.
	outDeg, inDeg := make([]int, n+1), make([]int, n+1)
	has := make([]bool, (n+1)*(n+1))
	var edges [][2]int
	add := func(a, b int) {
		edges = append(edges, [2]int{a, b})
		outDeg[a]++
		inDeg[b]++
		has[a*(n+1)+b] = true
	}
	// Backbone: each service after the first consumes one random earlier
	// service (keeps everything reachable from service 1, the source).
	for s := 2; s <= n; s++ {
		from := 1 + rng.Intn(s-1)
		for !fanOK(outDeg[from]) {
			from = 1 + rng.Intn(s-1)
		}
		add(from, s)
	}
	// Extra forward edges.
	for a := 1; a < n; a++ {
		for b := a + 1; b <= n; b++ {
			if has[a*(n+1)+b] {
				continue
			}
			if !fanOK(outDeg[a]) || !fanOK(inDeg[b]) {
				continue
			}
			if rng.Float64() < cfg.EdgeProb {
				add(a, b)
			}
		}
	}
	// Funnel every dangling sink (other than n) into n so the requirement
	// has a single sink, matching the paper's examples.
	for s := 1; s < n; s++ {
		if outDeg[s] == 0 {
			add(s, n)
		}
	}
	return Build(nil, edges)
}
