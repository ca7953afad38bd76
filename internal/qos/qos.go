// Package qos implements quality-of-service routing on weighted directed
// graphs, specifically the shortest-widest path algorithm of Wang and
// Crowcroft (JSAC 1996) that the paper adopts: among all paths, select the
// one with the greatest bottleneck bandwidth (the widest path), and among
// equally wide paths, the one with the smallest total latency (the shortest).
//
// The computation is two-phase, as in the original algorithm. A single
// lexicographic Dijkstra is not correct here: a prefix that is narrower but
// much shorter can still yield the shortest path among the widest ones when a
// later link lowers the bottleneck anyway. Phase one is a max-bottleneck
// Dijkstra that finds each node's achievable width; phase two is a
// latency-only Dijkstra restricted, per width class, to links at least that
// wide.
//
// Bandwidth is in Kbit/s and latency in microseconds, both int64, so the
// quality order is exact.
package qos

import (
	"math"

	"sflow/internal/metrics"
)

// InfBandwidth is the bandwidth of the empty path: wider than any link.
const InfBandwidth int64 = math.MaxInt64

// Arc is one weighted out-edge of a graph node.
type Arc struct {
	To        int
	Bandwidth int64 // Kbit/s, must be > 0 for a usable link
	Latency   int64 // microseconds, must be >= 0
}

// Graph is the read-only view of a weighted digraph that routing operates on.
// Nodes must return identifiers in a deterministic order; Out must return the
// out-arcs of a node in a deterministic order.
type Graph interface {
	Nodes() []int
	Out(u int) []Arc
}

// Metric is the quality of a path: bottleneck bandwidth and total latency.
// The zero value (Bandwidth 0) means "unreachable".
type Metric struct {
	Bandwidth int64
	Latency   int64
}

// Unreachable is the metric of a non-existent path.
var Unreachable = Metric{}

// Empty is the metric of the empty path (a node to itself).
var Empty = Metric{Bandwidth: InfBandwidth}

// Reachable reports whether m describes an actual path.
func (m Metric) Reachable() bool { return m.Bandwidth > 0 }

// Better reports whether m is strictly better than o in the shortest-widest
// order: wider wins; at equal width, lower latency wins.
func (m Metric) Better(o Metric) bool {
	if m.Bandwidth != o.Bandwidth {
		return m.Bandwidth > o.Bandwidth
	}
	return m.Latency < o.Latency
}

// Extend returns the metric of a path with quality m extended by one link of
// the given bandwidth and latency.
func (m Metric) Extend(bw, lat int64) Metric {
	return Metric{Bandwidth: min64(m.Bandwidth, bw), Latency: m.Latency + lat}
}

// Concat returns the metric of the concatenation of two paths.
func (m Metric) Concat(o Metric) Metric {
	if !m.Reachable() || !o.Reachable() {
		return Unreachable
	}
	return Metric{Bandwidth: min64(m.Bandwidth, o.Bandwidth), Latency: m.Latency + o.Latency}
}

// instr caches the counter handles of one instrumented routing computation.
// The zero value (nil handles) is the uninstrumented fast path: hot loops
// accumulate into locals and the publishing Adds below are nil-check no-ops.
type instr struct {
	runs, relaxations *metrics.Counter
}

// instrFor resolves the qos counter handles once per computation; reg may be
// nil.
func instrFor(reg *metrics.Registry) instr {
	if reg == nil {
		return instr{}
	}
	return instr{
		runs:        reg.Counter("qos_shortest_widest_runs_total"),
		relaxations: reg.Counter("qos_relaxations_total"),
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
