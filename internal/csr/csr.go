// Package csr freezes a weighted digraph into compressed-sparse-row form:
// one contiguous offset array indexing contiguous target/bandwidth/latency
// arrays, plus a dense index <-> external-node-id mapping. The frozen form is
// immutable and cache-friendly — edge iteration is a linear scan of three
// parallel arrays instead of a walk over per-node hash maps — and is the
// substrate the dense Dijkstra kernels in internal/qos run on.
//
// The package deliberately knows nothing about the rest of the module (in
// particular it does not import internal/qos, which imports it): Freeze takes
// the node list and an arc-emitter callback, and the owning packages adapt
// their graph types to it.
package csr

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync/atomic"
)

// Arc is one out-edge in thawed (adjacency-list) form.
type Arc struct {
	To        int
	Bandwidth int64 // Kbit/s
	Latency   int64 // microseconds
}

// Graph is a weighted digraph frozen into compressed-sparse-row form. The
// exported arrays are the representation itself — hot loops index them
// directly — and must be treated as read-only: the whole point of freezing is
// that kernels may assume the topology cannot drift under them.
//
// Node i's out-arcs occupy positions Off[i] .. Off[i+1] of the parallel
// To/BW/Lat arrays; To holds dense indexes (not external ids). IDs maps a
// dense index back to the external node identifier it froze.
//
// The node mapping (IDs, Rank, ByRank and the id -> index map behind Index)
// is immutable once a freeze returns, even across FreezeInto and SetArc: a
// re-freeze installs a new mapping or keeps the old one, it never writes into
// it.
// Values computed from a frozen graph (routing rows) may therefore keep both
// halves for as long as they live. The arc arrays carry no such promise.
type Graph struct {
	IDs []int   // dense index -> external node id, in Freeze node order
	Off []int32 // len(IDs)+1 row offsets into To/BW/Lat
	To  []int32 // arc targets as dense indexes
	BW  []int64 // arc bandwidths (Kbit/s); <= 0 means unusable, kept verbatim
	Lat []int64 // arc latencies (microseconds)

	// Rank maps a dense index to its position in ascending external-id
	// order, and ByRank is its inverse: comparing ranks orders nodes by id
	// without reading IDs. Both belong to the node mapping. A graph whose ids
	// are declared ascending has the identity here.
	Rank   []int32
	ByRank []int32

	// MinLat and MaxLat bound the latencies of the usable arcs (BW > 0),
	// computed once at freeze time. Kernel implementations use them to pick a
	// queue discipline — a bounded non-negative integer range admits a
	// monotone bucket queue. Both are zero when no usable arc exists.
	MinLat int64
	MaxLat int64

	// Gen is a process-unique freeze generation, bumped on every (re-)freeze
	// and every SetArc. FreezeInto and SetArc reuse Graph values in place, so
	// callers caching data derived from a frozen graph key their caches on
	// (pointer, Gen), not the pointer alone. Never consulted by any
	// computation — purely a cache-validity tag.
	Gen uint64

	idx map[int]int32 // external node id -> dense index
}

// freezeGen numbers freezes process-wide (see Graph.Gen).
var freezeGen atomic.Uint64

// Freeze builds the CSR form of a digraph. nodes lists the external node
// identifiers in the order that becomes the dense index order; arcs must call
// emit once per out-arc of u, in the graph's deterministic out-arc order.
// Arcs are frozen verbatim (dead bandwidths, duplicates and self-loops
// included) so the frozen graph is a faithful representation of its source.
//
// An arc target that does not appear in nodes is added as an implicit node
// with an empty out-row, indexed after every declared node in first-seen
// order. Sources whose Out is non-empty for undeclared nodes therefore
// freeze those arcs as dead ends; every graph in this module declares all
// its nodes.
func Freeze(nodes []int, arcs func(u int, emit func(to int, bw, lat int64))) *Graph {
	return FreezeInto(nil, nodes, arcs)
}

// FreezeInto is Freeze reusing the arc arrays of a previously frozen graph
// (whose arcs must no longer be in use) so steady-state re-freezes of a
// mutating graph allocate nothing once capacities have grown to fit: the
// common re-freeze changes links, not nodes, and then the node mapping is
// kept as it is. A changed node list gets a freshly allocated mapping (see
// Graph for why it is never rewritten). A nil g allocates fresh, exactly like
// Freeze.
func FreezeInto(g *Graph, nodes []int, arcs func(u int, emit func(to int, bw, lat int64))) *Graph {
	if g == nil {
		g = &Graph{}
	}
	if len(nodes) > math.MaxInt32 {
		panic(fmt.Sprintf("csr: %d nodes overflow int32 indexing", len(nodes)))
	}
	// kept: the previous mapping is still in place and possibly held by
	// others, so an implicit node must copy it before extending it.
	kept := g.idx != nil && slices.Equal(g.IDs, nodes)
	if !kept {
		g.IDs = slices.Clone(nodes)
		g.idx = make(map[int]int32, len(nodes))
		for i, id := range nodes {
			if _, dup := g.idx[id]; dup {
				panic(fmt.Sprintf("csr: duplicate node id %d", id))
			}
			g.idx[id] = int32(i)
		}
	}
	g.Off = append(g.Off[:0], 0)
	g.To = g.To[:0]
	g.BW = g.BW[:0]
	g.Lat = g.Lat[:0]
	g.MinLat = math.MaxInt64
	g.MaxLat = math.MinInt64
	emit := func(to int, bw, lat int64) {
		j, ok := g.idx[to]
		if !ok {
			if len(g.IDs) >= math.MaxInt32 {
				panic("csr: implicit nodes overflow int32 indexing")
			}
			if kept {
				g.IDs, g.idx, kept = slices.Clone(g.IDs), maps.Clone(g.idx), false
			}
			j = int32(len(g.IDs))
			g.idx[to] = j
			g.IDs = append(g.IDs, to)
		}
		if len(g.To) >= math.MaxInt32 {
			panic("csr: arc count overflows int32 indexing")
		}
		g.To = append(g.To, j)
		g.BW = append(g.BW, bw)
		g.Lat = append(g.Lat, lat)
		if bw > 0 {
			if lat < g.MinLat {
				g.MinLat = lat
			}
			if lat > g.MaxLat {
				g.MaxLat = lat
			}
		}
	}
	for _, u := range nodes {
		arcs(u, emit)
		g.Off = append(g.Off, int32(len(g.To)))
	}
	// Implicit nodes discovered during the fill get empty out-rows.
	for len(g.Off) < len(g.IDs)+1 {
		g.Off = append(g.Off, int32(len(g.To)))
	}
	if g.MinLat > g.MaxLat { // no usable arc
		g.MinLat, g.MaxLat = 0, 0
	}
	if !kept {
		g.Rank, g.ByRank = ranks(g.IDs)
	}
	g.Gen = freezeGen.Add(1)
	return g
}

// ranks returns each index's position in ascending id order and the inverse
// permutation. Ids declared ascending, the common case, skip the sort.
func ranks(ids []int) (rank, byRank []int32) {
	byRank = make([]int32, len(ids))
	for i := range byRank {
		byRank[i] = int32(i)
	}
	if !slices.IsSorted(ids) {
		slices.SortFunc(byRank, func(a, b int32) int { return cmp.Compare(ids[a], ids[b]) })
	}
	rank = make([]int32, len(ids))
	for r, i := range byRank {
		rank[i] = int32(r)
	}
	return rank, byRank
}

// Slot returns the position of arc u -> v (dense indexes) in u's out-row,
// and false when the row holds no such arc or more than one: a slot names an
// arc only while it is the row's one arc to v.
func (g *Graph) Slot(u, v int32) (int32, bool) {
	e := int32(-1)
	for i := g.Off[u]; i < g.Off[u+1]; i++ {
		if g.To[i] == v {
			if e >= 0 {
				return -1, false
			}
			e = i
		}
	}
	return e, e >= 0
}

// SetArc overwrites the bandwidth and latency of arc slot e in place: a
// bandwidth <= 0 keeps the slot as a dead arc, so a link that saturates and
// comes back reuses it. The node mapping and the arc layout are untouched.
// MinLat and MaxLat widen to cover a usable arc's latency but never narrow,
// so after a SetArc they bound the usable latencies without being tight.
// Gen moves on: data derived from the arcs must be brought up to date.
func (g *Graph) SetArc(e int32, bw, lat int64) {
	g.BW[e], g.Lat[e] = bw, lat
	if bw > 0 {
		g.MinLat = min(g.MinLat, lat)
		g.MaxLat = max(g.MaxLat, lat)
	}
	g.Gen = freezeGen.Add(1)
}

// Len returns the number of nodes (declared plus implicit).
func (g *Graph) Len() int { return len(g.IDs) }

// NumArcs returns the number of frozen arcs.
func (g *Graph) NumArcs() int { return len(g.To) }

// ID returns the external node id of dense index i.
func (g *Graph) ID(i int32) int { return g.IDs[i] }

// Index returns the dense index of external node id, and whether it exists.
func (g *Graph) Index(id int) (int32, bool) {
	i, ok := g.idx[id]
	return i, ok
}

// IndexMap returns the external id -> dense index map behind Index. It is
// read-only and, like IDs, never rewritten after the freeze that built it.
func (g *Graph) IndexMap() map[int]int32 { return g.idx }

// Nodes returns the external node ids, sorted ascending (a fresh slice).
func (g *Graph) Nodes() []int {
	out := append([]int(nil), g.IDs...)
	sort.Ints(out)
	return out
}

// Thaw expands the frozen graph back into adjacency-list form: every node
// (declared and implicit) with its out-arcs in frozen order, targets as
// external ids. Nodes with no out-arcs are present in nodes but absent from
// out. Freeze followed by Thaw reproduces the source graph exactly.
func (g *Graph) Thaw() (nodes []int, out map[int][]Arc) {
	nodes = append([]int(nil), g.IDs...)
	out = make(map[int][]Arc, len(g.IDs))
	for i := range g.IDs {
		lo, hi := g.Off[i], g.Off[i+1]
		if lo == hi {
			continue
		}
		row := make([]Arc, 0, hi-lo)
		for e := lo; e < hi; e++ {
			row = append(row, Arc{To: g.IDs[g.To[e]], Bandwidth: g.BW[e], Latency: g.Lat[e]})
		}
		out[g.IDs[i]] = row
	}
	return nodes, out
}
