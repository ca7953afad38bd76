package csr_test

import (
	"reflect"
	"testing"

	"sflow/internal/csr"
)

// adj is a minimal adjacency-list graph for driving Freeze directly.
type adj struct {
	nodes []int
	out   map[int][]csr.Arc
}

func (g adj) freeze(into *csr.Graph) *csr.Graph {
	return csr.FreezeInto(into, g.nodes, func(u int, emit func(to int, bw, lat int64)) {
		for _, a := range g.out[u] {
			emit(a.To, a.Bandwidth, a.Latency)
		}
	})
}

func TestFreezeLayout(t *testing.T) {
	g := adj{
		nodes: []int{7, 3, 50},
		out: map[int][]csr.Arc{
			7:  {{To: 3, Bandwidth: 10, Latency: 1}, {To: 50, Bandwidth: 20, Latency: 2}},
			50: {{To: 7, Bandwidth: 5, Latency: 9}},
		},
	}
	cg := g.freeze(nil)
	if cg.Len() != 3 || cg.NumArcs() != 3 {
		t.Fatalf("Len=%d NumArcs=%d, want 3 and 3", cg.Len(), cg.NumArcs())
	}
	// Index order follows the declared node order, not sorted order.
	if !reflect.DeepEqual(cg.IDs, []int{7, 3, 50}) {
		t.Fatalf("IDs = %v", cg.IDs)
	}
	if !reflect.DeepEqual(cg.Off, []int32{0, 2, 2, 3}) {
		t.Fatalf("Off = %v", cg.Off)
	}
	if !reflect.DeepEqual(cg.To, []int32{1, 2, 0}) {
		t.Fatalf("To = %v", cg.To)
	}
	if !reflect.DeepEqual(cg.BW, []int64{10, 20, 5}) || !reflect.DeepEqual(cg.Lat, []int64{1, 2, 9}) {
		t.Fatalf("BW/Lat = %v / %v", cg.BW, cg.Lat)
	}
	if got := cg.Nodes(); !reflect.DeepEqual(got, []int{3, 7, 50}) {
		t.Fatalf("Nodes = %v", got)
	}
	for i, id := range cg.IDs {
		if got := cg.ID(int32(i)); got != id {
			t.Fatalf("ID(%d) = %d, want %d", i, got, id)
		}
		if idx, ok := cg.Index(id); !ok || idx != int32(i) {
			t.Fatalf("Index(%d) = %d,%v", id, idx, ok)
		}
	}
	if _, ok := cg.Index(999); ok {
		t.Fatal("Index(999) should not exist")
	}
}

func TestFreezeKeepsDeadAndDuplicateArcs(t *testing.T) {
	g := adj{
		nodes: []int{1, 2},
		out: map[int][]csr.Arc{
			1: {
				{To: 2, Bandwidth: 0, Latency: 1},  // dead: zero bandwidth
				{To: 2, Bandwidth: -4, Latency: 2}, // dead: negative
				{To: 2, Bandwidth: 8, Latency: 3},  // duplicate pair, live
				{To: 1, Bandwidth: 5, Latency: 0},  // self-loop
			},
		},
	}
	cg := g.freeze(nil)
	if cg.NumArcs() != 4 {
		t.Fatalf("NumArcs = %d, want all 4 kept verbatim", cg.NumArcs())
	}
	_, out := cg.Thaw()
	if !reflect.DeepEqual(out[1], g.out[1]) {
		t.Fatalf("thawed row = %v, want %v", out[1], g.out[1])
	}
}

func TestFreezeImplicitTarget(t *testing.T) {
	g := adj{
		nodes: []int{1},
		out:   map[int][]csr.Arc{1: {{To: 42, Bandwidth: 3, Latency: 1}}},
	}
	cg := g.freeze(nil)
	if cg.Len() != 2 {
		t.Fatalf("Len = %d, want implicit node appended", cg.Len())
	}
	idx, ok := cg.Index(42)
	if !ok || idx != 1 {
		t.Fatalf("Index(42) = %d,%v, want 1,true", idx, ok)
	}
	// The implicit node's out-row is empty.
	if cg.Off[1] != cg.Off[2] {
		t.Fatalf("implicit row not empty: Off = %v", cg.Off)
	}
}

// TestFreezeRank pins the rank half of the mapping: each index's position in
// ascending id order over declared and implicit nodes alike, its inverse, and
// the identity for ids declared ascending.
func TestFreezeRank(t *testing.T) {
	g := adj{
		nodes: []int{7, 3, 50},
		out:   map[int][]csr.Arc{50: {{To: 5, Bandwidth: 1, Latency: 1}}},
	}
	cg := g.freeze(nil) // IDs 7, 3, 50 and the implicit 5
	if !reflect.DeepEqual(cg.Rank, []int32{2, 0, 3, 1}) || !reflect.DeepEqual(cg.ByRank, []int32{1, 3, 0, 2}) {
		t.Fatalf("Rank = %v, ByRank = %v", cg.Rank, cg.ByRank)
	}
	asc := adj{nodes: []int{1, 4, 9}, out: map[int][]csr.Arc{}}
	cg = asc.freeze(nil)
	if !reflect.DeepEqual(cg.Rank, []int32{0, 1, 2}) || !reflect.DeepEqual(cg.ByRank, []int32{0, 1, 2}) {
		t.Fatalf("ascending ids: Rank = %v, ByRank = %v", cg.Rank, cg.ByRank)
	}
}

func TestThawRoundTripWithGapsAndIsolates(t *testing.T) {
	g := adj{
		nodes: []int{100, 5, 62, 9}, // gappy ids, 9 isolated
		out: map[int][]csr.Arc{
			100: {{To: 5, Bandwidth: 1, Latency: 1}},
			5:   {{To: 62, Bandwidth: 2, Latency: 2}, {To: 100, Bandwidth: 3, Latency: 3}},
			62:  {{To: 100, Bandwidth: 4, Latency: 4}},
		},
	}
	nodes, out := g.freeze(nil).Thaw()
	if !reflect.DeepEqual(nodes, g.nodes) {
		t.Fatalf("thawed nodes = %v, want %v", nodes, g.nodes)
	}
	if !reflect.DeepEqual(out, g.out) {
		t.Fatalf("thawed out = %v, want %v", out, g.out)
	}
}

func TestFreezeIntoReusesStorage(t *testing.T) {
	big := adj{nodes: make([]int, 64), out: map[int][]csr.Arc{}}
	for i := range big.nodes {
		big.nodes[i] = i
		big.out[i] = []csr.Arc{{To: (i + 1) % 64, Bandwidth: 1, Latency: 1}}
	}
	cg := big.freeze(nil)
	toCap, offCap := cap(cg.To), cap(cg.Off)

	small := adj{
		nodes: []int{2, 4},
		out:   map[int][]csr.Arc{2: {{To: 4, Bandwidth: 7, Latency: 7}}},
	}
	cg2 := small.freeze(cg)
	if cg2 != cg {
		t.Fatal("FreezeInto must return the same Graph value")
	}
	if cap(cg2.To) != toCap || cap(cg2.Off) != offCap {
		t.Fatalf("capacities not reused: To %d->%d, Off %d->%d", toCap, cap(cg2.To), offCap, cap(cg2.Off))
	}
	nodes, out := cg2.Thaw()
	if !reflect.DeepEqual(nodes, small.nodes) || !reflect.DeepEqual(out, small.out) {
		t.Fatalf("reuse corrupted content: %v %v", nodes, out)
	}
}

func TestFreezeDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate node id must panic")
		}
	}()
	csr.Freeze([]int{1, 1}, func(int, func(int, int64, int64)) {})
}

// TestFreezeIntoNeverRewritesTheMapping pins what routing rows rely on: the
// IDs slice and index map a freeze handed out stay as they were through any
// later FreezeInto of the same Graph value — kept when the node list is
// unchanged, replaced (never rewritten) when it is not, and copied before an
// implicit node extends a kept one.
func TestFreezeIntoNeverRewritesTheMapping(t *testing.T) {
	g := adj{
		nodes: []int{7, 3, 50},
		out:   map[int][]csr.Arc{7: {{To: 3, Bandwidth: 10, Latency: 1}}},
	}
	cg := g.freeze(nil)
	ids, idx, rank := cg.IDs, cg.IndexMap(), cg.Rank
	unchanged := func(when string) {
		t.Helper()
		if !reflect.DeepEqual(ids, []int{7, 3, 50}) || !reflect.DeepEqual(idx, map[int]int32{7: 0, 3: 1, 50: 2}) ||
			!reflect.DeepEqual(rank, []int32{1, 0, 2}) {
			t.Fatalf("%s: the first freeze's mapping became %v / %v / %v", when, ids, idx, rank)
		}
	}

	// Links change, nodes do not: the mapping is kept, not rebuilt.
	g.out[3] = []csr.Arc{{To: 50, Bandwidth: 4, Latency: 4}}
	g.freeze(cg)
	if &cg.IDs[0] != &ids[0] || &cg.Rank[0] != &rank[0] ||
		reflect.ValueOf(cg.IndexMap()).Pointer() != reflect.ValueOf(idx).Pointer() {
		t.Fatal("a re-freeze over the same node list rebuilt the mapping")
	}

	// An implicit node must not grow the mapping others still hold.
	g.out[50] = []csr.Arc{{To: 99, Bandwidth: 1, Latency: 1}}
	g.freeze(cg)
	unchanged("after an implicit node")
	if i, ok := cg.Index(99); !ok || i != 3 || cg.Len() != 4 {
		t.Fatalf("implicit node: Index(99) = %d,%v Len = %d", i, ok, cg.Len())
	}

	// A different node list gets a mapping of its own.
	g.nodes, g.out = []int{50, 8}, map[int][]csr.Arc{8: {{To: 50, Bandwidth: 2, Latency: 2}}}
	g.freeze(cg)
	unchanged("after a re-freeze over other nodes")
	if nodes, out := cg.Thaw(); !reflect.DeepEqual(nodes, g.nodes) || !reflect.DeepEqual(out, g.out) {
		t.Fatalf("re-freeze content: %v %v", nodes, out)
	}
}
