// The shortest-widest row: what one single-source computation leaves behind.
//
// A row is dense and pointer-free: one Metric and one parent index per node
// of the graph it was computed on, plus a short list of per-class parent
// overrides. Paths are not stored; PathTo walks parents in O(hops).
//
// One parent per node is not enough. The path to v is read off the latency
// run restricted to links at least as wide as v's own width w, and that run
// may enter a node u of a wider class through a link too narrow for u's own
// path, by a shorter route: u's parent under floor w differs from the parent
// on u's own row entry. Parents are per width class. A class's run matters
// only along its own members' tree paths, and there it mostly agrees with the
// wider nodes' own parents, so the row keeps, per class, only the
// (child, parent) pairs on those paths where it disagrees: at most one pair
// per stored path node, never a classes-by-nodes block.
package qos

import (
	"cmp"
	"slices"
	"unsafe"
)

// Result holds the output of a single-source routing computation. It is
// immutable once returned and safe for concurrent readers.
type Result struct {
	Source int

	// ids and idx are the index <-> node id mapping of the graph the row was
	// computed on, shared with every other row of that freeze.
	ids []int
	idx map[int]int32
	src int32
	// metric[i] is the quality of the selected path to node i; the zero value
	// marks a node the run did not reach. The reached set is exactly the set
	// of nodes whose out-arcs the run read.
	metric []Metric
	// parent[i] is the predecessor of reached node i on its own path.
	parent []int32
	// Class widths[c] overrides parents along its members' paths with
	// over[overOff[c]:overOff[c+1]], sorted by child. Classes without
	// overrides are not listed.
	widths  []int64
	overOff []int32
	over    []override
}

// override is the parent of child under one width class's latency run, kept
// only where it differs from child's own parent.
type override struct{ child, parent int32 }

// Metric returns the path quality from the source to dst (Unreachable if
// there is no path).
func (r *Result) Metric(dst int) Metric {
	if i, ok := r.idx[dst]; ok {
		return r.metric[i]
	}
	return Unreachable
}

// PathTo returns the selected path from the source to dst, inclusive of both
// endpoints. It returns nil if dst is unreachable. The returned slice is
// fresh and is the caller's to keep or modify.
func (r *Result) PathTo(dst int) []int {
	i, ok := r.idx[dst]
	if !ok || r.metric[i].Bandwidth <= 0 {
		return nil
	}
	w := r.metric[i].Bandwidth
	var over []override
	if c, ok := slices.BinarySearchFunc(r.widths, w, func(cw, w int64) int {
		return cmp.Compare(w, cw) // widths are descending
	}); ok {
		over = r.over[r.overOff[c]:r.overOff[c+1]]
	}
	var buf [32]int32
	chain := buf[:0]
	for x := i; x != r.src; {
		chain = append(chain, x)
		p := r.parent[x]
		if len(over) > 0 && r.metric[x].Bandwidth != w {
			if j, ok := slices.BinarySearchFunc(over, x, func(o override, x int32) int {
				return int(o.child) - int(x)
			}); ok {
				p = over[j].parent
			}
		}
		x = p
	}
	path := make([]int, 0, len(chain)+1)
	path = append(path, r.Source)
	for k := len(chain) - 1; k >= 0; k-- {
		path = append(path, r.ids[chain[k]])
	}
	return path
}

// Reached iterates over the nodes the source reaches (itself included) with
// the quality of the selected path to each, in the index order of the graph
// the row was computed on.
func (r *Result) Reached(yield func(dst int, m Metric) bool) {
	for i, m := range r.metric {
		if m.Bandwidth > 0 && !yield(r.ids[i], m) {
			return
		}
	}
}

// Equal reports whether two results answer identically: same source, same
// reached set, and per destination the same metric and selected path.
func (r *Result) Equal(o *Result) bool {
	if r.Source != o.Source {
		return false
	}
	n := 0
	for dst, m := range r.Reached {
		if o.Metric(dst) != m || !slices.Equal(r.PathTo(dst), o.PathTo(dst)) {
			return false
		}
		n++
	}
	for range o.Reached {
		n--
	}
	return n == 0
}

// Bytes returns the memory the row owns. The node mapping it shares with the
// other rows of its freeze is not counted.
func (r *Result) Bytes() int {
	return int(unsafe.Sizeof(*r)) +
		len(r.metric)*int(unsafe.Sizeof(Metric{})) +
		len(r.parent)*4 +
		len(r.widths)*8 + len(r.overOff)*4 +
		len(r.over)*int(unsafe.Sizeof(override{}))
}

// rowBuilder assembles a Result one width class at a time, widest first, the
// order both engines run their classes in. Its buffers are reused from row to
// row, so a row costs a constant number of allocations whatever its size.
type rowBuilder struct {
	res *Result
	// mark[i] is the number of the last class (counting from 1) with a
	// member's tree path across node i: a walk up from a member stops at the
	// first node its class has already crossed.
	mark   []int32
	closed int32
	// widths, overOff and over grow as the Result's will look; finish copies
	// them out at their final size.
	widths  []int64
	overOff []int32
	over    []override
}

// newResult returns the row of src (a dense index into ids) with nothing but
// the empty path to itself reached yet.
func newResult(ids []int, idx map[int]int32, src int32) *Result {
	r := &Result{
		Source: ids[src],
		ids:    ids,
		idx:    idx,
		src:    src,
		metric: make([]Metric, len(ids)),
		parent: make([]int32, len(ids)),
	}
	r.metric[src] = Empty
	return r
}

// begin starts assembling res.
func (b *rowBuilder) begin(res *Result) {
	b.res = res
	n := len(res.metric)
	if cap(b.mark) < n {
		b.mark = make([]int32, n)
	}
	b.mark = b.mark[:n]
	clear(b.mark)
	b.closed = 0
	b.widths, b.overOff, b.over = b.widths[:0], b.overOff[:0], b.over[:0]
}

// class records one width class: every member's metric (width w, latency
// lat[v]) and own parent, then the overrides the class needs along the
// members' tree paths. prev is the predecessor array of the class's latency
// run. Classes must arrive widest first.
func (b *rowBuilder) class(w int64, members []int32, lat []int64, prev []int32) {
	r := b.res
	for _, v := range members {
		r.metric[v] = Metric{Bandwidth: w, Latency: lat[v]}
		r.parent[v] = prev[v]
	}
	lo := len(b.over)
	b.closed++
	for _, v := range members {
		for x := prev[v]; x != r.src && b.mark[x] != b.closed; x = prev[x] {
			b.mark[x] = b.closed
			// Fellow members took their parent from this same prev. Any
			// other node keeps the parent its own class gave it, so record
			// where this class enters it differently; a node no class has
			// claimed yet has no parent to agree with.
			if xw := r.metric[x].Bandwidth; xw != w && (xw == 0 || prev[x] != r.parent[x]) {
				b.over = append(b.over, override{child: x, parent: prev[x]})
			}
		}
	}
	if len(b.over) == lo {
		return
	}
	slices.SortFunc(b.over[lo:], func(a, c override) int { return int(a.child) - int(c.child) })
	if len(b.overOff) == 0 {
		b.overOff = append(b.overOff, 0)
	}
	b.widths = append(b.widths, w)
	b.overOff = append(b.overOff, int32(len(b.over)))
}

// finish hands the completed row over.
func (b *rowBuilder) finish() *Result {
	r := b.res
	if len(b.over) > 0 {
		r.widths = slices.Clone(b.widths)
		r.overOff = slices.Clone(b.overOff)
		r.over = slices.Clone(b.over)
	}
	b.res = nil
	return r
}
