// Dense-slice rewrites of the two Dijkstra kernels over a frozen CSR graph.
//
// The map-based kernels in qos.go stay as the reference oracle; these are the
// hot path. Equivalence is exact on everything a caller can observe: both
// engines settle nodes in the same order (the queue order is the strict total
// order (key, external id), which any correct priority queue realises
// identically), relax arcs in the same out-row order, and update labels only
// on strict improvement, so distance tables, predecessor trees and selected
// paths come out bit-identical. The property tests in dense_test.go pin this
// over seeded random graphs.
//
// Two deliberate departures from run-for-run oracle lockstep, both invisible
// in any Result byte:
//
//   - Tiered early exit. A shortest-widest row runs one restricted latency
//     Dijkstra per distinct width class, but class w's run only needs the
//     labels of class-w members — and a settled Dijkstra label is final (no
//     kernel ever relaxes into a settled node). Each phase-2 run therefore
//     stops the moment the last member of its class settles instead of
//     draining the queue. Class members' Dist entries and predecessor chains
//     (which pass only through earlier-settled nodes) are untouched; the only
//     observable difference is the relaxation counter, whose oracle
//     bit-equality pin is relaxed to a documented invariant: dense
//     relaxations <= oracle relaxations, with runs and fallbacks still
//     exactly equal.
//
//   - Monotone bucket queue. When the frozen graph's usable-arc latencies
//     span a small non-negative integer range (true for every scenario
//     generator in this module), the latency kernel swaps the 4-ary heap for
//     a Dial-style circular bucket queue: O(1) decrease-key, settle order
//     recovered exactly by draining each distance bucket through a small
//     external-id min-heap (ties in Dijkstra are broken by external id in
//     both engines). Settle order, every Result byte AND the relaxation
//     counter are bit-identical to the heap kernel — FuzzBucketQueue pins
//     this — so kernel selection is a pure performance choice; graphs
//     outside the bucket regime fall back to the heap automatically.
//
// One oracle branch is deliberately absent here: the phase-2 fallback for
// nodes phase 1 reached but phase 2 missed. That branch only fires when a
// Graph's Out answers drift between the two phases, which a frozen CSR
// snapshot makes impossible (the widest path to a node of width w uses only
// links >= w, so the restricted phase-2 run always reaches it). A miss on a
// frozen graph is therefore a kernel bug and panics instead of degrading.
package qos

import (
	"sflow/internal/csr"
)

// FreezeGraph freezes any qos.Graph into CSR form for the dense kernels.
// g.Out(u) must be empty for nodes u not in g.Nodes() (true for every
// implementation in this module); arcs to undeclared nodes freeze as dead
// ends.
func FreezeGraph(g Graph) *csr.Graph { return FreezeGraphInto(nil, g) }

// FreezeGraphInto is FreezeGraph reusing a previously frozen graph's arrays
// (see csr.FreezeInto).
func FreezeGraphInto(cg *csr.Graph, g Graph) *csr.Graph {
	return csr.FreezeInto(cg, g.Nodes(), func(u int, emit func(to int, bw, lat int64)) {
		for _, a := range g.Out(u) {
			emit(a.To, a.Bandwidth, a.Latency)
		}
	})
}

// maxBucketLat is the largest usable-arc latency for which the latency
// kernel uses the bucket queue: the queue keeps MaxLat+1 circular buckets,
// so the bound caps its footprint (and the cost of clearing it per run) at a
// few KiB while covering every latency palette the scenario generators
// produce by orders of magnitude.
const maxBucketLat = 4096

// maxWidthTiers is the largest distinct-bandwidth palette for which the
// widest kernel uses its bucket queue (one bucket per distinct width).
// Real overlays draw bandwidths from a handful of tiers; a graph with more
// distinct values than this falls back to the heap.
const maxWidthTiers = 256

// Kernel force switches for tests: the auto heuristic picks the bucket queue
// exactly when the frozen graph's usable latency range fits it.
const (
	kernelAuto = iota
	kernelHeap
	kernelBucket
)

// Scratch holds the per-worker reusable state of the dense kernels: distance
// and predecessor arrays, the indexed 4-ary heap, the bucket queue, and the
// row builder's buffers. A Scratch grows to the largest graph it has seen and is
// then reused without allocating, so steady-state relaxations allocate
// nothing. It is owned by exactly one goroutine at a time and must not be
// shared concurrently; ComputeAllPairsWorkers and Incremental.Flush thread
// one per worker.
type Scratch struct {
	width []int64 // phase-1 bottleneck bandwidth per index; 0 = unreached
	lat   []int64 // phase-2 / latency-kernel distance per index; -1 = unreached
	prev1 []int32 // widest-tree predecessor
	prev2 []int32 // latency-tree predecessor
	arc2  []int32 // permuted-array arc index that set prev2 (lowest-latency-then-widest)
	done  []bool  // settled flags of the current kernel run
	key   []int64 // current heap key per index
	hpos  []int32 // heap position per index; -1 = not in heap
	heap  []int32 // the 4-ary min-heap, as dense indexes

	buckets [][]int32 // circular distance buckets of the Dial queue
	cur     []int32   // external-id min-heap draining the current bucket

	// Derived per-frozen-graph data, rebuilt when (graph, Gen) changes: the
	// distinct-bandwidth palette (InfBandwidth first, then widest to
	// narrowest; empty when the graph has more than maxWidthTiers distinct
	// bandwidths, sending the widest kernel to its heap fallback), and the
	// graph's arc arrays re-materialized with each out-row sorted widest
	// first — a restricted latency run stops scanning a row at the first arc
	// below its width floor instead of filtering the whole row, and the scan
	// stays a sequential walk (no permutation gather). permTier is each
	// permuted arc's palette index, making the widest kernel's bucket
	// placement an array lookup. Arc indexes recorded in arc2 address these
	// permuted arrays, not the graph's.
	derived    *csr.Graph
	derivedGen uint64
	palette    []int64
	arcPerm    []int32 // build-time scratch for the row sort
	permTo     []int32
	permBW     []int64
	permLat    []int64
	permTier   []int32

	widths   []int64 // distinct phase-1 width classes, widest first
	classCnt []int32 // per-class member count, then placement cursor
	classOff []int32 // class k's members are order[classOff[k]:classOff[k+1]]
	order    []int32 // reached nodes grouped by width class

	chain []int32 // predecessor-chain buffer of the latency row's width pass
	row   rowBuilder

	forceKernel int // test hook: kernelAuto (default), kernelHeap, kernelBucket
}

// NewScratch returns an empty Scratch, ready for any graph size.
func NewScratch() *Scratch { return &Scratch{} }

// ensure sizes the per-node arrays for an n-node graph, reusing capacity.
func (sc *Scratch) ensure(n int) {
	if cap(sc.width) >= n {
		sc.width = sc.width[:n]
		sc.lat = sc.lat[:n]
		sc.prev1 = sc.prev1[:n]
		sc.prev2 = sc.prev2[:n]
		sc.arc2 = sc.arc2[:n]
		sc.done = sc.done[:n]
		sc.key = sc.key[:n]
		sc.hpos = sc.hpos[:n]
		return
	}
	sc.width = make([]int64, n)
	sc.lat = make([]int64, n)
	sc.prev1 = make([]int32, n)
	sc.prev2 = make([]int32, n)
	sc.arc2 = make([]int32, n)
	sc.done = make([]bool, n)
	sc.key = make([]int64, n)
	sc.hpos = make([]int32, n)
}

// less is the heap order: smaller key first, external id breaking ties. It
// is a strict total order (ids are unique), which is what makes the settle
// order — and through it the whole computation — deterministic and equal to
// the oracle's.
func (sc *Scratch) less(g *csr.Graph, a, b int32) bool {
	if sc.key[a] != sc.key[b] {
		return sc.key[a] < sc.key[b]
	}
	return g.IDs[a] < g.IDs[b]
}

// heapFix inserts v with the given key, or sifts it up after a key decrease.
// Keys only ever improve during a Dijkstra run, so sifting up suffices.
func (sc *Scratch) heapFix(g *csr.Graph, v int32, key int64) {
	sc.key[v] = key
	if sc.hpos[v] < 0 {
		sc.hpos[v] = int32(len(sc.heap))
		sc.heap = append(sc.heap, v)
	}
	sc.up(g, int(sc.hpos[v]))
}

func (sc *Scratch) up(g *csr.Graph, i int) {
	h := sc.heap
	for i > 0 {
		p := (i - 1) / 4
		if !sc.less(g, h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		sc.hpos[h[i]] = int32(i)
		sc.hpos[h[p]] = int32(p)
		i = p
	}
}

func (sc *Scratch) down(g *csr.Graph, i int) {
	h := sc.heap
	n := len(h)
	for {
		best := i
		c0 := 4*i + 1
		for c := c0; c < c0+4 && c < n; c++ {
			if sc.less(g, h[c], h[best]) {
				best = c
			}
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		sc.hpos[h[i]] = int32(i)
		sc.hpos[h[best]] = int32(best)
		i = best
	}
}

func (sc *Scratch) popHeap(g *csr.Graph) int32 {
	h := sc.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	sc.hpos[h[0]] = 0
	sc.hpos[top] = -1
	sc.heap = h[:last]
	if last > 0 {
		sc.down(g, 0)
	}
	return top
}

// prepare rebuilds the per-graph derived data when the frozen graph under
// this Scratch changes (FreezeInto reuses Graph values in place, hence the
// generation check). One linear pass with a binary search per arc against
// the growing palette; steady-state calls on an unchanged graph are two
// comparisons.
func (sc *Scratch) prepare(g *csr.Graph) {
	if sc.derived == g && sc.derivedGen == g.Gen {
		return
	}
	sc.derived, sc.derivedGen = g, g.Gen
	m := len(g.BW)
	pal := sc.palette[:0]
	pal = append(pal, InfBandwidth)
	for _, bw := range g.BW {
		if bw <= 0 || len(pal) > maxWidthTiers {
			continue
		}
		lo, hi := 0, len(pal)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if pal[mid] > bw {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(pal) && pal[lo] == bw {
			continue
		}
		pal = append(pal, 0)
		copy(pal[lo+1:], pal[lo:])
		pal[lo] = bw
	}
	if len(pal) > maxWidthTiers {
		pal = pal[:0] // too many tiers: the widest kernel falls back to the heap
	}
	sc.palette = pal

	// Re-sort each out-row widest-first (original index breaks ties, keeping
	// the permutation deterministic) and materialize the permuted to/bw/lat
	// copies so kernel scans stay sequential. Rows are short, so an insertion
	// sort per row beats a general sort and allocates nothing steady-state.
	if cap(sc.arcPerm) < m {
		sc.arcPerm = make([]int32, m)
		sc.permTo = make([]int32, m)
		sc.permBW = make([]int64, m)
		sc.permLat = make([]int64, m)
		sc.permTier = make([]int32, m)
	} else {
		sc.arcPerm = sc.arcPerm[:m]
		sc.permTo = sc.permTo[:m]
		sc.permBW = sc.permBW[:m]
		sc.permLat = sc.permLat[:m]
		sc.permTier = sc.permTier[:m]
	}
	perm, bws := sc.arcPerm, g.BW
	for u := 0; u < g.Len(); u++ {
		lo, hi := g.Off[u], g.Off[u+1]
		for e := lo; e < hi; e++ {
			perm[e] = e
		}
		for i := lo + 1; i < hi; i++ {
			x := perm[i]
			j := i - 1
			for j >= lo && bws[perm[j]] < bws[x] {
				perm[j+1] = perm[j]
				j--
			}
			perm[j+1] = x
		}
	}
	for pe, e := range perm {
		bw := g.BW[e]
		sc.permTo[pe] = g.To[e]
		sc.permBW[pe] = bw
		sc.permLat[pe] = g.Lat[e]
		if bw <= 0 {
			sc.permTier[pe] = -1
			continue
		}
		lo, hi := 0, len(pal)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if pal[mid] > bw {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		sc.permTier[pe] = int32(lo)
	}
}

// denseWidest is the CSR rewrite of widestDijkstra: maximum bottleneck
// bandwidth from src into sc.width, the widest tree into sc.prev1.
// Relaxation attempts are tallied into relaxed exactly as the oracle tallies
// them. The queue discipline is a bucket per distinct width when the graph's
// bandwidth palette is small (the norm), the 4-ary heap otherwise.
func (sc *Scratch) denseWidest(g *csr.Graph, src int32, relaxed *int64) {
	sc.prepare(g)
	if sc.forceKernel != kernelHeap && len(sc.palette) > 0 {
		sc.denseWidestBucket(g, src, relaxed)
		return
	}
	sc.denseWidestHeap(g, src, relaxed)
}

// denseWidestBucket is the tiered widest kernel: bottleneck widths can only
// take values from the arc-bandwidth palette (plus InfBandwidth at the
// source), tentative widths only ever improve, and the settle width is
// monotone non-increasing — so one bucket per palette tier, visited widest
// to narrowest and drained through the external-id min-heap, reproduces the
// heap kernel's (width, external id) settle order exactly. An improvement to
// the width currently settling re-enters the current drain heap (cand ==
// wu); a narrower improvement lands in its own tier's bucket (cand == the
// arc's bandwidth, precomputed as arcTier).
func (sc *Scratch) denseWidestBucket(g *csr.Graph, src int32, relaxed *int64) {
	n := int32(g.Len())
	for i := int32(0); i < n; i++ {
		sc.width[i] = 0
		sc.prev1[i] = -1
		sc.done[i] = false
	}
	pal, tier := sc.palette, sc.permTier
	nt := len(pal)
	if cap(sc.buckets) < nt {
		sc.buckets = append(sc.buckets[:cap(sc.buckets)], make([][]int32, nt-cap(sc.buckets))...)
	}
	sc.buckets = sc.buckets[:nt]
	for i := range sc.buckets {
		sc.buckets[i] = sc.buckets[i][:0]
	}
	sc.width[src] = InfBandwidth
	sc.buckets[0] = append(sc.buckets[0], src)
	pending := 1

	off, to, bws := g.Off, sc.permTo, sc.permBW
	ids := g.IDs
	for k := 0; pending > 0; k++ {
		bkt := sc.buckets[k]
		if len(bkt) == 0 {
			continue
		}
		sc.buckets[k] = bkt[:0]
		cur := sc.cur[:0]
		for _, v := range bkt {
			if sc.done[v] || sc.width[v] != pal[k] {
				pending-- // stale: superseded by a wider improvement
				continue
			}
			cur = append(cur, v)
			for c := len(cur) - 1; c > 0; {
				p := (c - 1) / 2
				if ids[cur[p]] <= ids[cur[c]] {
					break
				}
				cur[p], cur[c] = cur[c], cur[p]
				c = p
			}
		}
		for len(cur) > 0 {
			u := cur[0]
			last := len(cur) - 1
			cur[0] = cur[last]
			cur = cur[:last]
			for c := 0; ; {
				best := c
				if l := 2*c + 1; l < last && ids[cur[l]] < ids[cur[best]] {
					best = l
				}
				if r := 2*c + 2; r < last && ids[cur[r]] < ids[cur[best]] {
					best = r
				}
				if best == c {
					break
				}
				cur[c], cur[best] = cur[best], cur[c]
				c = best
			}
			pending--
			sc.done[u] = true
			wu := sc.width[u]
			for e := off[u]; e < off[u+1]; e++ {
				bw := bws[e]
				if bw <= 0 {
					break // row is widest-first: only dead arcs remain
				}
				v := to[e]
				if sc.done[v] {
					continue
				}
				*relaxed++
				cand := wu
				if bw < cand {
					cand = bw
				}
				if cand > sc.width[v] {
					sc.width[v] = cand
					sc.prev1[v] = u
					if cand == wu {
						cur = append(cur, v)
						for c := len(cur) - 1; c > 0; {
							p := (c - 1) / 2
							if ids[cur[p]] <= ids[cur[c]] {
								break
							}
							cur[p], cur[c] = cur[c], cur[p]
							c = p
						}
					} else {
						sc.buckets[tier[e]] = append(sc.buckets[tier[e]], v)
					}
					pending++
				}
			}
		}
		sc.cur = cur[:0]
	}
}

// denseWidestHeap is the 4-ary-heap widest kernel, the fallback for graphs
// with more distinct bandwidths than the bucket palette covers. The heap key
// is the negated width so one min-heap serves both kernels.
func (sc *Scratch) denseWidestHeap(g *csr.Graph, src int32, relaxed *int64) {
	n := int32(g.Len())
	for i := int32(0); i < n; i++ {
		sc.width[i] = 0
		sc.prev1[i] = -1
		sc.done[i] = false
		sc.hpos[i] = -1
	}
	sc.heap = sc.heap[:0]
	sc.width[src] = InfBandwidth
	sc.heapFix(g, src, -InfBandwidth)
	off, to, bws := g.Off, g.To, g.BW
	for len(sc.heap) > 0 {
		u := sc.popHeap(g)
		sc.done[u] = true
		wu := sc.width[u]
		for e := off[u]; e < off[u+1]; e++ {
			bw := bws[e]
			v := to[e]
			if bw <= 0 || sc.done[v] {
				continue
			}
			*relaxed++
			cand := wu
			if bw < cand {
				cand = bw
			}
			if cand > sc.width[v] {
				sc.width[v] = cand
				sc.prev1[v] = u
				sc.heapFix(g, v, -cand)
			}
		}
	}
}

// useBucket reports whether the latency kernel should run on the bucket
// queue for this graph: every usable arc latency must be a small non-negative
// integer (negative latencies would index before bucket zero, and a huge
// range would make the circular window larger than it saves).
func (sc *Scratch) useBucket(g *csr.Graph) bool {
	switch sc.forceKernel {
	case kernelHeap:
		return false
	case kernelBucket:
		return true
	}
	return g.MinLat >= 0 && g.MaxLat <= maxBucketLat
}

// denseLatency is the CSR rewrite of latencyDijkstra: minimum total latency
// from src over arcs of bandwidth >= minBW into sc.lat, predecessors into
// sc.prev2 and the arcs that set them into sc.arc2. The run is complete (no
// early exit) and the queue discipline is chosen by useBucket.
func (sc *Scratch) denseLatency(g *csr.Graph, src int32, minBW int64, relaxed *int64) {
	sc.denseLatencyStop(g, src, minBW, relaxed, 0, -1)
}

// denseLatencyStop is denseLatency with the tiered early exit: when
// stopLeft >= 0 the run returns as soon as stopLeft nodes of phase-1 width
// stopWidth (src excluded — its phase-1 width is InfBandwidth, which a width
// class may legitimately share) have settled. Settled labels are final, so
// the early exit leaves every class member's distance, predecessor chain and
// selected arc exactly as a full run would; only the relaxation tally
// shrinks. stopLeft < 0 disables the exit.
func (sc *Scratch) denseLatencyStop(g *csr.Graph, src int32, minBW int64, relaxed *int64, stopWidth int64, stopLeft int) {
	sc.prepare(g)
	if minBW < 1 {
		minBW = 1 // usable means bw > 0; a wider floor folds both checks into one
	}
	if sc.useBucket(g) {
		sc.denseLatencyBucket(g, src, minBW, relaxed, stopWidth, stopLeft)
		return
	}
	sc.denseLatencyHeap(g, src, minBW, relaxed, stopWidth, stopLeft)
}

// denseLatencyHeap is the 4-ary-heap latency kernel, the fallback for graphs
// outside the bucket regime.
func (sc *Scratch) denseLatencyHeap(g *csr.Graph, src int32, minBW int64, relaxed *int64, stopWidth int64, stopLeft int) {
	n := int32(g.Len())
	for i := int32(0); i < n; i++ {
		sc.lat[i] = -1
		sc.prev2[i] = -1
		sc.arc2[i] = -1
		sc.done[i] = false
		sc.hpos[i] = -1
	}
	sc.heap = sc.heap[:0]
	sc.lat[src] = 0
	sc.heapFix(g, src, 0)
	off, to, bws, lats := g.Off, sc.permTo, sc.permBW, sc.permLat
	for len(sc.heap) > 0 {
		u := sc.popHeap(g)
		sc.done[u] = true
		if stopLeft >= 0 && u != src && sc.width[u] == stopWidth {
			if stopLeft--; stopLeft <= 0 {
				return
			}
		}
		lu := sc.lat[u]
		for e := off[u]; e < off[u+1]; e++ {
			bw := bws[e]
			if bw < minBW {
				break // row is widest-first: everything further is too narrow
			}
			v := to[e]
			if sc.done[v] {
				continue
			}
			*relaxed++
			cand := lu + lats[e]
			if cur := sc.lat[v]; cur < 0 || cand < cur {
				sc.lat[v] = cand
				sc.prev2[v] = u
				sc.arc2[v] = e
				sc.heapFix(g, v, cand)
			} else if cand == cur && sc.prev2[v] == u && bws[e] > bws[sc.arc2[v]] {
				// Parallel arc, same minimal latency from the same hop: keep
				// the widest, matching the oracle's arcBandwidth selection.
				sc.arc2[v] = e
			}
		}
	}
}

// smallDrain is the bucket-transfer size at or below which a bucket is
// drained as an insertion-sorted array instead of a binary heap. Bucket
// populations are tiny in practice (settles spread across the latency range),
// so the sorted array's branch-predictable inserts beat the heap's sift
// bookkeeping; large transfers (constant-latency waves) keep the heap's
// O(log k) bound. Both disciplines emit ascending external-id order, so the
// choice is invisible in any Result byte.
const smallDrain = 32

// denseLatencyBucket is the Dial bucket-queue latency kernel. Distances are
// monotone non-decreasing in Dijkstra, and every usable arc latency lies in
// [0, MaxLat], so at any moment all queued tentative distances fit in a
// circular window of MaxLat+1 buckets. Each bucket is drained in ascending
// external-id order (sorted array for small transfers, min-heap for large —
// see smallDrain), which reproduces the heap kernel's (distance, external id)
// settle order exactly: zero-latency relaxations discovered mid-drain re-enter
// the current drain, later-distance ones land in their bucket. Stale entries
// (superseded by a strictly better relaxation) are skipped on transfer,
// exactly like a lazy-deletion heap would.
//
// A zero-latency chain can grow a sorted drain past smallDrain with O(len)
// inserts; that degenerate shape (a large same-distance frontier reached
// through 0-latency arcs) appears in no scenario generator and still
// terminates correctly, just without the heap bound.
func (sc *Scratch) denseLatencyBucket(g *csr.Graph, src int32, minBW int64, relaxed *int64, stopWidth int64, stopLeft int) {
	n := int32(g.Len())
	for i := int32(0); i < n; i++ {
		sc.lat[i] = -1
		sc.prev2[i] = -1
		sc.arc2[i] = -1
		sc.done[i] = false
	}
	nb := int(g.MaxLat) + 1
	if cap(sc.buckets) < nb {
		sc.buckets = append(sc.buckets[:cap(sc.buckets)], make([][]int32, nb-cap(sc.buckets))...)
	}
	sc.buckets = sc.buckets[:nb]
	for i := range sc.buckets {
		sc.buckets[i] = sc.buckets[i][:0]
	}
	sc.lat[src] = 0
	sc.buckets[0] = append(sc.buckets[0], src)
	pending := 1

	off, to, bws, lats := g.Off, sc.permTo, sc.permBW, sc.permLat
	ids := g.IDs
	bi := 0
	for d := int64(0); pending > 0; d++ {
		bkt := sc.buckets[bi]
		if len(bkt) > 0 {
			sc.buckets[bi] = bkt[:0]
			cur := sc.cur[:0]
			for _, v := range bkt {
				if sc.done[v] || sc.lat[v] != d {
					pending-- // stale: a strictly better relaxation superseded it
					continue
				}
				cur = append(cur, v)
			}
			if len(cur) <= smallDrain {
				// Sorted-array drain: ascending external-id order, settle by
				// walking the array; same-distance discoveries insert into the
				// unsettled suffix.
				for i := 1; i < len(cur); i++ {
					x := cur[i]
					j := i - 1
					for j >= 0 && ids[cur[j]] > ids[x] {
						cur[j+1] = cur[j]
						j--
					}
					cur[j+1] = x
				}
				for i := 0; i < len(cur); i++ {
					u := cur[i]
					pending--
					sc.done[u] = true
					if stopLeft >= 0 && u != src && sc.width[u] == stopWidth {
						if stopLeft--; stopLeft <= 0 {
							sc.cur = cur[:0]
							return
						}
					}
					for e := off[u]; e < off[u+1]; e++ {
						bw := bws[e]
						if bw < minBW {
							break // row is widest-first: the rest is too narrow
						}
						v := to[e]
						if sc.done[v] {
							continue
						}
						*relaxed++
						cand := d + lats[e]
						if curLat := sc.lat[v]; curLat < 0 || cand < curLat {
							sc.lat[v] = cand
							sc.prev2[v] = u
							sc.arc2[v] = e
							if cand == d {
								// Zero-latency arc: v settles in this same
								// drain, in external-id order with the rest.
								cur = append(cur, v)
								j := len(cur) - 2
								for j > i && ids[cur[j]] > ids[v] {
									cur[j+1] = cur[j]
									j--
								}
								cur[j+1] = v
							} else {
								// cand - d = lats[e] < nb, so the target bucket
								// is one conditional step from bi — no division.
								b := bi + int(lats[e])
								if b >= nb {
									b -= nb
								}
								sc.buckets[b] = append(sc.buckets[b], v)
							}
							pending++
						} else if cand == curLat && sc.prev2[v] == u && bws[e] > bws[sc.arc2[v]] {
							sc.arc2[v] = e
						}
					}
				}
				sc.cur = cur[:0]
				goto advance
			}
			// Heap drain: establish the heap invariant over the transfer,
			// then pop ascending external ids.
			for i := 1; i < len(cur); i++ {
				for c := i; c > 0; {
					p := (c - 1) / 2
					if ids[cur[p]] <= ids[cur[c]] {
						break
					}
					cur[p], cur[c] = cur[c], cur[p]
					c = p
				}
			}
			for len(cur) > 0 {
				u := cur[0]
				last := len(cur) - 1
				cur[0] = cur[last]
				cur = cur[:last]
				for c := 0; ; {
					best := c
					if l := 2*c + 1; l < last && ids[cur[l]] < ids[cur[best]] {
						best = l
					}
					if r := 2*c + 2; r < last && ids[cur[r]] < ids[cur[best]] {
						best = r
					}
					if best == c {
						break
					}
					cur[c], cur[best] = cur[best], cur[c]
					c = best
				}
				pending--
				sc.done[u] = true
				if stopLeft >= 0 && u != src && sc.width[u] == stopWidth {
					if stopLeft--; stopLeft <= 0 {
						sc.cur = cur[:0]
						return
					}
				}
				for e := off[u]; e < off[u+1]; e++ {
					bw := bws[e]
					if bw < minBW {
						break // row is widest-first: the rest is too narrow
					}
					v := to[e]
					if sc.done[v] {
						continue
					}
					*relaxed++
					cand := d + lats[e]
					if curLat := sc.lat[v]; curLat < 0 || cand < curLat {
						sc.lat[v] = cand
						sc.prev2[v] = u
						sc.arc2[v] = e
						if cand == d {
							// Zero-latency arc: v settles in this same
							// bucket, in external-id order with the rest.
							cur = append(cur, v)
							for c := len(cur) - 1; c > 0; {
								p := (c - 1) / 2
								if ids[cur[p]] <= ids[cur[c]] {
									break
								}
								cur[p], cur[c] = cur[c], cur[p]
								c = p
							}
						} else {
							b := bi + int(lats[e])
							if b >= nb {
								b -= nb
							}
							sc.buckets[b] = append(sc.buckets[b], v)
						}
						pending++
					} else if cand == curLat && sc.prev2[v] == u && bws[e] > bws[sc.arc2[v]] {
						sc.arc2[v] = e
					}
				}
			}
			sc.cur = cur[:0]
		}
	advance:
		if bi++; bi == nb {
			bi = 0
		}
	}
}

// groupWidthClasses groups the phase-1-reached nodes (src excluded) by
// bottleneck width into sc.order, widest class first, dense-index order
// within a class. Widths come from a small palette in practice, so a
// counting pass over the per-class cursor arrays replaces the sort.Slice
// closure the hot path used to pay an allocation (and an O(n log n)) for.
// After the call, class k covers sc.order[sc.classOff[k]:sc.classOff[k+1]]
// with width sc.widths[k]. Steady-state calls allocate nothing, which
// TestGroupWidthClassesAllocFree pins.
func (sc *Scratch) groupWidthClasses(g *csr.Graph, src int32) {
	n := int32(g.Len())
	widths := sc.widths[:0]
	cnt := sc.classCnt[:0]
	total := 0
	for i := int32(0); i < n; i++ {
		w := sc.width[i]
		if i == src || w <= 0 {
			continue
		}
		total++
		// Binary search in the descending widths palette.
		lo, hi := 0, len(widths)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if widths[mid] > w {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(widths) && widths[lo] == w {
			cnt[lo]++
			continue
		}
		widths = append(widths, 0)
		copy(widths[lo+1:], widths[lo:])
		widths[lo] = w
		cnt = append(cnt, 0)
		copy(cnt[lo+1:], cnt[lo:])
		cnt[lo] = 1
	}
	sc.widths = widths
	sc.classCnt = cnt

	if cap(sc.classOff) < len(widths)+1 {
		sc.classOff = make([]int32, len(widths)+1, 2*(len(widths)+1))
	} else {
		sc.classOff = sc.classOff[:len(widths)+1]
	}
	sc.classOff[0] = 0
	for k, c := range cnt {
		sc.classOff[k+1] = sc.classOff[k] + c
	}
	// Reuse the count array as the per-class placement cursor.
	copy(cnt, sc.classOff[:len(cnt)])

	if cap(sc.order) < total {
		sc.order = make([]int32, total)
	} else {
		sc.order = sc.order[:total]
	}
	for i := int32(0); i < n; i++ {
		w := sc.width[i]
		if i == src || w <= 0 {
			continue
		}
		lo, hi := 0, len(widths)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if widths[mid] > w {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		sc.order[cnt[lo]] = i
		cnt[lo]++
	}
}

// shortestWidestDense is the CSR engine behind ShortestWidest: the same row
// (see the package comment above for the relaxation-counter invariant) from
// dense arrays and a reusable Scratch instead of per-call maps. The row is
// laid out over the frozen graph's own index, so a run performs a small
// constant number of allocations regardless of graph size.
func shortestWidestDense(g *csr.Graph, src int32, sc *Scratch, ins instr) *Result {
	var relaxed int64
	sc.ensure(g.Len())
	sc.denseWidest(g, src, &relaxed)
	sc.groupWidthClasses(g, src)

	sc.row.begin(newResult(g.IDs, g.IndexMap(), src))
	for k, w := range sc.widths {
		members := sc.order[sc.classOff[k]:sc.classOff[k+1]]
		sc.denseLatencyStop(g, src, w, &relaxed, w, len(members))
		for _, v := range members {
			if sc.lat[v] < 0 {
				// Unreachable on a frozen graph (see package comment).
				panic("qos: phase 2 missed a phase-1 node on a frozen graph")
			}
		}
		sc.row.class(w, members, sc.lat, sc.prev2)
	}
	ins.runs.Inc()
	ins.relaxations.Add(relaxed)
	// The fallback counter stays at zero by construction on a frozen graph;
	// Add(0) keeps the published counter set identical to the oracle's.
	ins.fallbacks.Add(0)
	return sc.row.finish()
}

// ShortestWidestCSR computes shortest-widest paths from src on a frozen
// graph, byte-identical to ShortestWidest on the graph it froze. sc may be
// nil (a temporary Scratch is used); passing a reused Scratch makes the
// steady-state run allocation-free outside the returned Result.
func ShortestWidestCSR(g *csr.Graph, src int, sc *Scratch) *Result {
	i, ok := g.Index(src)
	if !ok {
		// Same answer the oracle gives for a source the graph doesn't know:
		// only the empty path to itself.
		return newResult([]int{src}, map[int]int32{src: 0}, 0)
	}
	if sc == nil {
		sc = NewScratch()
	}
	return shortestWidestDense(g, i, sc, instr{})
}

// ShortestLatencyCSR computes minimum-latency paths from src on a frozen
// graph, byte-identical to ShortestLatency on the graph it froze. sc may be
// nil.
func ShortestLatencyCSR(g *csr.Graph, src int, sc *Scratch) *Result {
	i, ok := g.Index(src)
	if !ok {
		return newResult([]int{src}, map[int]int32{src: 0}, 0)
	}
	if sc == nil {
		sc = NewScratch()
	}
	n := int32(g.Len())
	sc.ensure(int(n))
	var relaxed int64
	sc.denseLatency(g, i, 1, &relaxed)

	res := newResult(g.IDs, g.IndexMap(), i)
	// A path's bottleneck is its parent's path's bottleneck narrowed by the
	// recorded tree arc into the node — the lowest-latency (then widest)
	// usable arc, exactly what the oracle's per-hop arcBandwidth rescan
	// selects. Climb to the nearest node already priced, then come back down.
	for v := int32(0); v < n; v++ {
		if sc.lat[v] < 0 {
			continue
		}
		chain := sc.chain[:0]
		x := v
		for res.metric[x].Bandwidth == 0 {
			chain = append(chain, x)
			x = sc.prev2[x]
		}
		sc.chain = chain
		width := res.metric[x].Bandwidth
		for k := len(chain) - 1; k >= 0; k-- {
			c := chain[k]
			width = min64(width, sc.permBW[sc.arc2[c]])
			res.metric[c] = Metric{Bandwidth: width, Latency: sc.lat[c]}
			res.parent[c] = sc.prev2[c]
		}
	}
	return res
}
