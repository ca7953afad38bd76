package qos

import (
	"cmp"
	"slices"
	"testing"

	"sflow/internal/csr"
)

// applyArcFuzzOp decodes one mutation from three fuzz bytes, applies it to
// the adjacency-map ground truth and reports it to every table in ts the way
// a session would: each arc's bandwidth before and after, 0 meaning absent,
// and a node leave as every incident arc going to 0. It reports false for an
// op that is not a mutation (ops 5-7 are reads and flushes, which the
// callers apply to their own tables).
func applyArcFuzzOp(g *testGraph, ts []*AllPairs, op, x, y byte, next *int) bool {
	nodes := g.Nodes()
	if len(nodes) == 0 {
		return false
	}
	pick := func(b byte) int { return nodes[int(b)%len(nodes)] }
	// first returns the position of u's out-arc selected by b, -1 if none.
	first := func(u int, b byte) int {
		if len(g.adj[u]) == 0 {
			return -1
		}
		return int(b) % len(g.adj[u])
	}
	switch op % 8 {
	case 0: // grow an arc
		u := pick(x)
		if i := first(u, y); i >= 0 {
			a := g.adj[u][i]
			g.adj[u][i].Bandwidth += int64(y%32) + 1
			for _, t := range ts {
				t.ArcChanged(u, a.To, a.Bandwidth, g.adj[u][i].Bandwidth)
			}
		}
	case 1: // reduce an arc; a reservation past its bandwidth removes it
		u := pick(x)
		if i := first(u, y); i >= 0 {
			a := g.adj[u][i]
			left := a.Bandwidth - int64(y%48) - 1
			if left > 0 {
				g.adj[u][i].Bandwidth = left
			} else {
				g.adj[u] = slices.Delete(g.adj[u], i, i+1)
				left = 0
			}
			for _, t := range ts {
				t.ArcChanged(u, a.To, a.Bandwidth, left)
			}
		}
	case 2: // add an arc, or remove the one there is (the next add re-adds it)
		u, v := pick(x), pick(y)
		switch {
		case u == v:
		case g.arcBW(u, v) > 0:
			g.dropArcReported(u, v, ts...)
		default:
			g.addArcReported(u, v, int64(x%32)+1, int64(y%16)+1, ts...)
		}
	case 3: // a fresh node joins with one arc each way
		n := *next
		*next++
		g.addNode(n)
		for _, t := range ts {
			t.NodeAdded(n)
		}
		g.addArcReported(n, pick(x), int64(y%32)+1, int64(x%16)+1, ts...)
		g.addArcReported(pick(y), n, int64(x%32)+1, int64(y%16)+1, ts...)
	case 4: // a node leaves (keep a couple so rows stay interesting)
		if len(nodes) > 2 {
			g.removeNodeReported(pick(x), ts...)
		}
	default:
		return false
	}
	return true
}

// fuzzBaseGraph is the fuzzers' starting graph: the chain plus a cycle, so
// rows overlap.
func fuzzBaseGraph() *testGraph {
	g := chainGraph()
	g.addArc(4, 1, 60, 7)
	return g
}

// requireKeptRowsFresh fails unless every resident, unqueued row of tb
// equals a fresh row on g.
func requireKeptRowsFresh(t *testing.T, tb *AllPairs, g Graph, op int) {
	t.Helper()
	fresh := FreezeGraph(g)
	tb.mu.Lock()
	defer tb.mu.Unlock()
	for k, row := range tb.rows {
		if row != nil && !tb.live.dirty[k] && !row.Equal(ShortestWidestCSR(fresh, row.Source, nil)) {
			t.Fatalf("op %d: row %d was kept but changed", op, row.Source)
		}
	}
}

// FuzzLazyInvalidation drives random arc-delta/read interleavings against a
// small graph: after every op, every row the lazy table kept must equal a
// fresh row, and every row it answers must equal the from-scratch eager
// oracle on the current ground truth — if a rule ever keeps a row the change
// moved, the comparison catches it. An unbounded and a MaxRows=2 bounded
// table run the same trace side by side, so LRU eviction interleaved with
// mutation-driven invalidation is fuzzed against the same oracle, and the
// bound itself is asserted after every op. After every explicit flush the
// lazy table's freeze, patched in place, must describe the same graph as a
// fresh FreezeGraph, as in FuzzIncrementalArcChanged. Before each batch of
// mutations (the ops since the last read or flush) a snapshot of each table
// reads a seeded subset of rows, so the kept-row and freeze checks cover the
// rows the live tables adopt from it, and each snapshot must keep answering
// like the graph as of the snapshot. Any byte string is a valid trace: three
// bytes per op, first byte selects the op.
func FuzzLazyInvalidation(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 0, 0, 1, 2, 5, 0, 0})           // read, grow, re-read
	f.Add([]byte{5, 3, 0, 1, 3, 9, 7, 2, 3})           // read, reduce, metric
	f.Add([]byte{3, 9, 1, 4, 0, 0, 3, 2, 7})           // join, leave, join
	f.Add([]byte{5, 1, 0, 6, 0, 0, 1, 1, 60, 5, 1, 0}) // read, flush, saturate, read
	f.Add([]byte{4, 1, 1, 4, 2, 2, 4, 3, 3, 4, 4, 4})  // drain the graph
	f.Add([]byte{5, 0, 0, 5, 1, 1, 5, 2, 2, 2, 1, 2})  // fill past the bound, re-add
	f.Add([]byte{5, 0, 0, 5, 3, 0, 2, 2, 3, 5, 4, 0, 2, 2, 3, 5, 0, 0})
	f.Fuzz(func(t *testing.T, trace []byte) {
		if len(trace) > 48 { // 16 ops x full-table oracle compare is plenty
			trace = trace[:48]
		}
		g := fuzzBaseGraph()
		lt := New(g, Options{Lazy: true})
		bounded := New(g, Options{Lazy: true, MaxRows: 2})
		lts := []*AllPairs{lt, bounded}
		var snaps []*AllPairs
		var pinned *AllPairs // the eager oracle as of the snapshots
		requireSnapsPinned := func(op int) {
			for _, s := range snaps {
				if !TablesEqual(s, pinned) || !TablesEqual(pinned, s) {
					t.Fatalf("op %d: a snapshot diverged from the graph as of the snapshot", op)
				}
			}
		}
		batch := false // a mutation since the last read or flush
		next := 100
		for i := 0; i+2 < len(trace); i += 3 {
			op, x, y := trace[i], trace[i+1], trace[i+2]
			if op%8 <= 4 && !batch {
				// Before each batch a pinned snapshot of each table reads a
				// seeded subset of rows, most of them never computed live;
				// the batch's first report adopts them.
				requireSnapsPinned(i / 3)
				snaps, pinned = snaps[:0], ComputeAllPairsWorkers(g, 1)
				for _, l := range lts {
					s := l.Snapshot()
					for k, n := range g.Nodes() {
						if (k+int(x)+int(y))%3 != 0 {
							s.From(n)
						}
					}
					snaps = append(snaps, s)
				}
			}
			batch = op%8 <= 4
			if !applyArcFuzzOp(g, []*AllPairs{lt, bounded}, op, x, y, &next) {
				nodes := g.Nodes()
				if len(nodes) == 0 {
					continue
				}
				pick := func(b byte) int { return nodes[int(b)%len(nodes)] }
				for _, l := range lts {
					switch op % 8 {
					case 5: // read one row
						l.From(pick(x))
					case 6: // explicit flush (evict-only; must run no routing)
						before := l.Stats().Computed
						l.Flush()
						if l.Stats().Computed != before {
							t.Fatalf("op %d: lazy flush ran routing kernels", i/3)
						}
						requirePatchedFreeze(t, l, g, i/3)
					case 7: // read a metric and a path
						l.Metric(pick(x), pick(y))
						l.Path(pick(y), pick(x))
					}
				}
			}
			requireKeptRowsFresh(t, lt, g, i/3)
			requireKeptRowsFresh(t, bounded, g, i/3)
			want := ComputeAllPairsWorkers(g, 1)
			if !TablesEqual(lt, want) || !TablesEqual(want, lt) {
				t.Fatalf("op %d (byte %d): lazy table diverged from eager oracle", i/3, op%8)
			}
			if rows := bounded.ComputedRows(); len(rows) > 2 {
				t.Fatalf("op %d: bounded table holds %v, over MaxRows 2", i/3, rows)
			}
			if len(snaps) > 0 {
				if rows := snaps[1].ComputedRows(); len(rows) > 2 {
					t.Fatalf("op %d: bounded snapshot holds %v, over MaxRows 2", i/3, rows)
				}
			}
			if !TablesEqual(bounded, want) || !TablesEqual(want, bounded) {
				t.Fatalf("op %d (byte %d): bounded lazy table diverged from eager oracle", i/3, op%8)
			}
		}
		requireSnapsPinned(len(trace) / 3)
	})
}

// requirePatchedFreeze fails unless the table's freeze says what a
// fresh freeze of g says: per node the same usable arcs (target, bandwidth,
// latency) in any order, usable-latency bounds that contain the fresh ones,
// and, in eager mode, a view whose rows are the freeze's rows sorted widest
// first over a palette holding every usable bandwidth.
func requirePatchedFreeze(t *testing.T, inc *AllPairs, g Graph, op int) {
	t.Helper()
	if inc.live.refreeze != "" {
		return // a re-freeze waits for a row that needs it
	}
	fz, view, fresh := inc.frozen, inc.live.view, FreezeGraph(g)
	if view != nil && (view.g != fz || view.gen != fz.Gen) {
		t.Fatalf("op %d: the view was derived from another freeze", op)
	}
	type arc struct {
		to      int
		bw, lat int64
	}
	usable := func(c *csr.Graph, i int32) []arc {
		var out []arc
		for e := c.Off[i]; e < c.Off[i+1]; e++ {
			if c.BW[e] > 0 {
				out = append(out, arc{c.ID(c.To[e]), c.BW[e], c.Lat[e]})
			}
		}
		slices.SortFunc(out, func(a, b arc) int {
			return cmp.Or(cmp.Compare(a.to, b.to), cmp.Compare(a.bw, b.bw), cmp.Compare(a.lat, b.lat))
		})
		return out
	}
	for i := int32(0); i < int32(fresh.Len()); i++ {
		j, ok := fz.Index(fresh.ID(i))
		if !ok {
			t.Fatalf("op %d: node %d missing from the patched freeze", op, fresh.ID(i))
		}
		if got, want := usable(fz, j), usable(fresh, i); !slices.Equal(got, want) {
			t.Fatalf("op %d: node %d arcs %v in the patched freeze, %v fresh", op, fresh.ID(i), got, want)
		}
		if view == nil {
			continue
		}
		if row := view.bw[fz.Off[j]:fz.Off[j+1]]; !slices.IsSortedFunc(row, func(a, b int64) int { return cmp.Compare(b, a) }) {
			t.Fatalf("op %d: view row of node %d not widest first: %v", op, fresh.ID(i), row)
		}
	}
	if fresh.MinLat < fresh.MaxLat && (fz.MinLat > fresh.MinLat || fz.MaxLat < fresh.MaxLat) {
		t.Fatalf("op %d: patched latency bounds [%d, %d] miss fresh [%d, %d]", op, fz.MinLat, fz.MaxLat, fresh.MinLat, fresh.MaxLat)
	}
	if view != nil && len(view.palette) > 0 {
		for _, bw := range fresh.BW {
			if k := palettePos(view.palette, bw); bw > 0 && (k == len(view.palette) || view.palette[k] != bw) {
				t.Fatalf("op %d: bandwidth %d missing from the palette %v", op, bw, view.palette)
			}
		}
	}
}

// FuzzIncrementalArcChanged is FuzzLazyInvalidation's eager twin: the same
// arc-delta grammar against an eager table, whose flushes patch their
// private freeze in place whenever the batch kept the node set. After every
// op every row the table kept must equal a fresh row; after every flush the
// table must equal a from-scratch computation and the patched freeze must
// describe the same graph as a fresh FreezeGraph.
func FuzzIncrementalArcChanged(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 6, 0, 0, 1, 1, 2, 6, 0, 0})  // grow, flush, reduce, flush
	f.Add([]byte{1, 1, 60, 6, 0, 0, 2, 1, 2, 6, 0, 0}) // saturate, flush, re-add, flush
	f.Add([]byte{3, 9, 1, 6, 0, 0, 4, 0, 0, 6, 0, 0})  // join, flush, leave, flush
	f.Add([]byte{2, 0, 3, 6, 0, 0, 2, 0, 3, 2, 0, 3, 6, 0, 0})
	f.Fuzz(func(t *testing.T, trace []byte) {
		if len(trace) > 48 {
			trace = trace[:48]
		}
		g := fuzzBaseGraph()
		inc := New(g, Options{Workers: 1})
		next := 100
		for i := 0; i+2 < len(trace); i += 3 {
			if !applyArcFuzzOp(g, []*AllPairs{inc}, trace[i], trace[i+1], trace[i+2], &next) && trace[i]%8 == 6 {
				inc.Flush()
				requirePatchedFreeze(t, inc, g, i/3)
			}
			requireKeptRowsFresh(t, inc, g, i/3)
		}
		assertMatchesScratch(t, inc, g)
		requirePatchedFreeze(t, inc, g, len(trace)/3)
	})
}
