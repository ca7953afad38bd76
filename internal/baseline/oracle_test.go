package baseline

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sflow/internal/abstract"
	"sflow/internal/flow"
	"sflow/internal/overlay"
	"sflow/internal/qos"
	"sflow/internal/require"
)

// oracleSolveChain is SolveChain as it was before the layered DP: the chain's
// layered graph as a map-adjacency qos.Graph, solved by a shortest-widest
// Dijkstra (the CSR kernel, itself pinned to qos's map oracle). The DP must
// answer exactly what it answers.
func oracleSolveChain(ag *abstract.Graph, chain []int, src int, pins map[int]int) (*Result, error) {
	if len(chain) < 2 {
		return nil, fmt.Errorf("baseline: chain %v too short", chain)
	}
	if got := ag.Overlay().SIDOf(src); got != chain[0] {
		return nil, fmt.Errorf("baseline: source instance %d provides service %d, chain starts at %d",
			src, got, chain[0])
	}
	layers := make([][]int, len(chain))
	layers[0] = []int{src}
	for i := 1; i < len(chain); i++ {
		sid := chain[i]
		if nid, ok := pins[sid]; ok {
			if got := ag.Overlay().SIDOf(nid); got != sid {
				return nil, fmt.Errorf("baseline: pin %d for service %d provides service %d", nid, sid, got)
			}
			layers[i] = []int{nid}
		} else {
			layers[i] = ag.Slots(sid)
		}
		if len(layers[i]) == 0 {
			return nil, fmt.Errorf("baseline: no candidate instance for service %d", sid)
		}
	}
	res := qos.ShortestWidestCSR(qos.FreezeGraph(newLayeredGraph(ag, layers)), src, nil)
	best, bestMetric := -1, qos.Unreachable
	for _, nid := range layers[len(layers)-1] {
		if m := res.Metric(nid); m.Reachable() && (best == -1 || m.Better(bestMetric)) {
			best, bestMetric = nid, m
		}
	}
	if best == -1 {
		return nil, ErrInfeasible
	}
	path := res.PathTo(best)
	fg := flow.New()
	for i := 0; i+1 < len(path); i++ {
		from, to := path[i], path[i+1]
		if err := fg.AddEdge(flow.Edge{
			FromSID: chain[i], ToSID: chain[i+1], FromNID: from, ToNID: to,
			Path: ag.EdgePath(from, to), Metric: ag.EdgeMetric(from, to),
		}); err != nil {
			return nil, err
		}
	}
	return &Result{Flow: fg, Metric: bestMetric}, nil
}

// layeredGraph exposes the abstract graph of a path requirement as a
// qos.Graph whose arcs go from each layer to the next.
type layeredGraph struct {
	nodes []int
	out   map[int][]qos.Arc
}

func newLayeredGraph(ag *abstract.Graph, layers [][]int) *layeredGraph {
	lg := &layeredGraph{out: make(map[int][]qos.Arc)}
	seen := make(map[int]struct{})
	for i, layer := range layers {
		for _, nid := range layer {
			if _, dup := seen[nid]; !dup {
				seen[nid] = struct{}{}
				lg.nodes = append(lg.nodes, nid)
			}
			if i+1 >= len(layers) {
				continue
			}
			for _, next := range layers[i+1] {
				m := ag.EdgeMetric(nid, next)
				if !m.Reachable() || next == nid {
					continue
				}
				lg.out[nid] = append(lg.out[nid], qos.Arc{To: next, Bandwidth: m.Bandwidth, Latency: m.Latency})
			}
		}
	}
	sort.Ints(lg.nodes)
	return lg
}

func (lg *layeredGraph) Nodes() []int        { return lg.nodes }
func (lg *layeredGraph) Out(u int) []qos.Arc { return lg.out[u] }

// tiedChain builds a path requirement 1->...->services over an overlay whose
// links draw bandwidth and latency from two-value palettes, so equal widths
// and equal latencies — the places where only the tie-break decides the path
// — are everywhere. A few bridging instances of service 99 add multi-hop
// abstract edges.
func tiedChain(rng *rand.Rand, services, inst int, bw, lat [2]int64) (*abstract.Graph, []int, error) {
	o := overlay.New()
	chain := make([]int, services)
	nid := 0
	bySID := map[int][]int{}
	for i := range chain {
		chain[i] = i + 1
		n := 1 + rng.Intn(inst)
		for k := 0; k < n; k++ {
			if err := o.AddInstance(nid, i+1, -1); err != nil {
				return nil, nil, err
			}
			bySID[i+1] = append(bySID[i+1], nid)
			nid++
		}
	}
	var bridges []int
	for k := 0; k < 2; k++ {
		if err := o.AddInstance(nid, 99, -1); err != nil {
			return nil, nil, err
		}
		bridges = append(bridges, nid)
		nid++
	}
	link := func(u, v int) error {
		if u == v || o.HasLink(u, v) {
			return nil
		}
		return o.AddLink(u, v, bw[rng.Intn(2)], lat[rng.Intn(2)])
	}
	for i := 1; i < services; i++ {
		for _, u := range bySID[i] {
			for _, v := range bySID[i+1] {
				if rng.Intn(4) > 0 {
					if err := link(u, v); err != nil {
						return nil, nil, err
					}
				}
			}
			for _, b := range bridges {
				if rng.Intn(3) == 0 {
					if err := link(u, b); err != nil {
						return nil, nil, err
					}
					if err := link(b, bySID[i+1][rng.Intn(len(bySID[i+1]))]); err != nil {
						return nil, nil, err
					}
				}
			}
		}
	}
	req, err := require.NewPath(chain...)
	if err != nil {
		return nil, nil, err
	}
	ag, err := abstract.BuildWorkers(o, req, 1)
	return ag, chain, err
}

func flowJSON(t testing.TB, r *Result, err error) string {
	t.Helper()
	if err != nil {
		return "error: " + err.Error()
	}
	data, merr := json.Marshal(r.Flow)
	if merr != nil {
		t.Fatal(merr)
	}
	return fmt.Sprintf("%+v %s", r.Metric, data)
}

// checkDP compares the DP with the oracle on every sub-chain of chain, from
// every instance of its first service: the metric to every last-layer slot
// and the flow to every reachable one against the oracle's solve with that
// slot pinned, and the unpinned SolveChain against the oracle's.
func checkDP(t testing.TB, ag *abstract.Graph, chain []int) {
	t.Helper()
	l := Get()
	defer Put(l)
	for a := 0; a < len(chain); a++ {
		for b := a + 2; b <= len(chain); b++ {
			sub := chain[a:b]
			last := sub[len(sub)-1]
			for _, from := range ag.Slots(sub[0]) {
				l.Reset(ag, sub, nil)
				if err := l.From(from); err != nil {
					t.Fatal(err)
				}
				out := make([]qos.Metric, len(ag.Slots(last)))
				l.Metrics(out)
				for k, to := range ag.Slots(last) {
					want, werr := oracleSolveChain(ag, sub, from, map[int]int{last: to})
					if werr == nil && out[k] != want.Metric || werr != nil && out[k].Reachable() {
						t.Fatalf("chain %v from %d to %d: DP metric %+v, oracle %s", sub, from, to, out[k], flowJSON(t, want, werr))
					}
					if werr != nil {
						continue
					}
					fg := flow.New()
					if err := l.Flow(fg, k); err != nil {
						t.Fatal(err)
					}
					got := flowJSON(t, &Result{Flow: fg, Metric: out[k]}, nil)
					if w := flowJSON(t, want, nil); got != w {
						t.Fatalf("chain %v from %d to %d:\n DP     %s\n oracle %s", sub, from, to, got, w)
					}
				}
				got, gerr := SolveChain(ag, sub, from, nil)
				want, werr := oracleSolveChain(ag, sub, from, nil)
				if g, w := flowJSON(t, got, gerr), flowJSON(t, want, werr); g != w {
					t.Fatalf("chain %v from %d:\n SolveChain %s\n oracle     %s", sub, from, g, w)
				}
			}
		}
	}
}

// TestLayeredDPMatchesOracle is the DP≡oracle property on forced ties: for
// every (chain, from, to) the metric and the assembled path equal the map
// oracle's, including under zero-latency palettes, where Dijkstra's settle
// order inside a latency plateau is not (d, NID) order.
func TestLayeredDPMatchesOracle(t *testing.T) {
	palettes := []struct{ bw, lat [2]int64 }{
		{[2]int64{100, 200}, [2]int64{10, 20}},
		{[2]int64{100, 100}, [2]int64{10, 10}},
		{[2]int64{50, 100}, [2]int64{0, 10}},
		{[2]int64{100, 100}, [2]int64{0, 0}},
	}
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 120; trial++ {
		p := palettes[trial%len(palettes)]
		ag, chain, err := tiedChain(rng, 2+rng.Intn(4), 1+rng.Intn(4), p.bw, p.lat)
		if err != nil {
			t.Fatal(err)
		}
		checkDP(t, ag, chain)
	}
}

// TestLayeredDPReplaysZeroLatencyPlateaus pins the case the (d, NID) order
// gets wrong. Every arc has latency 0, so all nodes share one plateau.
// Dijkstra settles 10, pushes 25, and settles 25 before 30 (25 < 30); 20 is
// pushed only when 30 settles. So 25 settles before 20 and is the
// predecessor of 40, although 20 has the smaller NID.
func TestLayeredDPReplaysZeroLatencyPlateaus(t *testing.T) {
	o := overlay.New()
	for _, in := range [][2]int{{0, 1}, {10, 2}, {30, 2}, {20, 3}, {25, 3}, {40, 4}} {
		if err := o.AddInstance(in[0], in[1], -1); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][2]int{{0, 10}, {0, 30}, {10, 25}, {30, 20}, {20, 40}, {25, 40}} {
		if err := o.AddLink(l[0], l[1], 100, 0); err != nil {
			t.Fatal(err)
		}
	}
	req, err := require.NewPath(1, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := abstract.BuildWorkers(o, req, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := SolveChain(ag, []int{1, 2, 3, 4}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nid, _ := r.Flow.Assigned(3); nid != 25 {
		t.Fatalf("service 3 on %d, want 25 (Dijkstra's settle order)", nid)
	}
	checkDP(t, ag, []int{1, 2, 3, 4})
}

// FuzzLayeredDP runs the DP≡oracle property over fuzz-built tied overlays.
func FuzzLayeredDP(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(3), uint8(0))
	f.Add(int64(7), uint8(5), uint8(4), uint8(2))
	f.Add(int64(9), uint8(4), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, services, inst, palette uint8) {
		lat := [2]int64{int64(palette&1) * 10, 10 + int64(palette&2)*5}
		bw := [2]int64{100, 100 + int64(palette&4)*25}
		rng := rand.New(rand.NewSource(seed))
		ag, chain, err := tiedChain(rng, 2+int(services%5), 1+int(inst%5), bw, lat)
		if err != nil {
			t.Fatal(err)
		}
		checkDP(t, ag, chain)
	})
}

// TestLayeredReadsNoSinkOnlyRow pins the lazy-routing contract: the DP reads
// arcs out of every layer but the last, so a sink-only service's rows are
// never computed.
func TestLayeredReadsNoSinkOnlyRow(t *testing.T) {
	ag, chain, err := tiedChain(rand.New(rand.NewSource(3)), 4, 3, [2]int64{100, 200}, [2]int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	rt := &recordingTable{Table: ag.AllPairs(), read: map[int]bool{}}
	lag, err := abstract.FromAllPairs(ag.Overlay(), ag.Requirement(), rt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveChain(lag, chain, ag.Slots(chain[0])[0], nil); err != nil {
		t.Fatal(err)
	}
	for _, nid := range ag.Slots(chain[len(chain)-1]) {
		if rt.read[nid] {
			t.Fatalf("read the row of sink-only instance %d", nid)
		}
	}
	if len(rt.read) == 0 {
		t.Fatal("no row read at all")
	}
}

type recordingTable struct {
	qos.Table
	read map[int]bool
}

func (r *recordingTable) Metric(src, dst int) qos.Metric {
	r.read[src] = true
	return r.Table.Metric(src, dst)
}
func (r *recordingTable) Path(src, dst int) []int  { r.read[src] = true; return r.Table.Path(src, dst) }
func (r *recordingTable) From(src int) *qos.Result { r.read[src] = true; return r.Table.From(src) }
