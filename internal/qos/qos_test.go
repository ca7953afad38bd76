package qos

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// testGraph is a simple adjacency-map implementation of Graph.
type testGraph struct {
	adj map[int][]Arc
}

func newTestGraph() *testGraph { return &testGraph{adj: make(map[int][]Arc)} }

func (g *testGraph) addNode(n int) {
	if _, ok := g.adj[n]; !ok {
		g.adj[n] = nil
	}
}

func (g *testGraph) addArc(u, v int, bw, lat int64) {
	g.addNode(u)
	g.addNode(v)
	g.adj[u] = append(g.adj[u], Arc{To: v, Bandwidth: bw, Latency: lat})
}

func (g *testGraph) Nodes() []int {
	out := make([]int, 0, len(g.adj))
	for n := range g.adj {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

func (g *testGraph) Out(u int) []Arc { return g.adj[u] }

func TestMetricOrder(t *testing.T) {
	tests := []struct {
		a, b Metric
		want bool // a.Better(b)
	}{
		{Metric{100, 50}, Metric{90, 1}, true},   // wider wins despite latency
		{Metric{90, 1}, Metric{100, 50}, false},  // narrower loses
		{Metric{100, 10}, Metric{100, 20}, true}, // equal width: shorter wins
		{Metric{100, 20}, Metric{100, 10}, false},
		{Metric{100, 10}, Metric{100, 10}, false}, // equal is not better
		{Empty, Metric{100, 0}, true},             // empty path is widest
		{Metric{1, 0}, Unreachable, true},
	}
	for i, tt := range tests {
		if got := tt.a.Better(tt.b); got != tt.want {
			t.Errorf("case %d: %v.Better(%v) = %v, want %v", i, tt.a, tt.b, got, tt.want)
		}
	}
}

func TestMetricExtendConcat(t *testing.T) {
	m := Empty.Extend(100, 5).Extend(40, 7)
	if m != (Metric{Bandwidth: 40, Latency: 12}) {
		t.Fatalf("Extend chain = %+v", m)
	}
	c := Metric{50, 3}.Concat(Metric{60, 4})
	if c != (Metric{Bandwidth: 50, Latency: 7}) {
		t.Fatalf("Concat = %+v", c)
	}
	if Unreachable.Concat(Metric{60, 4}).Reachable() {
		t.Fatal("Concat with unreachable must be unreachable")
	}
	if Unreachable.Reachable() || !Empty.Reachable() {
		t.Fatal("Reachable predicates wrong")
	}
}

// The canonical shortest-widest example: two routes, one wider but longer.
func TestShortestWidestPrefersWider(t *testing.T) {
	g := newTestGraph()
	g.addArc(1, 2, 100, 10)
	g.addArc(2, 4, 100, 10)
	g.addArc(1, 3, 50, 1)
	g.addArc(3, 4, 50, 1)
	res := shortestWidestRef(g, 1)
	if got := res.Metric(4); got != (Metric{Bandwidth: 100, Latency: 20}) {
		t.Fatalf("Metric(4) = %+v, want {100 20}", got)
	}
	if want := []int{1, 2, 4}; !reflect.DeepEqual(res.PathTo(4), want) {
		t.Fatalf("PathTo(4) = %v, want %v", res.PathTo(4), want)
	}
}

func TestShortestWidestTieBreaksOnLatency(t *testing.T) {
	g := newTestGraph()
	g.addArc(1, 2, 100, 50)
	g.addArc(2, 4, 100, 50)
	g.addArc(1, 3, 100, 5)
	g.addArc(3, 4, 100, 5)
	res := shortestWidestRef(g, 1)
	if got := res.Metric(4); got != (Metric{Bandwidth: 100, Latency: 10}) {
		t.Fatalf("Metric(4) = %+v, want {100 10}", got)
	}
	if want := []int{1, 3, 4}; !reflect.DeepEqual(res.PathTo(4), want) {
		t.Fatalf("PathTo(4) = %v, want %v", res.PathTo(4), want)
	}
}

func TestShortestWidestUnreachable(t *testing.T) {
	g := newTestGraph()
	g.addArc(1, 2, 10, 1)
	g.addNode(3)
	res := shortestWidestRef(g, 1)
	if res.Metric(3).Reachable() {
		t.Fatal("node 3 should be unreachable")
	}
	if res.PathTo(3) != nil {
		t.Fatal("PathTo unreachable should be nil")
	}
	if got := res.PathTo(1); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("PathTo(self) = %v, want [1]", got)
	}
	if res.Metric(1) != Empty {
		t.Fatalf("Metric(self) = %+v, want Empty", res.Metric(1))
	}
}

func TestShortestWidestIgnoresDeadLinks(t *testing.T) {
	g := newTestGraph()
	g.addArc(1, 2, 0, 1)  // zero bandwidth: unusable
	g.addArc(1, 2, -5, 1) // negative: unusable
	res := shortestWidestRef(g, 1)
	if res.Metric(2).Reachable() {
		t.Fatal("dead link must not be used")
	}
}

// bruteForce finds the best metric over all simple paths by exhaustive DFS.
func bruteForce(g *testGraph, src, dst int) Metric {
	best := Unreachable
	onPath := map[int]bool{src: true}
	var dfs func(u int, m Metric)
	dfs = func(u int, m Metric) {
		if u == dst {
			if m.Better(best) {
				best = m
			}
			return
		}
		for _, a := range g.adj[u] {
			if a.Bandwidth <= 0 || onPath[a.To] {
				continue
			}
			onPath[a.To] = true
			dfs(a.To, m.Extend(a.Bandwidth, a.Latency))
			onPath[a.To] = false
		}
	}
	if src == dst {
		return Empty
	}
	dfs(src, Empty)
	return best
}

func randomGraph(rng *rand.Rand, n int, p float64) *testGraph {
	g := newTestGraph()
	for i := 0; i < n; i++ {
		g.addNode(i)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < p {
				g.addArc(i, j, int64(1+rng.Intn(100)), int64(rng.Intn(1000)))
			}
		}
	}
	return g
}

func TestShortestWidestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(8)
		g := randomGraph(rng, n, 0.4)
		src := rng.Intn(n)
		res := shortestWidestRef(g, src)
		for dst := 0; dst < n; dst++ {
			want := bruteForce(g, src, dst)
			got := res.Metric(dst)
			if want.Reachable() != got.Reachable() {
				t.Fatalf("trial %d: reachability %d->%d: got %+v want %+v", trial, src, dst, got, want)
			}
			if !want.Reachable() {
				continue
			}
			// Dijkstra must achieve the same width; at that width the
			// same (minimal) latency.
			if got != want {
				t.Fatalf("trial %d: metric %d->%d: got %+v want %+v", trial, src, dst, got, want)
			}
			// And the reported path must realise the reported metric.
			if m := pathMetric(g, res.PathTo(dst)); m != got {
				t.Fatalf("trial %d: path %v realises %+v, reported %+v",
					trial, res.PathTo(dst), m, got)
			}
		}
	}
}

// pathMetric recomputes the metric of a concrete path on g.
func pathMetric(g *testGraph, path []int) Metric {
	m := Empty
	for i := 0; i+1 < len(path); i++ {
		found := false
		best := Unreachable
		for _, a := range g.adj[path[i]] {
			if a.To == path[i+1] && a.Bandwidth > 0 {
				cand := Metric{a.Bandwidth, a.Latency}
				if !found || cand.Better(best) {
					best = cand
					found = true
				}
			}
		}
		if !found {
			return Unreachable
		}
		m = m.Concat(best)
	}
	return m
}

func TestAllPairsConsistentWithSingleSource(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 12, 0.3)
	ap := ComputeAllPairsWorkers(g, 0)
	if got := len(ap.Sources()); got != 12 {
		t.Fatalf("Sources = %d, want 12", got)
	}
	for _, src := range g.Nodes() {
		single := shortestWidestRef(g, src)
		for _, dst := range g.Nodes() {
			if ap.Metric(src, dst) != single.Metric(dst) {
				t.Fatalf("AllPairs(%d,%d) = %+v, single = %+v",
					src, dst, ap.Metric(src, dst), single.Metric(dst))
			}
			if !reflect.DeepEqual(ap.Path(src, dst), single.PathTo(dst)) {
				t.Fatalf("AllPairs path mismatch %d->%d", src, dst)
			}
		}
	}
	if ap.Metric(999, 0).Reachable() {
		t.Fatal("unknown source should be unreachable")
	}
	if ap.Path(999, 0) != nil {
		t.Fatal("unknown source path should be nil")
	}
	if ap.From(0) == nil || ap.From(999) != nil {
		t.Fatal("From lookup wrong")
	}
}

func TestShortestLatencyPrefersShortOverWide(t *testing.T) {
	g := newTestGraph()
	g.addArc(1, 2, 100, 10)
	g.addArc(2, 4, 100, 10)
	g.addArc(1, 4, 20, 1) // narrow but direct
	res := shortestLatencyRef(g, 1)
	if got := res.Metric(4); got != (Metric{Bandwidth: 20, Latency: 1}) {
		t.Fatalf("Metric(4) = %+v, want {20 1}", got)
	}
	if want := []int{1, 4}; !reflect.DeepEqual(res.PathTo(4), want) {
		t.Fatalf("PathTo(4) = %v", res.PathTo(4))
	}
	// Contrast with shortest-widest, which takes the wide detour.
	sw := shortestWidestRef(g, 1)
	if got := sw.Metric(4); got != (Metric{Bandwidth: 100, Latency: 20}) {
		t.Fatalf("shortest-widest Metric(4) = %+v", got)
	}
}

func TestShortestLatencyMatchesBruteForce(t *testing.T) {
	// The latency of shortestLatencyRef must equal the minimum over all
	// paths; the bandwidth must be realised by the reported path.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(7)
		g := randomGraph(rng, n, 0.4)
		src := rng.Intn(n)
		res := shortestLatencyRef(g, src)
		for dst := 0; dst < n; dst++ {
			got := res.Metric(dst)
			reachable := got.Reachable()
			brute := bruteMinLatency(g, src, dst)
			if reachable != (brute >= 0) {
				t.Fatalf("trial %d: reachability mismatch %d->%d", trial, src, dst)
			}
			if !reachable {
				continue
			}
			if got.Latency != brute {
				t.Fatalf("trial %d: latency %d->%d = %d, brute %d", trial, src, dst, got.Latency, brute)
			}
			if m := pathMetric(g, res.PathTo(dst)); m.Bandwidth != got.Bandwidth || m.Latency != got.Latency {
				t.Fatalf("trial %d: path realises %+v, reported %+v", trial, m, got)
			}
		}
	}
}

// bruteMinLatency returns the minimum total latency over all simple paths,
// or -1 if unreachable.
func bruteMinLatency(g *testGraph, src, dst int) int64 {
	if src == dst {
		return 0
	}
	best := int64(-1)
	onPath := map[int]bool{src: true}
	var dfs func(u int, lat int64)
	dfs = func(u int, lat int64) {
		if u == dst {
			if best < 0 || lat < best {
				best = lat
			}
			return
		}
		for _, a := range g.adj[u] {
			if a.Bandwidth <= 0 || onPath[a.To] {
				continue
			}
			onPath[a.To] = true
			dfs(a.To, lat+a.Latency)
			onPath[a.To] = false
		}
	}
	dfs(src, 0)
	return best
}

func TestQuickMetricOrderIsStrictWeak(t *testing.T) {
	// Better must be irreflexive and asymmetric, and exactly one of
	// a.Better(b), b.Better(a), a==b must hold.
	f := func(ab, al, bb, bl uint16) bool {
		a := Metric{Bandwidth: int64(ab), Latency: int64(al)}
		b := Metric{Bandwidth: int64(bb), Latency: int64(bl)}
		if a.Better(a) || b.Better(b) {
			return false
		}
		n := 0
		if a.Better(b) {
			n++
		}
		if b.Better(a) {
			n++
		}
		if a == b {
			n++
		}
		return n == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickExtendNeverImproves(t *testing.T) {
	// Extending a path can never make it wider, and never shorter.
	f := func(mb, ml, bw uint16, lat uint8) bool {
		m := Metric{Bandwidth: int64(mb) + 1, Latency: int64(ml)}
		e := m.Extend(int64(bw)+1, int64(lat))
		return e.Bandwidth <= m.Bandwidth && e.Latency >= m.Latency
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
