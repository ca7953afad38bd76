package flow

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sflow/internal/qos"
)

// randomFlow builds a structurally consistent random flow graph over a chain
// requirement of n services.
func randomFlow(rng *rand.Rand, n int) *Graph {
	g := New()
	for sid := 1; sid < n; sid++ {
		from := sid * 10
		to := (sid + 1) * 10
		path := []int{from}
		for hops := rng.Intn(3); hops > 0; hops-- {
			path = append(path, 1000+rng.Intn(100))
		}
		path = append(path, to)
		_ = g.AddEdge(Edge{
			FromSID: sid, ToSID: sid + 1,
			FromNID: from, ToNID: to,
			Path: path,
			Metric: qos.Metric{
				Bandwidth: int64(1 + rng.Intn(1000)),
				Latency:   int64(rng.Intn(5000)),
			},
		})
	}
	return g
}

func TestPropertyJSONRoundTripPreservesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		g := randomFlow(rng, 2+rng.Intn(8))
		data, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		var back Graph
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(g.Edges(), back.Edges()) {
			t.Fatalf("trial %d: edges changed", trial)
		}
		if !reflect.DeepEqual(g.Assignment(), back.Assignment()) {
			t.Fatalf("trial %d: assignment changed", trial)
		}
		// Double round trip is stable.
		data2, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(data2) {
			t.Fatalf("trial %d: marshalling not canonical", trial)
		}
	}
}

func TestPropertyMergeIsIdempotentAndCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		g := randomFlow(rng, 3+rng.Intn(6))
		// Split edges into two overlapping halves.
		a, b := New(), New()
		for i, e := range g.Edges() {
			if i%2 == 0 || rng.Intn(2) == 0 {
				if err := a.AddEdge(e); err != nil {
					t.Fatal(err)
				}
			}
			if i%2 == 1 || rng.Intn(2) == 0 {
				if err := b.AddEdge(e); err != nil {
					t.Fatal(err)
				}
			}
		}
		ab := a.Clone()
		if err := ab.Merge(b); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ba := b.Clone()
		if err := ba.Merge(a); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(ab.Edges(), ba.Edges()) {
			t.Fatalf("trial %d: merge not commutative", trial)
		}
		// Merging again changes nothing.
		again := ab.Clone()
		if err := again.Merge(b); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Edges(), ab.Edges()) {
			t.Fatalf("trial %d: merge not idempotent", trial)
		}
	}
}

func TestPropertyCorrectnessCoefficientBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 50; trial++ {
		opt := randomFlow(rng, 3+rng.Intn(6))
		probe := New()
		for sid, nid := range opt.Assignment() {
			if rng.Intn(2) == 0 {
				_ = probe.Assign(sid, nid)
			} else {
				_ = probe.Assign(sid, nid+1) // wrong instance
			}
		}
		cc := probe.CorrectnessCoefficient(opt)
		if cc < 0 || cc > 1 {
			t.Fatalf("trial %d: coefficient %v out of [0,1]", trial, cc)
		}
		if got := opt.CorrectnessCoefficient(opt); got != 1 {
			t.Fatalf("trial %d: self coefficient %v", trial, got)
		}
	}
}

// TestMarshalJSONMatchesEncodingJSON holds the hand encoder to the bytes
// encoding/json produces for the wire form, including the negative and
// extreme integers and the empty graph.
func TestMarshalJSONMatchesEncodingJSON(t *testing.T) {
	reflective := func(g *Graph) []byte {
		as := make([]assignJSON, 0, len(g.assign))
		for _, sid := range sortedKeys(g.assign) {
			as = append(as, assignJSON{SID: sid, NID: g.assign[sid]})
		}
		data, err := json.Marshal(flowJSON{Assign: as, Edges: g.Edges()})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	graphs := []*Graph{New()}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		graphs = append(graphs, randomFlow(rng, 2+rng.Intn(8)))
	}
	extreme := New()
	_ = extreme.AddEdge(Edge{FromSID: -3, ToSID: 1 << 62, FromNID: -1 << 63, ToNID: 1<<63 - 1,
		Path: []int{-1 << 63, 0, 1<<63 - 1}, Metric: qos.Metric{Bandwidth: 1<<63 - 1, Latency: -1 << 63}})
	_ = extreme.Assign(7, 0)
	graphs = append(graphs, extreme)
	for i, g := range graphs {
		got, err := g.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if want := reflective(g); string(got) != string(want) {
			t.Fatalf("graph %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

func sortedKeys(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
