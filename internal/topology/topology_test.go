package topology

import (
	"math/rand"
	"testing"

	"sflow/internal/qos"
)

func TestAddLinkValidation(t *testing.T) {
	nw := New(3)
	tests := []struct {
		name       string
		a, b       int
		bw, lat    int64
		wantOK     bool
		prepDupSet bool
	}{
		{name: "valid", a: 0, b: 1, bw: 100, lat: 5, wantOK: true},
		{name: "self loop", a: 1, b: 1, bw: 100, lat: 5},
		{name: "out of range", a: 0, b: 3, bw: 100, lat: 5},
		{name: "negative node", a: -1, b: 1, bw: 100, lat: 5},
		{name: "zero bandwidth", a: 1, b: 2, bw: 0, lat: 5},
		{name: "negative latency", a: 1, b: 2, bw: 100, lat: -1},
		{name: "duplicate", a: 0, b: 1, bw: 50, lat: 5},
		{name: "duplicate reversed", a: 1, b: 0, bw: 50, lat: 5},
	}
	for _, tt := range tests {
		err := nw.AddLink(tt.a, tt.b, tt.bw, tt.lat)
		if (err == nil) != tt.wantOK {
			t.Errorf("%s: AddLink err = %v, wantOK = %v", tt.name, err, tt.wantOK)
		}
	}
}

func TestLinkIsBidirectional(t *testing.T) {
	nw := New(2)
	if err := nw.AddLink(0, 1, 100, 7); err != nil {
		t.Fatal(err)
	}
	want := []qos.Arc{{To: 1, Bandwidth: 100, Latency: 7}}
	if got := nw.Out(0); len(got) != 1 || got[0] != want[0] {
		t.Fatalf("Out(0) = %v", got)
	}
	if got := nw.Out(1); len(got) != 1 || got[0].To != 0 {
		t.Fatalf("Out(1) = %v", got)
	}
	if !nw.HasLink(0, 1) || !nw.HasLink(1, 0) {
		t.Fatal("HasLink should be symmetric")
	}
	if nw.Degree(0) != 1 || nw.Degree(1) != 1 {
		t.Fatal("degree wrong")
	}
}

func TestConnected(t *testing.T) {
	nw := New(4)
	if nw.Connected() {
		t.Fatal("empty 4-node network reported connected")
	}
	nw.AddLink(0, 1, 1, 1)
	nw.AddLink(2, 3, 1, 1)
	if nw.Connected() {
		t.Fatal("two components reported connected")
	}
	nw.AddLink(1, 2, 1, 1)
	if !nw.Connected() {
		t.Fatal("connected network reported disconnected")
	}
	if !New(1).Connected() || !New(0).Connected() {
		t.Fatal("trivial networks should be connected")
	}
}

func TestGenerateUniform(t *testing.T) {
	for _, n := range []int{2, 5, 10, 50} {
		rng := rand.New(rand.NewSource(int64(n)))
		nw, err := GenerateUniform(rng, Config{Nodes: n, ExtraLinks: n})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if nw.Size() != n {
			t.Fatalf("n=%d: size %d", n, nw.Size())
		}
		if !nw.Connected() {
			t.Fatalf("n=%d: not connected", n)
		}
		if len(nw.Links()) < n-1 {
			t.Fatalf("n=%d: fewer links than spanning tree", n)
		}
		for _, l := range nw.Links() {
			if l.Bandwidth < 1000 || l.Bandwidth > 10000 {
				t.Fatalf("bandwidth %d out of default range", l.Bandwidth)
			}
			if l.Latency < 100 || l.Latency > 5000 {
				t.Fatalf("latency %d out of default range", l.Latency)
			}
		}
	}
}

func TestGenerateUniformDeterministic(t *testing.T) {
	a, err := GenerateUniform(rand.New(rand.NewSource(99)), Config{Nodes: 20, ExtraLinks: -1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateUniform(rand.New(rand.NewSource(99)), Config{Nodes: 20, ExtraLinks: -1})
	if err != nil {
		t.Fatal(err)
	}
	la, lb := a.SortLinks(), b.SortLinks()
	if len(la) != len(lb) {
		t.Fatalf("different link counts: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("link %d differs: %+v vs %+v", i, la[i], lb[i])
		}
	}
}

func TestGenerateUniformRejectsBadConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := GenerateUniform(rng, Config{Nodes: 1}); err == nil {
		t.Fatal("accepted 1-node config")
	}
	if _, err := GenerateUniform(rng, Config{Nodes: 5, MinBandwidth: 10, MaxBandwidth: 5}); err == nil {
		t.Fatal("accepted inverted bandwidth range")
	}
	if _, err := GenerateUniform(rng, Config{Nodes: 5, MinLatency: 10, MaxLatency: 5, MinBandwidth: 1, MaxBandwidth: 2}); err == nil {
		t.Fatal("accepted inverted latency range")
	}
}

func TestGenerateWaxman(t *testing.T) {
	for _, n := range []int{2, 10, 40} {
		rng := rand.New(rand.NewSource(int64(n) * 3))
		nw, err := GenerateWaxman(rng, WaxmanConfig{Config: Config{Nodes: n, ExtraLinks: -1}})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !nw.Connected() {
			t.Fatalf("n=%d: waxman network not connected", n)
		}
		for _, l := range nw.Links() {
			if l.Latency < 100 || l.Latency > 5000 {
				t.Fatalf("latency %d out of range", l.Latency)
			}
		}
	}
}

func TestGeneratedNetworkIsRoutable(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	nw, err := GenerateUniform(rng, Config{Nodes: 30, ExtraLinks: 30})
	if err != nil {
		t.Fatal(err)
	}
	res := qos.ShortestWidestCSR(qos.FreezeGraph(nw), 0, nil)
	for n := 0; n < 30; n++ {
		if !res.Metric(n).Reachable() {
			t.Fatalf("node %d unreachable in connected network", n)
		}
	}
}

func TestSortLinksStable(t *testing.T) {
	nw := New(4)
	nw.AddLink(2, 3, 1, 1)
	nw.AddLink(0, 1, 1, 1)
	nw.AddLink(1, 3, 1, 1)
	s := nw.SortLinks()
	for i := 1; i < len(s); i++ {
		if s[i-1].A > s[i].A || (s[i-1].A == s[i].A && s[i-1].B > s[i].B) {
			t.Fatalf("not sorted: %+v", s)
		}
	}
	if len(nw.Links()) != 3 {
		t.Fatal("SortLinks must not mutate")
	}
}
