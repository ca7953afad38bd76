package overlay

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"sflow/internal/qos"
	"sflow/internal/topology"
)

// chainOverlay builds a small overlay: service 1 instance 10; service 2
// instances 20, 21; service 3 instance 30.
func chainOverlay(t *testing.T) *Overlay {
	t.Helper()
	o := New()
	for _, in := range []Instance{{10, 1, -1}, {20, 2, -1}, {21, 2, -1}, {30, 3, -1}} {
		if err := o.AddInstance(in.NID, in.SID, in.Host); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []Link{
		{10, 20, 100, 5}, {10, 21, 80, 2},
		{20, 30, 60, 4}, {21, 30, 90, 3},
	} {
		if err := o.AddLink(l.From, l.To, l.Bandwidth, l.Latency); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

func TestAddInstanceAndLinkValidation(t *testing.T) {
	o := New()
	if err := o.AddInstance(1, 5, 0); err != nil {
		t.Fatal(err)
	}
	if err := o.AddInstance(1, 6, 0); err == nil {
		t.Fatal("duplicate NID accepted")
	}
	if err := o.AddInstance(2, 5, 1); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name     string
		from, to int
		bw, lat  int64
	}{
		{"unknown from", 9, 2, 10, 1},
		{"unknown to", 1, 9, 10, 1},
		{"self link", 1, 1, 10, 1},
		{"zero bandwidth", 1, 2, 0, 1},
		{"negative latency", 1, 2, 10, -1},
	}
	for _, tt := range tests {
		if err := o.AddLink(tt.from, tt.to, tt.bw, tt.lat); err == nil {
			t.Errorf("%s accepted", tt.name)
		}
	}
	if err := o.AddLink(1, 2, 10, 1); err != nil {
		t.Fatal(err)
	}
	if err := o.AddLink(1, 2, 20, 2); err == nil {
		t.Fatal("duplicate link accepted")
	}
	// Opposite direction is a distinct link.
	if err := o.AddLink(2, 1, 20, 2); err != nil {
		t.Fatalf("reverse link rejected: %v", err)
	}
}

func TestAccessors(t *testing.T) {
	o := chainOverlay(t)
	if o.NumInstances() != 4 || o.NumLinks() != 4 {
		t.Fatalf("sizes: %d instances %d links", o.NumInstances(), o.NumLinks())
	}
	if want := []int{20, 21}; !reflect.DeepEqual(o.InstancesOf(2), want) {
		t.Fatalf("InstancesOf(2) = %v", o.InstancesOf(2))
	}
	if o.SIDOf(21) != 2 || o.SIDOf(99) != -1 {
		t.Fatal("SIDOf wrong")
	}
	if want := []int{1, 2, 3}; !reflect.DeepEqual(o.SIDs(), want) {
		t.Fatalf("SIDs = %v", o.SIDs())
	}
	if want := []int{10, 20, 21, 30}; !reflect.DeepEqual(o.Nodes(), want) {
		t.Fatalf("Nodes = %v", o.Nodes())
	}
	if m, ok := o.LinkMetric(10, 20); !ok || m != (qos.Metric{Bandwidth: 100, Latency: 5}) {
		t.Fatalf("LinkMetric(10,20) = %+v, %v", m, ok)
	}
	if _, ok := o.LinkMetric(20, 10); ok {
		t.Fatal("reverse link should not exist")
	}
	if inst, ok := o.Instance(20); !ok || inst.SID != 2 {
		t.Fatalf("Instance(20) = %+v, %v", inst, ok)
	}
	in := o.In(30)
	if len(in) != 2 {
		t.Fatalf("In(30) = %v", in)
	}
	// mutating the returned copy from InstancesOf must not affect the overlay
	ids := o.InstancesOf(2)
	ids[0] = 999
	if got := o.InstancesOf(2); got[0] != 20 {
		t.Fatal("InstancesOf leaked internal slice")
	}
}

func TestRoutingOverOverlay(t *testing.T) {
	o := chainOverlay(t)
	res := qos.ShortestWidestCSR(qos.FreezeGraph(o), 10, nil)
	// Two routes to 30: via 20 (width 60, lat 9) or via 21 (width 80, lat 5).
	if got := res.Metric(30); got != (qos.Metric{Bandwidth: 80, Latency: 5}) {
		t.Fatalf("Metric(30) = %+v", got)
	}
	if want := []int{10, 21, 30}; !reflect.DeepEqual(res.PathTo(30), want) {
		t.Fatalf("PathTo(30) = %v", res.PathTo(30))
	}
}

func TestLocalView(t *testing.T) {
	o := chainOverlay(t)
	// Add a node beyond two hops: 30 -> 40.
	if err := o.AddInstance(40, 4, -1); err != nil {
		t.Fatal(err)
	}
	if err := o.AddLink(30, 40, 50, 1); err != nil {
		t.Fatal(err)
	}
	v1 := o.LocalView(10, 1)
	if want := []int{10, 20, 21}; !reflect.DeepEqual(v1.Nodes(), want) {
		t.Fatalf("1-hop view = %v", v1.Nodes())
	}
	v2 := o.LocalView(10, 2)
	if want := []int{10, 20, 21, 30}; !reflect.DeepEqual(v2.Nodes(), want) {
		t.Fatalf("2-hop view = %v", v2.Nodes())
	}
	// Links among in-view nodes are preserved with their metrics.
	if m, ok := v2.LinkMetric(21, 30); !ok || m != (qos.Metric{Bandwidth: 90, Latency: 3}) {
		t.Fatalf("view link metric = %+v, %v", m, ok)
	}
	if v2.HasLink(30, 40) {
		t.Fatal("view leaked out-of-view link")
	}
	if o.LocalView(999, 2).NumInstances() != 0 {
		t.Fatal("view of unknown node should be empty")
	}
}

func TestClone(t *testing.T) {
	o := chainOverlay(t)
	c := o.Clone()
	if c.NumInstances() != o.NumInstances() || c.NumLinks() != o.NumLinks() {
		t.Fatal("clone size differs")
	}
	if err := c.AddInstance(99, 9, -1); err != nil {
		t.Fatal(err)
	}
	if o.NumInstances() == c.NumInstances() {
		t.Fatal("clone aliases original")
	}
}

func TestCompatibility(t *testing.T) {
	c := NewCompatibility()
	c.Allow(1, 2)
	c.Allow(2, 3)
	if !c.Compatible(1, 2) || c.Compatible(2, 1) || c.Compatible(1, 3) {
		t.Fatal("compatibility relation wrong")
	}
	if want := [][2]int{{1, 2}, {2, 3}}; !reflect.DeepEqual(c.Pairs(), want) {
		t.Fatalf("Pairs = %v", c.Pairs())
	}
}

func TestBuildFromUnderlay(t *testing.T) {
	// Underlay: 0 -1- 1 -2- 2 in a line, plus 0-2 direct narrow link.
	under := topology.New(3)
	mustLink(t, under, 0, 1, 100, 10)
	mustLink(t, under, 1, 2, 100, 10)
	mustLink(t, under, 0, 2, 20, 1)
	compat := NewCompatibility()
	compat.Allow(1, 2)
	placements := []Placement{
		{NID: 10, SID: 1, Host: 0},
		{NID: 20, SID: 2, Host: 2},
		{NID: 21, SID: 2, Host: 1},
	}
	o, err := Build(under, placements, compat)
	if err != nil {
		t.Fatal(err)
	}
	// 10 -> 20: the underlay routes by latency, so the direct narrow
	// 0-2 link wins (width 20, lat 1) even though a wider route exists —
	// the federation algorithms above are what discover wide detours.
	if m, ok := o.LinkMetric(10, 20); !ok || m != (qos.Metric{Bandwidth: 20, Latency: 1}) {
		t.Fatalf("10->20 metric = %+v, %v", m, ok)
	}
	if m, ok := o.LinkMetric(10, 21); !ok || m != (qos.Metric{Bandwidth: 100, Latency: 10}) {
		t.Fatalf("10->21 metric = %+v, %v", m, ok)
	}
	// No link between incompatible services (2 cannot feed 1), and none
	// between instances of the same service.
	if o.HasLink(20, 10) || o.HasLink(20, 21) || o.HasLink(21, 20) {
		t.Fatal("incompatible link created")
	}
}

func TestBuildColocated(t *testing.T) {
	under := topology.New(2)
	mustLink(t, under, 0, 1, 55, 10)
	compat := NewCompatibility()
	compat.Allow(1, 2)
	o, err := Build(under, []Placement{
		{NID: 1, SID: 1, Host: 0},
		{NID: 2, SID: 2, Host: 0},
	}, compat)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := o.LinkMetric(1, 2)
	if !ok {
		t.Fatal("co-located link missing")
	}
	if m.Latency != 0 {
		t.Fatalf("co-located latency = %d, want 0", m.Latency)
	}
	if m.Bandwidth != 55 {
		t.Fatalf("co-located bandwidth = %d, want host cap 55", m.Bandwidth)
	}
}

func TestBuildRejectsBadPlacement(t *testing.T) {
	under := topology.New(2)
	mustLink(t, under, 0, 1, 10, 1)
	compat := NewCompatibility()
	if _, err := Build(under, []Placement{{NID: 1, SID: 1, Host: 5}}, compat); err == nil {
		t.Fatal("out-of-range host accepted")
	}
	if _, err := Build(under, []Placement{
		{NID: 1, SID: 1, Host: 0}, {NID: 1, SID: 2, Host: 1},
	}, compat); err == nil {
		t.Fatal("duplicate NID accepted")
	}
}

func TestBuildSkipsUnreachableHosts(t *testing.T) {
	under := topology.New(4)
	mustLink(t, under, 0, 1, 10, 1)
	mustLink(t, under, 2, 3, 10, 1) // separate component
	compat := NewCompatibility()
	compat.Allow(1, 2)
	o, err := Build(under, []Placement{
		{NID: 1, SID: 1, Host: 0},
		{NID: 2, SID: 2, Host: 3},
	}, compat)
	if err != nil {
		t.Fatal(err)
	}
	if o.NumLinks() != 0 {
		t.Fatal("link across disconnected underlay components")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	o := chainOverlay(t)
	data, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	var back Overlay
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o.Instances(), back.Instances()) {
		t.Fatal("instances differ after round trip")
	}
	if !reflect.DeepEqual(o.Links(), back.Links()) {
		t.Fatal("links differ after round trip")
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	var o Overlay
	bad := `{"instances":[{"NID":1,"SID":1,"Host":0}],"links":[{"From":1,"To":2,"Bandwidth":5,"Latency":1}]}`
	if err := json.Unmarshal([]byte(bad), &o); err == nil {
		t.Fatal("link to unknown instance accepted")
	}
}

func TestLocalViewRandomisedContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	under, err := topology.GenerateUniform(rng, topology.Config{Nodes: 15, ExtraLinks: 15})
	if err != nil {
		t.Fatal(err)
	}
	compat := NewCompatibility()
	for a := 1; a <= 4; a++ {
		for b := a + 1; b <= 5; b++ {
			compat.Allow(a, b)
		}
	}
	var placements []Placement
	for i := 0; i < 10; i++ {
		placements = append(placements, Placement{NID: i, SID: 1 + i%5, Host: rng.Intn(15)})
	}
	o, err := Build(under, placements, compat)
	if err != nil {
		t.Fatal(err)
	}
	for _, nid := range o.Nodes() {
		small := o.LocalView(nid, 1)
		big := o.LocalView(nid, 2)
		for _, n := range small.Nodes() {
			if _, ok := big.Instance(n); !ok {
				t.Fatalf("1-hop view of %d not contained in 2-hop view", nid)
			}
		}
		for _, l := range big.Links() {
			if m, ok := o.LinkMetric(l.From, l.To); !ok ||
				m != (qos.Metric{Bandwidth: l.Bandwidth, Latency: l.Latency}) {
				t.Fatalf("view link %d->%d not in overlay or metric differs", l.From, l.To)
			}
		}
	}
}

func mustLink(t *testing.T, nw *topology.Network, a, b int, bw, lat int64) {
	t.Helper()
	if err := nw.AddLink(a, b, bw, lat); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveInstance(t *testing.T) {
	o := chainOverlay(t)
	if err := o.RemoveInstance(21); err != nil {
		t.Fatal(err)
	}
	if _, ok := o.Instance(21); ok {
		t.Fatal("instance still present")
	}
	if o.HasLink(10, 21) || o.HasLink(21, 30) {
		t.Fatal("incident links survived")
	}
	if o.NumLinks() != 2 {
		t.Fatalf("NumLinks = %d, want 2", o.NumLinks())
	}
	if got := o.InstancesOf(2); len(got) != 1 || got[0] != 20 {
		t.Fatalf("InstancesOf(2) = %v", got)
	}
	// In() of the downstream endpoint no longer mentions 21.
	for _, a := range o.In(30) {
		if a.To == 21 {
			t.Fatal("stale in-arc")
		}
	}
	if err := o.RemoveInstance(21); err == nil {
		t.Fatal("double removal accepted")
	}
	// Removing the last instance of a service clears the SID index.
	if err := o.RemoveInstance(20); err != nil {
		t.Fatal(err)
	}
	if got := o.InstancesOf(2); len(got) != 0 {
		t.Fatalf("InstancesOf(2) after clearing = %v", got)
	}
}

func TestGrowLinkBandwidth(t *testing.T) {
	o := chainOverlay(t)
	if err := o.GrowLinkBandwidth(10, 20, 25); err != nil {
		t.Fatal(err)
	}
	if m, _ := o.LinkMetric(10, 20); m.Bandwidth != 125 {
		t.Fatalf("bandwidth = %d, want 125", m.Bandwidth)
	}
	// Visible through In() too.
	for _, a := range o.In(20) {
		if a.To == 10 && a.Bandwidth != 125 {
			t.Fatalf("In bandwidth = %d", a.Bandwidth)
		}
	}
	if err := o.GrowLinkBandwidth(10, 20, -1); err == nil {
		t.Fatal("negative growth accepted")
	}
	if err := o.GrowLinkBandwidth(10, 99, 1); err == nil {
		t.Fatal("missing link accepted")
	}
}

func TestLocalViewZeroHops(t *testing.T) {
	o := chainOverlay(t)
	v := o.LocalView(10, 0)
	if v.NumInstances() != 1 || v.NumLinks() != 0 {
		t.Fatalf("0-hop view: %d instances %d links", v.NumInstances(), v.NumLinks())
	}
}

func TestDegreeAccessor(t *testing.T) {
	nw := topology.New(3)
	mustLink(t, nw, 0, 1, 5, 1)
	mustLink(t, nw, 0, 2, 5, 1)
	if nw.Degree(0) != 2 || nw.Degree(1) != 1 {
		t.Fatal("degrees wrong")
	}
}
