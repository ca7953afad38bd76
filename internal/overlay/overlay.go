// Package overlay models the service overlay network of the paper: service
// instances (each a node with a unique NID providing a service SID, possibly
// hosted on an underlying network node) connected by directed service links
// weighted with bandwidth and latency.
//
// An overlay can be constructed directly, or derived from an underlying
// network by embedding (Fig 4 of the paper): compatible instances are linked
// with the metric of the minimum-latency (IP-style) route between their
// hosts — see Build for why the route is latency-selected, not widest.
package overlay

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"

	"sflow/internal/qos"
	"sflow/internal/topology"
)

// Instance is one service instance: a node of the overlay graph.
type Instance struct {
	NID  int // unique overlay node identifier
	SID  int // the service this instance provides
	Host int // hosting node in the underlying network; -1 if not embedded
}

// Link is a directed service link between two compatible instances.
type Link struct {
	From, To  int   // NIDs
	Bandwidth int64 // Kbit/s
	Latency   int64 // microseconds
}

// Overlay is a service overlay graph. It implements qos.Graph over NIDs.
type Overlay struct {
	instances map[int]Instance
	bySID     map[int][]int
	out       map[int][]qos.Arc
	in        map[int][]qos.Arc
	numLinks  int
}

// New returns an empty overlay.
func New() *Overlay {
	return &Overlay{
		instances: make(map[int]Instance),
		bySID:     make(map[int][]int),
		out:       make(map[int][]qos.Arc),
		in:        make(map[int][]qos.Arc),
	}
}

// AddInstance registers a service instance.
func (o *Overlay) AddInstance(nid, sid, host int) error {
	if _, ok := o.instances[nid]; ok {
		return fmt.Errorf("overlay: duplicate NID %d", nid)
	}
	o.instances[nid] = Instance{NID: nid, SID: sid, Host: host}
	o.bySID[sid] = insertSorted(o.bySID[sid], nid)
	return nil
}

// AddLink registers a directed service link from one instance to another.
func (o *Overlay) AddLink(from, to int, bandwidth, latency int64) error {
	if _, ok := o.instances[from]; !ok {
		return fmt.Errorf("overlay: link from unknown NID %d", from)
	}
	if _, ok := o.instances[to]; !ok {
		return fmt.Errorf("overlay: link to unknown NID %d", to)
	}
	switch {
	case from == to:
		return fmt.Errorf("overlay: self-link on NID %d", from)
	case bandwidth <= 0:
		return fmt.Errorf("overlay: link %d->%d has non-positive bandwidth %d", from, to, bandwidth)
	case latency < 0:
		return fmt.Errorf("overlay: link %d->%d has negative latency %d", from, to, latency)
	case o.HasLink(from, to):
		return fmt.Errorf("overlay: duplicate link %d->%d", from, to)
	}
	o.out[from] = append(o.out[from], qos.Arc{To: to, Bandwidth: bandwidth, Latency: latency})
	o.in[to] = append(o.in[to], qos.Arc{To: from, Bandwidth: bandwidth, Latency: latency})
	o.numLinks++
	return nil
}

// GrowLinkBandwidth adds delta to the bandwidth of the directed link
// from -> to (releasing a reservation).
func (o *Overlay) GrowLinkBandwidth(from, to int, delta int64) error {
	if delta < 0 {
		return fmt.Errorf("overlay: negative growth %d on link %d->%d", delta, from, to)
	}
	found := false
	for i, a := range o.out[from] {
		if a.To == to {
			o.out[from][i].Bandwidth += delta
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("overlay: no link %d->%d to grow", from, to)
	}
	for i, a := range o.in[to] {
		if a.To == from {
			o.in[to][i].Bandwidth += delta
		}
	}
	return nil
}

// RemoveInstance deletes a service instance and every service link incident
// to it (modelling a node failure or departure).
func (o *Overlay) RemoveInstance(nid int) error {
	inst, ok := o.instances[nid]
	if !ok {
		return fmt.Errorf("overlay: no instance %d to remove", nid)
	}
	for _, a := range o.out[nid] {
		o.in[a.To] = dropArc(o.in[a.To], nid)
		o.numLinks--
	}
	for _, a := range o.in[nid] {
		o.out[a.To] = dropArc(o.out[a.To], nid)
		o.numLinks--
	}
	delete(o.out, nid)
	delete(o.in, nid)
	delete(o.instances, nid)
	ids := o.bySID[inst.SID]
	for i, v := range ids {
		if v == nid {
			o.bySID[inst.SID] = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(o.bySID[inst.SID]) == 0 {
		delete(o.bySID, inst.SID)
	}
	return nil
}

// dropArc removes every arc pointing at `to` from a slice of arcs.
func dropArc(arcs []qos.Arc, to int) []qos.Arc {
	out := arcs[:0]
	for _, a := range arcs {
		if a.To != to {
			out = append(out, a)
		}
	}
	return out
}

// ReduceLinkBandwidth subtracts delta from the bandwidth of the directed
// link from -> to; when the residual drops to zero or below the link is
// removed. Used by provisioning to reserve capacity for admitted flows.
func (o *Overlay) ReduceLinkBandwidth(from, to int, delta int64) error {
	if delta < 0 {
		return fmt.Errorf("overlay: negative reservation %d on link %d->%d", delta, from, to)
	}
	idx := -1
	for i, a := range o.out[from] {
		if a.To == to {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("overlay: no link %d->%d to reserve on", from, to)
	}
	residual := o.out[from][idx].Bandwidth - delta
	if residual > 0 {
		o.out[from][idx].Bandwidth = residual
		for i, a := range o.in[to] {
			if a.To == from {
				o.in[to][i].Bandwidth = residual
			}
		}
		return nil
	}
	// Saturated: remove the link entirely.
	o.out[from] = append(o.out[from][:idx], o.out[from][idx+1:]...)
	for i, a := range o.in[to] {
		if a.To == from {
			o.in[to] = append(o.in[to][:i], o.in[to][i+1:]...)
			break
		}
	}
	o.numLinks--
	return nil
}

// RemoveLink deletes the directed service link from -> to (modelling a
// link failure, as opposed to ReduceLinkBandwidth's gradual saturation).
func (o *Overlay) RemoveLink(from, to int) error {
	idx := -1
	for i, a := range o.out[from] {
		if a.To == to {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("overlay: no link %d->%d to remove", from, to)
	}
	o.out[from] = append(o.out[from][:idx], o.out[from][idx+1:]...)
	for i, a := range o.in[to] {
		if a.To == from {
			o.in[to] = append(o.in[to][:i], o.in[to][i+1:]...)
			break
		}
	}
	o.numLinks--
	return nil
}

// HasLink reports whether a service link from -> to exists.
func (o *Overlay) HasLink(from, to int) bool {
	_, ok := o.LinkMetric(from, to)
	return ok
}

// LinkMetric returns the metric of the direct link from -> to, if present.
func (o *Overlay) LinkMetric(from, to int) (qos.Metric, bool) {
	for _, a := range o.out[from] {
		if a.To == to {
			return qos.Metric{Bandwidth: a.Bandwidth, Latency: a.Latency}, true
		}
	}
	return qos.Unreachable, false
}

// NumInstances returns the number of service instances.
func (o *Overlay) NumInstances() int { return len(o.instances) }

// NumLinks returns the number of service links.
func (o *Overlay) NumLinks() int { return o.numLinks }

// Instance returns the instance with the given NID.
func (o *Overlay) Instance(nid int) (Instance, bool) {
	inst, ok := o.instances[nid]
	return inst, ok
}

// SIDOf returns the service provided by the given instance (-1 if unknown).
func (o *Overlay) SIDOf(nid int) int {
	if inst, ok := o.instances[nid]; ok {
		return inst.SID
	}
	return -1
}

// Instances returns all instances sorted by NID.
func (o *Overlay) Instances() []Instance {
	out := make([]Instance, 0, len(o.instances))
	for _, nid := range o.Nodes() {
		out = append(out, o.instances[nid])
	}
	return out
}

// InstancesOf returns the NIDs of all instances providing sid, ascending.
func (o *Overlay) InstancesOf(sid int) []int {
	src := o.bySID[sid]
	out := make([]int, len(src))
	copy(out, src)
	return out
}

// SIDs returns all services that have at least one instance, ascending.
func (o *Overlay) SIDs() []int {
	out := make([]int, 0, len(o.bySID))
	for sid := range o.bySID {
		out = append(out, sid)
	}
	sort.Ints(out)
	return out
}

// Nodes implements qos.Graph: all NIDs ascending.
func (o *Overlay) Nodes() []int {
	out := make([]int, 0, len(o.instances))
	for nid := range o.instances {
		out = append(out, nid)
	}
	sort.Ints(out)
	return out
}

// Out implements qos.Graph: the out-links of an instance. The returned slice
// must not be modified.
func (o *Overlay) Out(u int) []qos.Arc { return o.out[u] }

// In returns the in-links of an instance as arcs whose To field holds the
// upstream NID. The returned slice must not be modified.
func (o *Overlay) In(u int) []qos.Arc { return o.in[u] }

// Links returns every service link sorted by (From, To).
func (o *Overlay) Links() []Link {
	out := make([]Link, 0, o.numLinks)
	for _, from := range o.Nodes() {
		arcs := append([]qos.Arc(nil), o.out[from]...)
		sort.Slice(arcs, func(i, j int) bool { return arcs[i].To < arcs[j].To })
		for _, a := range arcs {
			out = append(out, Link{From: from, To: a.To, Bandwidth: a.Bandwidth, Latency: a.Latency})
		}
	}
	return out
}

// LocalView returns the sub-overlay a node can see: all instances within
// `hops` forward hops of nid (following service links downstream), plus the
// links among them. sFlow assumes each node knows a two-hop vicinity.
func (o *Overlay) LocalView(nid, hops int) *Overlay {
	if _, ok := o.instances[nid]; !ok {
		return New()
	}
	dist := map[int]int{nid: 0}
	queue := []int{nid}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if dist[u] == hops {
			continue
		}
		for _, a := range o.out[u] {
			if _, seen := dist[a.To]; !seen {
				dist[a.To] = dist[u] + 1
				queue = append(queue, a.To)
			}
		}
	}
	view := New()
	for n := range dist {
		inst := o.instances[n]
		_ = view.AddInstance(inst.NID, inst.SID, inst.Host)
	}
	for n := range dist {
		for _, a := range o.out[n] {
			if _, ok := dist[a.To]; ok {
				_ = view.AddLink(n, a.To, a.Bandwidth, a.Latency)
			}
		}
	}
	return view
}

// Clone returns a deep copy of the overlay in canonical form: every
// adjacency list sorted by neighbour id and no entry for an empty one — the
// overlay that replaying Instances and Links into New would build, copied
// directly.
func (o *Overlay) Clone() *Overlay {
	c := &Overlay{
		instances: maps.Clone(o.instances),
		bySID:     make(map[int][]int, len(o.bySID)),
		out:       cloneArcs(o.out),
		in:        cloneArcs(o.in),
		numLinks:  o.numLinks,
	}
	for sid, nids := range o.bySID {
		c.bySID[sid] = slices.Clone(nids)
	}
	return c
}

// cloneArcs deep-copies an adjacency map, dropping empty lists and sorting
// each list by neighbour id unless it already is.
func cloneArcs(adj map[int][]qos.Arc) map[int][]qos.Arc {
	out := make(map[int][]qos.Arc, len(adj))
	byTo := func(a, b qos.Arc) int { return cmp.Compare(a.To, b.To) }
	for u, arcs := range adj {
		if len(arcs) == 0 {
			continue
		}
		arcs = slices.Clone(arcs)
		if !slices.IsSortedFunc(arcs, byTo) {
			slices.SortFunc(arcs, byTo)
		}
		out[u] = arcs
	}
	return out
}

// Compatibility is the directed relation "output of service a feeds service
// b". Service links only exist between compatible instances.
type Compatibility struct {
	pairs map[[2]int]struct{}
}

// NewCompatibility returns an empty relation.
func NewCompatibility() *Compatibility {
	return &Compatibility{pairs: make(map[[2]int]struct{})}
}

// Allow marks service `from` as able to feed service `to`.
func (c *Compatibility) Allow(from, to int) { c.pairs[[2]int{from, to}] = struct{}{} }

// Compatible reports whether service `from` can feed service `to`.
func (c *Compatibility) Compatible(from, to int) bool {
	_, ok := c.pairs[[2]int{from, to}]
	return ok
}

// Pairs returns the relation as a sorted edge list.
func (c *Compatibility) Pairs() [][2]int {
	out := make([][2]int, 0, len(c.pairs))
	for p := range c.pairs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Placement assigns a service instance to an underlying network node.
type Placement struct {
	NID  int // overlay node identifier to create
	SID  int // service provided
	Host int // hosting node in the underlay
}

// Build derives a service overlay from an underlying network (Fig 4): every
// pair of instances whose services are compatible and whose hosts are
// connected in the underlay is linked. The link carries the metric of the
// route the underlay actually provides — its minimum-latency (IP-style)
// path — so the link's bandwidth is that path's bottleneck, not the widest
// achievable. Discovering wider multi-overlay-hop detours is precisely what
// the QoS-aware federation algorithms on top are for.
func Build(under *topology.Network, placements []Placement, compat *Compatibility) (*Overlay, error) {
	o := New()
	for _, p := range placements {
		if p.Host < 0 || p.Host >= under.Size() {
			return nil, fmt.Errorf("overlay: placement of NID %d on unknown host %d", p.NID, p.Host)
		}
		if err := o.AddInstance(p.NID, p.SID, p.Host); err != nil {
			return nil, err
		}
	}
	// Freeze the underlay once and run the dense latency kernel per distinct
	// host with a shared scratch.
	routes := make(map[int]*qos.Result)
	frozen := qos.FreezeGraph(under)
	scratch := qos.NewScratch()
	for _, inst := range o.Instances() {
		if _, ok := routes[inst.Host]; !ok {
			routes[inst.Host] = qos.ShortestLatencyCSR(frozen, inst.Host, scratch)
		}
	}
	for _, a := range o.Instances() {
		for _, b := range o.Instances() {
			if a.NID == b.NID || !compat.Compatible(a.SID, b.SID) {
				continue
			}
			var m qos.Metric
			if a.Host == b.Host {
				// Co-located instances: an in-host link with no
				// network cost, as wide as the host's best link.
				m = bestLocal(under, a.Host)
			} else {
				m = routes[a.Host].Metric(b.Host)
			}
			if !m.Reachable() {
				continue
			}
			if err := o.AddLink(a.NID, b.NID, m.Bandwidth, m.Latency); err != nil {
				return nil, err
			}
		}
	}
	return o, nil
}

// bestLocal returns the metric of a zero-latency in-host hand-off, capped at
// the host's widest attached link so co-location is not infinitely wide.
func bestLocal(under *topology.Network, host int) qos.Metric {
	var best int64
	for _, a := range under.Out(host) {
		if a.Bandwidth > best {
			best = a.Bandwidth
		}
	}
	if best == 0 {
		best = qos.InfBandwidth
	}
	return qos.Metric{Bandwidth: best, Latency: 0}
}

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
