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
	"sync/atomic"

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
//
// Versions made by Clone share storage copy-on-write: after a Clone, each of
// the two versions copies one of its four maps, shallowly, at its first write
// to that map, and an adjacency or service list at its first write to that
// list. A version never cloned writes in place. Every mutator keeps the
// canonical form: lists sorted by neighbour (or NID), no empty entries.
type Overlay struct {
	// gen counts the Clones of this version (0: never cloned, nothing is
	// shared); Clone moves it atomically, as concurrent Clones are reads.
	// It comes first, where 32-bit platforms align 64-bit atomics.
	gen uint64

	instances map[int]Instance
	bySID     map[int][]int
	out       map[int][]qos.Arc
	in        map[int][]qos.Arc
	numLinks  int

	// ownMaps (a bit per map) and owned (lists) record what this version
	// copied during generation ownGen: the only storage it writes in place.
	ownGen  uint64
	ownMaps uint8
	owned   map[listKey]struct{}
}

// listKey names one list: the bit of its map and its key there.
type listKey struct {
	m uint8
	k int
}

// The map bits of Overlay.ownMaps.
const (
	mInstances uint8 = 1 << iota
	mBySID
	mOut
	mIn
)

// New returns an empty overlay.
func New() *Overlay {
	return &Overlay{
		instances: make(map[int]Instance),
		bySID:     make(map[int][]int),
		out:       make(map[int][]qos.Arc),
		in:        make(map[int][]qos.Arc),
	}
}

// own returns map *m (bit) ready for a write, copied shallowly first if
// another version may hold it, and whether the version was ever cloned (its
// lists may then be shared too).
func own[V any](o *Overlay, bit uint8, m *map[int]V) (map[int]V, bool) {
	g := atomic.LoadUint64(&o.gen)
	if g == 0 {
		return *m, false
	}
	if o.ownGen != g {
		o.ownGen, o.ownMaps = g, 0
		clear(o.owned)
	}
	if o.ownMaps&bit == 0 {
		*m, o.ownMaps = maps.Clone(*m), o.ownMaps|bit
	}
	return *m, true
}

// ownList returns list k of map *m (bit) ready for an in-place write, copied
// first (with room for one more element) if another version may hold it.
func ownList[E any](o *Overlay, bit uint8, m *map[int][]E, k int) []E {
	mm, cloned := own(o, bit, m)
	l := mm[k]
	if !cloned {
		return l
	}
	key := listKey{bit, k}
	if _, ok := o.owned[key]; !ok {
		if o.owned == nil {
			o.owned = make(map[listKey]struct{})
		}
		o.owned[key] = struct{}{}
		l = append(make([]E, 0, len(l)+1), l...)
		mm[k] = l
	}
	return l
}

// put stores list l under k, dropping the entry once l is empty.
func put[E any](m map[int][]E, k int, l []E) {
	if len(l) == 0 {
		delete(m, k)
		return
	}
	m[k] = l
}

// AddInstance registers a service instance.
func (o *Overlay) AddInstance(nid, sid, host int) error {
	if _, ok := o.instances[nid]; ok {
		return fmt.Errorf("overlay: duplicate NID %d", nid)
	}
	insts, _ := own(o, mInstances, &o.instances)
	insts[nid] = Instance{NID: nid, SID: sid, Host: host}
	ids := ownList(o, mBySID, &o.bySID, sid)
	i, _ := slices.BinarySearch(ids, nid)
	o.bySID[sid] = slices.Insert(ids, i, nid)
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
	o.insertArc(mOut, &o.out, from, qos.Arc{To: to, Bandwidth: bandwidth, Latency: latency})
	o.insertArc(mIn, &o.in, to, qos.Arc{To: from, Bandwidth: bandwidth, Latency: latency})
	o.numLinks++
	return nil
}

// GrowLinkBandwidth adds delta to the bandwidth of the directed link
// from -> to (releasing a reservation).
func (o *Overlay) GrowLinkBandwidth(from, to int, delta int64) error {
	if delta < 0 {
		return fmt.Errorf("overlay: negative growth %d on link %d->%d", delta, from, to)
	}
	m, ok := o.LinkMetric(from, to)
	if !ok {
		return fmt.Errorf("overlay: no link %d->%d to grow", from, to)
	}
	o.setBandwidth(from, to, m.Bandwidth+delta)
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
		o.dropArc(mIn, &o.in, a.To, nid)
		o.numLinks--
	}
	for _, a := range o.in[nid] {
		o.dropArc(mOut, &o.out, a.To, nid)
		o.numLinks--
	}
	out, _ := own(o, mOut, &o.out)
	in, _ := own(o, mIn, &o.in)
	insts, _ := own(o, mInstances, &o.instances)
	delete(out, nid)
	delete(in, nid)
	delete(insts, nid)
	ids := ownList(o, mBySID, &o.bySID, inst.SID)
	i, _ := slices.BinarySearch(ids, nid)
	put(o.bySID, inst.SID, slices.Delete(ids, i, i+1))
	return nil
}

// ownArcs returns u's list of *adj ready for an in-place write and the
// position of the arc to v in it (where it would go, if absent).
func (o *Overlay) ownArcs(bit uint8, adj *map[int][]qos.Arc, u, v int) ([]qos.Arc, int) {
	arcs := ownList(o, bit, adj, u)
	i, _ := slices.BinarySearchFunc(arcs, v, func(a qos.Arc, v int) int { return cmp.Compare(a.To, v) })
	return arcs, i
}

// insertArc adds arc a to u's list of *adj at its sorted position.
func (o *Overlay) insertArc(bit uint8, adj *map[int][]qos.Arc, u int, a qos.Arc) {
	arcs, i := o.ownArcs(bit, adj, u, a.To)
	(*adj)[u] = slices.Insert(arcs, i, a)
}

// dropArc removes the arc to v, which is there, from u's list of *adj.
func (o *Overlay) dropArc(bit uint8, adj *map[int][]qos.Arc, u, v int) {
	arcs, i := o.ownArcs(bit, adj, u, v)
	put(*adj, u, slices.Delete(arcs, i, i+1))
}

// setBandwidth rewrites the bandwidth of the existing link from -> to in its
// out-list and its in-list.
func (o *Overlay) setBandwidth(from, to int, bw int64) {
	out, i := o.ownArcs(mOut, &o.out, from, to)
	in, j := o.ownArcs(mIn, &o.in, to, from)
	out[i].Bandwidth, in[j].Bandwidth = bw, bw
}

// ReduceLinkBandwidth subtracts delta from the bandwidth of the directed
// link from -> to; when the residual drops to zero or below the link is
// removed. Used by provisioning to reserve capacity for admitted flows.
func (o *Overlay) ReduceLinkBandwidth(from, to int, delta int64) error {
	if delta < 0 {
		return fmt.Errorf("overlay: negative reservation %d on link %d->%d", delta, from, to)
	}
	m, ok := o.LinkMetric(from, to)
	if !ok {
		return fmt.Errorf("overlay: no link %d->%d to reserve on", from, to)
	}
	if residual := m.Bandwidth - delta; residual > 0 {
		o.setBandwidth(from, to, residual)
		return nil
	}
	// Saturated: remove the link entirely.
	o.dropLink(from, to)
	return nil
}

// RemoveLink deletes the directed service link from -> to (modelling a
// link failure, as opposed to ReduceLinkBandwidth's gradual saturation).
func (o *Overlay) RemoveLink(from, to int) error {
	if !o.HasLink(from, to) {
		return fmt.Errorf("overlay: no link %d->%d to remove", from, to)
	}
	o.dropLink(from, to)
	return nil
}

// dropLink removes the existing link from -> to from both of its lists.
func (o *Overlay) dropLink(from, to int) {
	o.dropArc(mOut, &o.out, from, to)
	o.dropArc(mIn, &o.in, to, from)
	o.numLinks--
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

// Out implements qos.Graph: the out-links of an instance, sorted by
// neighbour. The returned slice must not be modified. Once a Clone shares
// it, it is immutable: a later write to either version replaces the list
// and never changes it in place. Only a list a version holds alone (in an
// overlay never cloned, or copied since its last Clone) is written in place.
func (o *Overlay) Out(u int) []qos.Arc { return o.out[u] }

// In returns the in-links of an instance as arcs whose To field holds the
// upstream NID, sorted by it. The returned slice follows Out's rules.
func (o *Overlay) In(u int) []qos.Arc { return o.in[u] }

// Links returns every service link sorted by (From, To).
func (o *Overlay) Links() []Link {
	out := make([]Link, 0, o.numLinks)
	for _, from := range o.Nodes() {
		for _, a := range o.out[from] {
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

// Clone returns a new version of the overlay that shares all of its storage
// with o: each of the two copies a map or a list only at its first write to
// it (see Overlay), so a Clone costs O(1) and a write to either version
// never shows in the other. Both are in canonical form, the overlay that
// replaying Instances and Links into New would build. Concurrent Clones of
// one overlay are safe, like any other reads.
func (o *Overlay) Clone() *Overlay {
	atomic.AddUint64(&o.gen, 1)
	return &Overlay{instances: o.instances, bySID: o.bySID, out: o.out, in: o.in, numLinks: o.numLinks, gen: 1}
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
