package overlay

import (
	"math/rand"
	"reflect"
	"testing"
)

// replayClone is the reference clone: replay every instance and every link,
// in sorted order, into an empty overlay.
func replayClone(o *Overlay) *Overlay {
	c := New()
	for _, inst := range o.Instances() {
		_ = c.AddInstance(inst.NID, inst.SID, inst.Host)
	}
	for _, l := range o.Links() {
		_ = c.AddLink(l.From, l.To, l.Bandwidth, l.Latency)
	}
	return c
}

// TestCloneEqualsReplay drives seeded mutation streams that add, remove and
// re-add instances and links and move bandwidth, and after every event
// requires the direct Clone to equal the replayed one, arc order and absent
// empty lists included.
func TestCloneEqualsReplay(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := New()
		const nodes = 24
		for nid := 0; nid < nodes; nid++ {
			_ = o.AddInstance(nid, nid%6, nid%9)
		}
		for i := 0; i < 4*nodes; i++ {
			_ = o.AddLink(rng.Intn(nodes), rng.Intn(nodes), 1+rng.Int63n(100), rng.Int63n(50))
		}
		removed := map[int]Instance{}
		for step := 0; step < 400; step++ {
			from, to := rng.Intn(nodes), rng.Intn(nodes)
			switch rng.Intn(6) {
			case 0:
				_ = o.AddLink(from, to, 1+rng.Int63n(100), rng.Int63n(50))
			case 1:
				_ = o.RemoveLink(from, to)
			case 2:
				_ = o.GrowLinkBandwidth(from, to, rng.Int63n(20))
			case 3:
				_ = o.ReduceLinkBandwidth(from, to, rng.Int63n(60))
			case 4:
				if inst, ok := o.Instance(from); ok {
					removed[from] = inst
					_ = o.RemoveInstance(from)
				}
			case 5:
				if inst, ok := removed[from]; ok {
					delete(removed, from)
					_ = o.AddInstance(inst.NID, inst.SID, inst.Host)
				}
			}
			got, want := o.Clone(), replayClone(o)
			if !sameOverlay(got, want) {
				t.Fatalf("seed %d step %d: Clone differs from the replayed clone", seed, step)
			}
			assertLinkInvariants(t, got)
		}
		// The clone shares storage with its source, but a write to it
		// never shows in the source.
		c, links := o.Clone(), o.Links()
		for _, l := range links[:min(len(links), 3)] {
			if err := c.GrowLinkBandwidth(l.From, l.To, 1000); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(o.Links(), links) {
			t.Fatal("a write to the clone changed its source")
		}
	}
}

// sameOverlay reports whether two overlays hold the same instances, service
// index, adjacency lists (order included) and link count; the copy-on-write
// bookkeeping is not part of an overlay's value.
func sameOverlay(a, b *Overlay) bool {
	return a.numLinks == b.numLinks && reflect.DeepEqual(a.instances, b.instances) &&
		reflect.DeepEqual(a.bySID, b.bySID) && reflect.DeepEqual(a.out, b.out) && reflect.DeepEqual(a.in, b.in)
}
