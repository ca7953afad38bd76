package overlay

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"

	"sflow/internal/qos"
)

// model is the plain reference an overlay version is checked against: its
// instances and its links by endpoints, in maps no version shares.
type model struct {
	insts map[int]Instance
	links map[[2]int]Link
}

// build replays the model into a fresh overlay, in sorted order.
func (m model) build() *Overlay {
	o := New()
	for _, nid := range slices.Sorted(maps.Keys(m.insts)) {
		inst := m.insts[nid]
		_ = o.AddInstance(nid, inst.SID, inst.Host)
	}
	keys := slices.SortedFunc(maps.Keys(m.links), func(a, b [2]int) int {
		return slices.Compare(a[:], b[:])
	})
	for _, k := range keys {
		l := m.links[k]
		_ = o.AddLink(l.From, l.To, l.Bandwidth, l.Latency)
	}
	return o
}

func (m model) clone() model { return model{maps.Clone(m.insts), maps.Clone(m.links)} }

// apply runs mutator op on the model and reports whether the overlay must
// accept it.
func (m model) apply(op, a, b int, x int64) bool {
	_, okA := m.insts[a]
	_, okB := m.insts[b]
	l, linked := m.links[[2]int{a, b}]
	switch op {
	case 0: // AddInstance(a, sid b%3, host a)
		if okA {
			return false
		}
		m.insts[a] = Instance{NID: a, SID: b % 3, Host: a}
	case 1: // AddLink(a, b, x+1, x)
		if !okA || !okB || a == b || linked {
			return false
		}
		m.links[[2]int{a, b}] = Link{From: a, To: b, Bandwidth: x + 1, Latency: x}
	case 2: // GrowLinkBandwidth(a, b, x)
		if !linked {
			return false
		}
		l.Bandwidth += x
		m.links[[2]int{a, b}] = l
	case 3: // ReduceLinkBandwidth(a, b, x)
		if !linked {
			return false
		}
		if l.Bandwidth -= x; l.Bandwidth > 0 {
			m.links[[2]int{a, b}] = l
		} else {
			delete(m.links, [2]int{a, b})
		}
	case 4: // RemoveLink(a, b)
		if !linked {
			return false
		}
		delete(m.links, [2]int{a, b})
	case 5: // RemoveInstance(a)
		if !okA {
			return false
		}
		delete(m.insts, a)
		for k := range m.links {
			if k[0] == a || k[1] == a {
				delete(m.links, k)
			}
		}
	}
	return true
}

// mutate runs mutator op on the overlay.
func mutate(o *Overlay, op, a, b int, x int64) error {
	switch op {
	case 0:
		return o.AddInstance(a, b%3, a)
	case 1:
		return o.AddLink(a, b, x+1, x)
	case 2:
		return o.GrowLinkBandwidth(a, b, x)
	case 3:
		return o.ReduceLinkBandwidth(a, b, x)
	case 4:
		return o.RemoveLink(a, b)
	default:
		return o.RemoveInstance(a)
	}
}

// read is an Out or In list a caller kept, with the value it had.
type read struct {
	arcs, was []qos.Arc
}

// FuzzOverlayCloneIsolation drives overlay versions that share storage
// through clones, clones of clones, all six mutators on a chosen version and
// Out/In reads. After every step every live version must equal the replay of
// its own Instances and Links (canonical form) and the plain model kept
// beside it, and every list read before its version's next Clone must still
// hold what it held then: no write of any version reaches storage another
// version holds.
func FuzzOverlayCloneIsolation(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{10, 0, 1, 2, 11, 1, 1, 2, 3, 12, 0, 1, 2, 4, 14, 0, 0, 0, 0, 1, 0, 0, 0, 0, 6, 1, 1, 2, 9})
	f.Add([]byte{1, 0, 0, 0, 0, 3, 1, 2, 1, 8, 0, 2, 1, 0, 7, 1, 2, 0, 0, 5, 2, 1, 2, 4, 13, 2, 2, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 3, 4, 2, 13, 1, 3, 0, 0, 12, 0, 4, 3, 30, 5, 1, 0, 0})
	// Each step is five bytes: op, version, a, b, x. The parent writes after
	// a Clone, twice, is cloned again and writes once more; then the
	// versions take turns at instance and link changes.
	f.Add([]byte{
		0, 0, 0, 0, 0, // clone version 0 as 1
		4, 0, 0, 1, 5, // version 0 grows 0->1
		4, 0, 0, 1, 5, // and again, in the list it copied
		0, 0, 0, 0, 0, // clone version 0 as 2
		4, 0, 0, 1, 5, // version 0 grows 0->1: the list is shared again
		8, 2, 0, 0, 0, // version 2 reads Out(0)
		4, 1, 0, 1, 3, // version 1 grows 0->1
		7, 0, 1, 0, 0, // version 0 removes instance 1
		2, 0, 1, 1, 0, // and adds it back
		3, 0, 0, 1, 4, // with its link 0->1
	})
	// A clone writes, is cloned, and writes the same list again.
	f.Add([]byte{
		0, 0, 0, 0, 0, // clone version 0 as 1
		4, 1, 2, 3, 1, // version 1 grows 2->3
		0, 1, 0, 0, 0, // clone version 1 as 2
		4, 1, 2, 3, 1, // version 1 grows 2->3 again
		11, 1, 3, 0, 0, // version 1 reads In(3)
		5, 2, 2, 3, 39, // version 2 saturates 2->3
		6, 1, 3, 4, 0, // version 1 removes 3->4
		3, 2, 3, 5, 7, // version 2 adds 3->5
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		const nodes, maxVersions = 8, 6
		base, m := New(), model{map[int]Instance{}, map[[2]int]Link{}}
		for nid := 0; nid < nodes; nid++ {
			_ = mutate(base, 0, nid, nid, 0)
			m.apply(0, nid, nid, 0)
		}
		for i := 0; i+1 < nodes; i++ {
			_ = mutate(base, 1, i, i+1, 9)
			m.apply(1, i, i+1, 9)
		}
		versions, models := []*Overlay{base}, []model{m}
		pending := [][]read{nil} // reads of each version since its last Clone
		var frozen []read        // reads taken before their version's Clone
		clone := func(v int) {
			frozen = append(frozen, pending[v]...)
			pending[v] = nil
			versions = append(versions, versions[v].Clone())
			models = append(models, models[v].clone())
			pending = append(pending, nil)
		}
		for len(data) >= 5 {
			op, v := int(data[0])%15, int(data[1])%len(versions)
			a, b, x := int(data[2])%nodes, int(data[3])%nodes, int64(data[4]%40)
			data = data[5:]
			o := versions[v]
			switch {
			case op == 0 && len(versions) < maxVersions:
				clone(v)
			case op == 1 && len(versions)+1 < maxVersions:
				clone(v)
				clone(len(versions) - 1) // a clone of the fresh clone
			case op >= 2 && op < 8:
				mop := op - 2
				want := models[v].apply(mop, a, b, x)
				if err := mutate(o, mop, a, b, x); (err == nil) != want {
					t.Fatalf("version %d op %d(%d,%d,%d): err %v, model accepts %v", v, mop, a, b, x, err, want)
				}
				pending[v] = nil
			case op >= 8:
				arcs := o.Out(a)
				if op >= 11 {
					arcs = o.In(a)
				}
				pending[v] = append(pending[v], read{arcs, slices.Clone(arcs)})
			}
			for i, ver := range versions {
				if !sameOverlay(ver, replayClone(ver)) {
					t.Fatalf("version %d is not its own replay", i)
				}
				if !sameOverlay(ver, models[i].build()) {
					t.Fatalf("version %d differs from its model", i)
				}
			}
			for _, r := range frozen {
				if !slices.Equal(r.arcs, r.was) {
					t.Fatalf("a list read before a Clone changed: was %v, is %v", r.was, r.arcs)
				}
			}
		}
	})
}

// TestConcurrentClonesAreIsolated clones one shared overlay from several
// goroutines at once, as parallel experiment cells clone a scenario's
// overlay, and mutates each copy and a clone of it: under -race this is the
// proof that Clone only reads what it shares. Every copy must end equal to
// the same edits replayed on a private overlay, and the shared source as it
// was.
func TestConcurrentClonesAreIsolated(t *testing.T) {
	const nodes, workers = 40, 6
	ring := func() *Overlay {
		o := New()
		for nid := 0; nid < nodes; nid++ {
			_ = o.AddInstance(nid, nid%4, nid)
		}
		for nid := 0; nid < nodes; nid++ {
			for _, d := range []int{1, 3, 7} {
				_ = o.AddLink(nid, (nid+d)%nodes, int64(10+nid), int64(d))
			}
		}
		return o
	}
	edit := func(w int, c, cc *Overlay) {
		for i := 0; i < nodes; i++ {
			nid := (w*7 + i) % nodes
			_ = c.GrowLinkBandwidth(nid, (nid+1)%nodes, int64(w))
			_ = c.ReduceLinkBandwidth(nid, (nid+3)%nodes, int64(10+w))
			_ = cc.RemoveLink(nid, (nid+7)%nodes)
			if i%9 == w {
				_ = c.RemoveInstance(nid)
				_ = c.AddInstance(nid, 3, -1)
				_ = c.AddLink(nid, (nid+2)%nodes, 5, 5)
			}
		}
	}
	shared := ring()
	links := shared.Links()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := shared.Clone()
			cc := c.Clone()
			edit(w, c, cc)
			want, wantCC := ring(), ring()
			edit(w, want, wantCC)
			if !sameOverlay(c, want) || !sameOverlay(cc, wantCC) {
				errs[w] = fmt.Errorf("worker %d: a copy differs from its edits replayed on a private overlay", w)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if !reflect.DeepEqual(shared.Links(), links) || !sameOverlay(shared, ring()) {
		t.Fatal("the shared overlay changed under its clones")
	}
}
