package qos_test

import (
	"reflect"
	"testing"

	"sflow/internal/overlay"
	"sflow/internal/qos"
)

// FuzzFreezeRouting decodes the fuzz input into an overlay with arbitrary NID
// gaps, isolated instances and arbitrary link weights, freezes it, and
// requires the dense kernel on the freeze to route exactly like the map
// oracle on the overlay itself: same metric and path to every node, from
// every source.
func FuzzFreezeRouting(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 5, 200, 1, 0, 1, 2, 9})
	f.Add([]byte{8, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 10, 3, 1, 7, 4, 2, 3, 0, 2, 250})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}

		// Nodes: up to 16 instances at NIDs with fuzz-chosen gaps.
		ov := overlay.New()
		n := int(next()%16) + 1
		nids := make([]int, 0, n)
		nid := 0
		for i := 0; i < n; i++ {
			nid += int(next()%50) + 1 // strictly increasing => unique, gappy
			nids = append(nids, nid)
			if err := ov.AddInstance(nid, int(next()%4), -1); err != nil {
				t.Fatal(err)
			}
		}
		// Links: triples of (from, to, weight); invalid ones are skipped the
		// same way the overlay itself rejects them.
		for len(data) >= 3 {
			from := nids[int(next())%len(nids)]
			to := nids[int(next())%len(nids)]
			w := next()
			if from == to || ov.HasLink(from, to) {
				continue
			}
			if err := ov.AddLink(from, to, int64(w%100)+1, int64(w)); err != nil {
				t.Fatal(err)
			}
		}

		frozen := qos.FreezeGraph(ov)
		sc := qos.NewScratch()
		for _, src := range ov.Nodes() {
			want := qos.ShortestWidestRef(ov, src)
			got := qos.ShortestWidestCSR(frozen, src, sc)
			for _, dst := range ov.Nodes() {
				if g, w := got.Metric(dst), want.Metric(dst); g != w {
					t.Fatalf("src %d dst %d: metric diverged: %v vs %v", src, dst, g, w)
				}
				if !reflect.DeepEqual(got.PathTo(dst), want.PathTo(dst)) {
					t.Fatalf("src %d dst %d: path diverged: %v vs %v",
						src, dst, got.PathTo(dst), want.PathTo(dst))
				}
			}
			if !got.Equal(want) {
				t.Fatalf("src %d: rows not Equal", src)
			}
		}
	})
}
