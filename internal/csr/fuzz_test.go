package csr_test

import (
	"reflect"
	"testing"

	"sflow/internal/csr"
	"sflow/internal/overlay"
	"sflow/internal/qos"
)

// FuzzFreezeRoundTrip decodes the fuzz input into an overlay with arbitrary
// NID gaps, isolated instances and arbitrary link weights, freezes it, thaws
// the frozen form back into adjacency lists and requires an exact match with
// the overlay's own Nodes/Out view — the frozen CSR must be a faithful,
// lossless representation of what it froze. That the frozen graph also
// routes like its source is qos's FuzzFreezeRouting.
func FuzzFreezeRoundTrip(f *testing.F) {
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
		gotNodes, gotOut := frozen.Thaw()

		if want := ov.Nodes(); !reflect.DeepEqual(gotNodes, want) {
			t.Fatalf("thawed nodes = %v, want %v", gotNodes, want)
		}
		wantOut := make(map[int][]csr.Arc)
		for _, u := range ov.Nodes() {
			arcs := ov.Out(u)
			if len(arcs) == 0 {
				continue
			}
			row := make([]csr.Arc, 0, len(arcs))
			for _, a := range arcs {
				row = append(row, csr.Arc{To: a.To, Bandwidth: a.Bandwidth, Latency: a.Latency})
			}
			wantOut[u] = row
		}
		if !reflect.DeepEqual(gotOut, wantOut) {
			t.Fatalf("thawed out = %v, want %v", gotOut, wantOut)
		}
	})
}
