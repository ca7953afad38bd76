package session_test

import (
	"math/rand"
	"testing"

	"sflow/internal/qos"
	"sflow/internal/scenario"
	"sflow/internal/session"
)

// churnPairStream drives the benchmark's churn-eager mutation stream through
// an eager session: batches come in pairs, a perturbation and the batch that
// undoes it (grow a link then reduce it by as much, remove a link then add
// it back, remove an instance then add it back with its links), on
// churn-eager's overlay (size 100, 12 services of 8 instances, seed 1). Every
// batch is flushed, and the flushed table must equal a from-scratch
// computation.
func churnPairStream(t *testing.T, pairs int) *session.Session {
	t.Helper()
	sc, err := scenario.Generate(scenario.Config{Seed: 1, NetworkSize: 100, Services: 12,
		InstancesPerService: 8, Kind: scenario.KindGeneral})
	if err != nil {
		t.Fatal(err)
	}
	s := session.New(sc.Overlay, session.Options{Workers: 1})
	boot := sc.Overlay
	links := boot.Links()
	var movable []int
	for _, nid := range boot.Nodes() {
		if nid != sc.SourceNID {
			movable = append(movable, nid)
		}
	}
	rng := rand.New(rand.NewSource(1))
	batch := func(step int, apply func() error) {
		t.Helper()
		if err := apply(); err != nil {
			t.Fatalf("batch %d: %v", step, err)
		}
		s.Flush()
		if !qos.TablesEqual(s.Table(), qos.ComputeAllPairsWorkers(s.Overlay(), 1)) {
			t.Fatalf("batch %d: the flushed table differs from a from-scratch one", step)
		}
	}
	for p := 1; p <= pairs; p++ {
		switch p % 3 {
		case 0:
			l := links[rng.Intn(len(links))]
			delta := 1 + rng.Int63n(l.Bandwidth)
			batch(2*p, func() error { return s.GrowLinkBandwidth(l.From, l.To, delta) })
			batch(2*p+1, func() error { return s.ReduceLinkBandwidth(l.From, l.To, delta) })
		case 1:
			l := links[rng.Intn(len(links))]
			batch(2*p, func() error { return s.RemoveLink(l.From, l.To) })
			batch(2*p+1, func() error { return s.AddLink(l.From, l.To, l.Bandwidth, l.Latency) })
		default:
			in, _ := boot.Instance(movable[rng.Intn(len(movable))])
			batch(2*p, func() error { return s.RemoveInstance(in.NID) })
			batch(2*p+1, func() error {
				if err := s.AddInstance(in.NID, in.SID, in.Host); err != nil {
					return err
				}
				for _, a := range boot.Out(in.NID) {
					if err := s.AddLink(in.NID, a.To, a.Bandwidth, a.Latency); err != nil {
						return err
					}
				}
				for _, a := range boot.In(in.NID) {
					if err := s.AddLink(a.To, in.NID, a.Bandwidth, a.Latency); err != nil {
						return err
					}
				}
				return nil
			})
		}
	}
	return s
}

// The churn-eager pair stream's work is an exact count: these many rows
// recomputed, and these many freeze updates by cause. A link grown, reduced,
// removed or re-added keeps its slot in the session's freeze and is patched
// in place; only an instance leaving or coming back re-freezes. Reach-based
// invalidation (every row that reached the changed arc's tail) recomputed
// 1434 rows on this stream. Change the numbers only with a change to what
// the session invalidates or how it freezes, and say why in the same diff.
func TestChurnPairStreamCounts(t *testing.T) {
	s := churnPairStream(t, 60)
	got := s.Stats()
	table := s.TableStats()
	t.Logf("recomputed %d, saved %d, dirtied %d worsening + %d improvement, %d patches, re-freezes %d nodes + %d arc",
		got.RecomputedSources, got.SavedSources, table.DirtiedWorsening, table.DirtiedImprovement,
		table.Patches, table.RefreezesNodes, table.RefreezesArc)
	want := qos.Stats{DirtiedWorsening: 470, DirtiedImprovement: 582, RefreezesNodes: 40, Patches: 80}
	if got.RecomputedSources != 1053 || table != want {
		t.Fatalf("recomputed %d sources, table %+v; want 1053 and %+v", got.RecomputedSources, table, want)
	}
}

// TestArcRulesKeepOnlyUnchangedRows is the arc-delta invalidation property
// on a 500-node GenerateLarge overlay: 400 seeded events (100 under -short)
// — grow, reduce (a
// saturating reservation removes the link), remove a link, re-add a removed
// one, an instance leaving and coming back with its links — go through a
// lazy session's mutators, and after every event each slot row the rules
// kept must equal a fresh row on the changed overlay. Rows the rules queued
// are compared too, to log how many of them really changed.
func TestArcRulesKeepOnlyUnchangedRows(t *testing.T) {
	sc, err := scenario.GenerateLarge(scenario.LargeConfig{Seed: 1, Nodes: 500})
	if err != nil {
		t.Fatal(err)
	}
	boot := sc.Overlay
	s := session.New(boot, session.Options{Lazy: true, Workers: 1})
	var tracked, relays []int
	for _, nid := range boot.Nodes() {
		if sid := boot.SIDOf(nid); sid >= 1 && sid <= len(sc.Req.Services()) {
			tracked = append(tracked, nid)
		} else {
			relays = append(relays, nid)
		}
	}
	type link struct {
		from, to int
		bw, lat  int64
	}
	var removed []link
	gone := -1 // an instance that left and has not come back yet
	rng := rand.New(rand.NewSource(1))
	events := 400
	if testing.Short() {
		events = 100
	}
	var kept, changed, spared int
	for ev := 0; ev < events; ev++ {
		lt := s.Table()
		before := make(map[int]*qos.Result, len(tracked))
		for _, src := range tracked {
			before[src] = lt.From(src)
		}
		links := s.Overlay().Links()
		l := links[rng.Intn(len(links))]
		switch k := rng.Intn(10); {
		case gone >= 0 && k == 0: // the instance that left comes back
			in, _ := boot.Instance(gone)
			if err := s.AddInstance(in.NID, in.SID, in.Host); err != nil {
				t.Fatal(err)
			}
			for _, a := range boot.Out(gone) {
				if s.Overlay().SIDOf(a.To) >= 0 {
					if err := s.AddLink(gone, a.To, a.Bandwidth, a.Latency); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, a := range boot.In(gone) {
				if s.Overlay().SIDOf(a.To) >= 0 {
					if err := s.AddLink(a.To, gone, a.Bandwidth, a.Latency); err != nil {
						t.Fatal(err)
					}
				}
			}
			gone = -1
		case gone < 0 && k == 0: // a relay instance leaves
			gone = relays[rng.Intn(len(relays))]
			if err := s.RemoveInstance(gone); err != nil {
				t.Fatal(err)
			}
		case k <= 3:
			if err := s.GrowLinkBandwidth(l.From, l.To, 1+rng.Int63n(4096)); err != nil {
				t.Fatal(err)
			}
		case k <= 6:
			delta := 1 + rng.Int63n(l.Bandwidth)
			if delta == l.Bandwidth {
				removed = append(removed, link{l.From, l.To, l.Bandwidth, l.Latency})
			}
			if err := s.ReduceLinkBandwidth(l.From, l.To, delta); err != nil {
				t.Fatal(err)
			}
		case k == 7:
			removed = append(removed, link{l.From, l.To, l.Bandwidth, l.Latency})
			if err := s.RemoveLink(l.From, l.To); err != nil {
				t.Fatal(err)
			}
		default: // re-add a removed link whose ends are both present
			for i, r := range removed {
				ov := s.Overlay()
				if ov.SIDOf(r.from) >= 0 && ov.SIDOf(r.to) >= 0 && !ov.HasLink(r.from, r.to) {
					if err := s.AddLink(r.from, r.to, r.bw, r.lat); err != nil {
						t.Fatal(err)
					}
					removed = append(removed[:i], removed[i+1:]...)
					break
				}
			}
		}
		queued := make(map[int]bool)
		for _, src := range s.Dirty() {
			queued[src] = true
		}
		fresh := qos.FreezeGraph(s.Overlay())
		sc := qos.NewScratch()
		for _, src := range tracked {
			same := before[src].Equal(qos.ShortestWidestCSR(fresh, src, sc))
			switch {
			case !queued[src] && !same:
				t.Fatalf("event %d: row %d was kept but changed", ev, src)
			case !queued[src]:
				kept++
			case same:
				spared++
			default:
				changed++
			}
		}
	}
	t.Logf("%d row checks: %d kept, %d queued and changed, %d queued but unchanged", events*len(tracked), kept, changed, spared)
}
