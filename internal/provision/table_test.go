package provision

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sflow/internal/metrics"
	"sflow/internal/overlay"
	"sflow/internal/qos"
	"sflow/internal/require"
	"sflow/internal/scenario"
)

// outOrder returns the raw out-arc heads of u in the live residual, in
// adjacency order. Manager.Residual's callers see the same slice, but
// Allocator.Residual clones, and a clone sorts adjacency lists — which would
// hide an order bug.
func outOrder(ov *overlay.Overlay, u int) []int {
	var out []int
	for _, arc := range ov.Out(u) {
		out = append(out, arc.To)
	}
	return out
}

// Release must re-create the links an admission saturated in one fixed order.
// AddLink appends, so walking the reservations in map-iteration order would
// bring three links out of one node back in a random out-arc order — and arc
// order decides shortest-widest tie-breaks, so live and Replay could place
// equal-quality requests differently.
func TestReleaseRecreatesSaturatedLinksInOrder(t *testing.T) {
	o := overlay.New()
	for nid := 1; nid <= 4; nid++ {
		if err := o.AddInstance(nid, nid, -1); err != nil {
			t.Fatal(err)
		}
	}
	for to := 2; to <= 4; to++ {
		if err := o.AddLink(1, to, 50, int64(to)); err != nil {
			t.Fatal(err)
		}
	}
	req, err := require.FromEdges([][2]int{{1, 2}, {1, 3}, {1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	orders := make(map[string]int)
	for rep := 0; rep < 100; rep++ {
		m := NewManager(o)
		adm, err := m.Admit(req, 1, 50, optimalAlg)
		if err != nil {
			t.Fatal(err)
		}
		if got := outOrder(m.residual, 1); len(got) != 0 {
			t.Fatalf("demand 50 left out-arcs %v of node 1, want all three saturated", got)
		}
		if err := m.Release(adm); err != nil {
			t.Fatal(err)
		}
		got := outOrder(m.residual, 1)
		if !slices.Equal(got, []int{2, 3, 4}) {
			t.Fatalf("released out-arcs of node 1 in order %v, want [2 3 4]", got)
		}
		orders[fmt.Sprint(got)]++
	}
	if len(orders) != 1 {
		t.Fatalf("100 releases produced %d out-arc orders: %v", len(orders), orders)
	}
}

// tableStreamOutcome counts what a tableStream run exercised, so the tests
// can insist the stream covers every residual writer.
type tableStreamOutcome struct {
	admitted, rejected, released, committed, vetoed int
	saturated, rolledBack                           bool
}

// tableStream drives a fixed seeded operation stream through a real
// Allocator (two classes, preemption on) whose every federation reads the
// maintained residual table through Placement: admits whose demands
// saturate links, rejections, releases, committed and vetoed migrations,
// and one class-1 admission so large that evicting every class-0 tenant
// cannot make it fit, so the preemption trial rolls back. after, when
// non-nil, runs after every operation.
func tableStream(t *testing.T, sc *scenario.Scenario, reg *metrics.Registry, after func(a *Allocator)) (*Allocator, tableStreamOutcome) {
	t.Helper()
	const ops = 120
	a := NewAllocator(sc.Overlay, AllocatorOptions{Classes: 2, Preempt: true, Metrics: reg})
	alg := a.Placement(heuristicPlace)
	pristine := sc.Overlay.NumLinks()
	rng := rand.New(rand.NewSource(3))
	demands := []int64{118, 236, 803}
	var (
		held []uint64
		out  tableStreamOutcome
	)
	for i := 0; i < ops; i++ {
		r := rng.Intn(100)
		switch {
		case i == ops/2:
			// Class 1 with a demand no link can carry: every class-0 tenant
			// is evicted in turn, the retries all fail, and the victims are
			// restored.
			before := a.Tenants()
			hasVictim := false
			for _, ti := range before {
				hasVictim = hasVictim || ti.Class == 0
			}
			if !hasVictim {
				t.Fatalf("op %d: no class-0 tenant to preempt", i)
			}
			if _, err := a.Admit(AdmitRequest{Req: sc.Req, Src: sc.SourceNID, Demand: 1 << 40,
				Class: 1, Tag: "h", Alg: alg}); !errors.Is(err, ErrRejected) {
				t.Fatalf("op %d: impossible admission: %v", i, err)
			}
			if !reflect.DeepEqual(a.Tenants(), before) {
				t.Fatalf("op %d: the preemption rollback changed the tenants", i)
			}
			out.rejected++
			out.rolledBack = true
		case r < 55 || len(held) == 0:
			tk, err := a.Admit(AdmitRequest{Req: sc.Req, Src: sc.SourceNID,
				Demand: demands[rng.Intn(len(demands))], Class: rng.Intn(2), Tag: "h", Alg: alg})
			switch {
			case err == nil:
				held = append(held, tk.ID)
				out.admitted++
			case errors.Is(err, ErrRejected):
				out.rejected++
			default:
				t.Fatalf("op %d: admit: %v", i, err)
			}
		case r < 80:
			k := rng.Intn(len(held))
			err := a.Release(held[k])
			held = append(held[:k], held[k+1:]...)
			switch {
			case err == nil:
				out.released++
			case !errors.Is(err, ErrNoTicket): // a preempted ticket is gone
				t.Fatalf("op %d: release: %v", i, err)
			}
		default:
			id := held[rng.Intn(len(held))]
			veto := rng.Intn(2) == 0
			_, err := a.Migrate(id, alg, func(_, _ map[[2]int]Reservation) error {
				if veto {
					return errors.New("vetoed by the test")
				}
				return nil
			}, "h")
			switch {
			case err == nil:
				out.committed++
			case errors.Is(err, ErrVetoed):
				out.vetoed++
			case errors.Is(err, ErrNoTicket), errors.Is(err, ErrRejected):
			default:
				t.Fatalf("op %d: migrate: %v", i, err)
			}
		}
		_ = a.exec(func() { out.saturated = out.saturated || a.mgr.residual.NumLinks() < pristine })
		if after != nil {
			after(a)
		}
	}
	return a, out
}

// The maintained residual table is exact: after every operation of the
// stream it equals a from-scratch all-pairs computation on the live
// residual, and replaying the log so far — whose algorithm rebuilds every
// abstract graph with abstract.Build — reproduces the live allocator, raw
// out-arc order included.
func TestResidualTableMatchesFromScratch(t *testing.T) {
	sc := allocScenario(t, 7)
	step := 0
	a, out := tableStream(t, sc, nil, func(a *Allocator) {
		step++
		var tableOK bool
		_ = a.exec(func() {
			ap, _ := a.mgr.allPairs()
			tableOK = qos.TablesEqual(ap, qos.ComputeAllPairs(a.mgr.residual))
		})
		if !tableOK {
			t.Fatalf("step %d: maintained table differs from ComputeAllPairs", step)
		}
		seq, err := Replay(sc.Overlay, a.opts, a.Log(), func(Event) Algorithm { return heuristicAlg })
		if err != nil {
			t.Fatalf("step %d: replay diverged: %v", step, err)
		}
		if got, want := a.Tenants(), seq.Tenants(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: tenants diverge:\nlive %+v\n seq %+v", step, got, want)
		}
		if got, want := a.ClassCounters(), seq.ClassCounters(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: class counters diverge:\nlive %+v\n seq %+v", step, got, want)
		}
		_ = a.exec(func() {
			for _, u := range sc.Overlay.Nodes() {
				if got, want := outOrder(a.mgr.residual, u), outOrder(seq.mgr.residual, u); !slices.Equal(got, want) {
					t.Errorf("step %d: out-arcs of %d: live %v, replay %v", step, u, got, want)
				}
			}
			if got, want := sortedLinks(a.mgr.residual), sortedLinks(seq.mgr.residual); !reflect.DeepEqual(got, want) {
				t.Errorf("step %d: residual overlays diverge", step)
			}
		})
		if t.Failed() {
			t.FailNow()
		}
	})
	defer a.Close()
	if out.admitted == 0 || out.rejected == 0 || out.released == 0 || out.committed == 0 ||
		out.vetoed == 0 || !out.saturated || !out.rolledBack {
		t.Fatalf("the stream missed a residual writer: %+v", out)
	}
}

// The work the table saves is an exact count: the fixed stream's flushes
// recompute and keep these many rows, the same on every run and host.
// Change them only with a change to what the allocator invalidates, and say
// why in the same diff.
func TestResidualTableRowCounts(t *testing.T) {
	reg := metrics.New()
	a, _ := tableStream(t, allocScenario(t, 7), reg, nil)
	a.Close()
	recomputed := reg.Counter("alloc_table_rows_recomputed_total").Value()
	kept := reg.Counter("alloc_table_rows_kept_total").Value()
	// Rebuilding all 13 rows at each of the stream's 113 table reads would
	// recompute 1469. Reach-based invalidation recomputed 656 and kept 813;
	// the arc rules keep the rows a reservation or release cannot move.
	if recomputed != 571 || kept != 898 {
		t.Fatalf("the stream recomputed %d rows and kept %d, want 571 and 898", recomputed, kept)
	}
}

// admitMixStream drives the benchmark's admit-mix stream in process, on one
// connection: admits of admit-mix's requirement with a seeded demand of
// 10, 50 or 200 and a seeded class, through a two-class preempting
// allocator whose admissions read the maintained residual table, the oldest
// ticket released whenever an admit takes the held set past 8.
func admitMixStream(t *testing.T, admits int, reg *metrics.Registry) *Allocator {
	t.Helper()
	sc := admitMixScenario(t)
	a := NewAllocator(sc.Overlay, AllocatorOptions{Classes: 2, Preempt: true, Metrics: reg})
	alg := a.Placement(heuristicPlace)
	rng := rand.New(rand.NewSource(1))
	demands := []int64{10, 50, 200}
	var held []uint64
	for i := 0; i < admits; i++ {
		tk, err := a.Admit(AdmitRequest{Req: sc.Req, Src: sc.SourceNID,
			Demand: demands[rng.Intn(len(demands))], Class: rng.Intn(2), Alg: alg})
		switch {
		case err == nil:
			held = append(held, tk.ID)
		case !errors.Is(err, ErrRejected):
			t.Fatalf("admit %d: %v", i, err)
		}
		if len(held) > 8 {
			if err := a.Release(held[0]); err != nil && !errors.Is(err, ErrNoTicket) {
				t.Fatalf("admit %d: release: %v", i, err)
			}
			held = held[1:]
		}
	}
	return a
}

// The admit-mix stream's table work is an exact count: 1000 admits
// recompute these many of the 29 instance rows, and the residual table
// never re-freezes — a reservation or release changes bandwidths only, so
// every flush patches the table's freeze in place. Reach-based invalidation
// (every row that reached a changed arc's tail) recomputed 17565 rows and
// kept 11435 here.
func TestAdmitMixTableCounts(t *testing.T) {
	reg := metrics.New()
	a := admitMixStream(t, 1000, reg)
	var st qos.IncrementalStats
	_ = a.exec(func() { st = a.mgr.table.Stats() })
	a.Close()
	recomputed := reg.Counter("alloc_table_rows_recomputed_total").Value()
	kept := reg.Counter("alloc_table_rows_kept_total").Value()
	t.Logf("recomputed %d, kept %d, table %+v", recomputed, kept, st)
	if recomputed != 12520 || kept != 16480 {
		t.Fatalf("the stream recomputed %d rows and kept %d, want 12520 and 16480", recomputed, kept)
	}
	if st.RefreezesNodes != 0 || st.RefreezesArc != 0 || st.Patches == 0 {
		t.Fatalf("table %+v: want no re-freeze and every flush a patch", st)
	}
}

// admitMixScenario is the benchmark's admit-mix overlay: size 50, 8 services
// of 4 instances, a general requirement, scenario seed 1.
func admitMixScenario(t testing.TB) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.Generate(scenario.Config{Seed: 1, NetworkSize: 50, Services: 8,
		InstancesPerService: 4, Kind: scenario.KindGeneral})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// A steady-state admit and release on admit-mix's scenario allocates at most
// this much. The admission reads the maintained table, so its abstract graph
// costs no all-pairs run: only the rows the previous release dirtied are
// recomputed.
func TestAdmitReleaseAllocations(t *testing.T) {
	sc := admitMixScenario(t)
	a := NewAllocator(sc.Overlay, AllocatorOptions{Classes: 2, Preempt: true})
	defer a.Close()
	alg := a.Placement(heuristicPlace)
	cycle := func() {
		tk, err := a.Admit(AdmitRequest{Req: sc.Req, Src: sc.SourceNID, Demand: 50, Alg: alg})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Release(tk.ID); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // builds the table
	// It counts 186 (229 under the race detector); with reach-based
	// invalidation it counted 225. It counts, so it cannot flake.
	const ceiling = 400
	if got := testing.AllocsPerRun(50, cycle); got > ceiling {
		t.Fatalf("admit+release allocates %v, ceiling %d", got, ceiling)
	}
}
