package session_test

import (
	"reflect"
	"testing"

	"sflow/internal/qos"
	"sflow/internal/session"
)

// assertRowsMatchScratch deep-compares every currently materialized lazy row
// — reachable set, metrics, selected paths — against a from-scratch eager
// rebuild on the session's current overlay. Rows nobody read are exactly the
// rows allowed to be absent.
func assertRowsMatchScratch(t *testing.T, s *session.Session, lt *qos.AllPairs, seed int64, event int) {
	t.Helper()
	scratch := qos.ComputeAllPairsWorkers(s.Overlay(), 1)
	for _, src := range lt.ComputedRows() {
		got, want := lt.From(src), scratch.From(src)
		if want == nil {
			t.Fatalf("seed %d event %d: materialized row %d has no scratch counterpart", seed, event, src)
		}
		for _, dst := range scratch.Sources() {
			if gm, wm := got.Metric(dst), want.Metric(dst); gm != wm {
				t.Fatalf("seed %d event %d: row %d metric to %d: lazy %v, scratch %v", seed, event, src, dst, gm, wm)
			}
			if gp, wp := got.PathTo(dst), want.PathTo(dst); !reflect.DeepEqual(gp, wp) {
				t.Fatalf("seed %d event %d: row %d path to %d: lazy %v, scratch %v", seed, event, src, dst, gp, wp)
			}
		}
	}
}

// TestLazyEquivalenceOracleTrace replays the equivalence-oracle churn traces
// on a LAZY session: after every event, each row the demand-driven table has
// materialized deep-equals a from-scratch rebuild on the mutated overlay —
// if invalidation ever under-evicts, a stale row survives churn and this
// catches it. Periodically the whole table is materialized and compared both
// ways, and the cache-backed abstract graph checked against a fresh build.
func TestLazyEquivalenceOracleTrace(t *testing.T) {
	seeds, events := 5, 1000
	if testing.Short() {
		seeds, events = 2, 250
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		sc := traceScenario(t, seed)
		s := session.New(sc.Overlay, session.Options{Workers: int(seed % 3), Lazy: true})
		if !s.Lazy() {
			t.Fatal("Options.Lazy did not produce a lazy session")
		}
		churn := session.NewChurn(s, seed*7+1, []int{sc.SourceNID}, sc.Req.Services())
		// Seed some demand so early events have materialized rows to evict.
		s.Table().From(sc.SourceNID)
		for e := 1; e <= events; e++ {
			if _, err := churn.Step(); err != nil {
				t.Fatalf("seed %d event %d: %v", seed, e, err)
			}
			lt := s.Table()
			assertRowsMatchScratch(t, s, lt, seed, e)
			if e%25 == 0 {
				want := qos.ComputeAllPairsWorkers(s.Overlay(), 1)
				if !qos.TablesEqual(lt, want) || !qos.TablesEqual(want, lt) {
					t.Fatalf("seed %d event %d: materialized lazy table diverged from scratch", seed, e)
				}
				assertAbstractEqual(t, s, sc.Req, seed, e)
			}
		}
		st := s.Stats()
		if st.Events < int64(events) {
			t.Fatalf("seed %d: %d events recorded, want >= %d", seed, st.Events, events)
		}
		// Lazy flushes evict; they never run routing.
		if st.RecomputedSources != 0 {
			t.Fatalf("seed %d: lazy session recomputed %d sources in flushes, want 0", seed, st.RecomputedSources)
		}
		if st.EvictedRows == 0 {
			t.Fatalf("seed %d: churn trace evicted no rows", seed)
		}
	}
}

// TestLazySnapshotIsConsistentAndImmutable is the lazy half of the snapshot
// publication contract: a lazy session's snapshots answer exactly like a
// from-scratch computation on their own overlay — including rows first read
// long after later churn mutated the live session — and never move.
func TestLazySnapshotIsConsistentAndImmutable(t *testing.T) {
	sc := traceScenario(t, 3)
	s := session.New(sc.Overlay, session.Options{Workers: 1, Lazy: true})

	churn := session.NewChurn(s, 3, []int{sc.SourceNID}, sc.Req.Services())
	var snaps []*session.Snapshot
	for i := 0; i < 30; i++ {
		if _, err := churn.Step(); err != nil {
			t.Fatalf("churn step %d: %v", i, err)
		}
		if i%5 == 4 {
			// Read a row or two before publishing so snapshots carry a mix
			// of pre-materialized and on-demand rows.
			s.Table().From(sc.SourceNID)
			snaps = append(snaps, s.Snapshot())
		}
	}
	for i, sn := range snaps {
		want := qos.ComputeAllPairsWorkers(sn.Overlay, 1)
		if !qos.TablesEqual(sn.AllPairs, want) || !qos.TablesEqual(want, sn.AllPairs) {
			t.Fatalf("lazy snapshot %d does not match its own overlay after churn", i)
		}
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Epoch <= snaps[i-1].Epoch {
			t.Fatalf("epochs not strictly increasing: %d then %d", snaps[i-1].Epoch, snaps[i].Epoch)
		}
	}
}
