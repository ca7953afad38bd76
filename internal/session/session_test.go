package session_test

import (
	"reflect"
	"testing"

	"sflow/internal/abstract"
	"sflow/internal/overlay"
	"sflow/internal/qos"
	"sflow/internal/require"
	"sflow/internal/scenario"
	"sflow/internal/session"
)

// traceScenario builds the seeded workload a trace test churns.
func traceScenario(t testing.TB, seed int64) *scenario.Scenario {
	t.Helper()
	kinds := []scenario.Kind{scenario.KindGeneral, scenario.KindDisjoint, scenario.KindSplitMerge}
	s, err := scenario.Generate(scenario.Config{
		Seed: seed, NetworkSize: 20, Services: 5,
		InstancesPerService: 3, Kind: kinds[int(seed)%len(kinds)],
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// assertTableEqual asserts the session's maintained all-pairs table is
// deep-equal to a from-scratch recomputation on its current overlay.
func assertTableEqual(t *testing.T, s *session.Session, seed int64, event int) {
	t.Helper()
	got := s.Table()
	want := qos.ComputeAllPairsWorkers(s.Overlay(), 1)
	if !qos.TablesEqual(got, want) || !qos.TablesEqual(want, got) {
		t.Fatalf("seed %d event %d: maintained table diverged from scratch rebuild", seed, event)
	}
}

// assertAbstractEqual asserts the session's cache-backed abstract graph is
// indistinguishable from a freshly built one: same slots, and the same metric
// and selected path on every abstract edge the requirement induces.
func assertAbstractEqual(t *testing.T, s *session.Session, req *require.Requirement, seed int64, event int) {
	t.Helper()
	got, gerr := s.Abstract(req)
	want, werr := abstract.BuildWith(s.Overlay(), req, qos.Options{Workers: 1})
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("seed %d event %d: abstract error mismatch: session %v, scratch %v", seed, event, gerr, werr)
	}
	if gerr != nil {
		return
	}
	for _, sid := range req.Services() {
		if !reflect.DeepEqual(got.Slots(sid), want.Slots(sid)) {
			t.Fatalf("seed %d event %d: slots of service %d diverged", seed, event, sid)
		}
	}
	for _, e := range req.Edges() {
		for _, from := range got.Slots(e[0]) {
			for _, to := range got.Slots(e[1]) {
				if got.EdgeMetric(from, to) != want.EdgeMetric(from, to) {
					t.Fatalf("seed %d event %d: edge metric %d->%d diverged", seed, event, from, to)
				}
				if !reflect.DeepEqual(got.EdgePath(from, to), want.EdgePath(from, to)) {
					t.Fatalf("seed %d event %d: edge path %d->%d diverged", seed, event, from, to)
				}
			}
		}
	}
}

// TestEquivalenceOracleTrace is the headline property test: over long seeded
// random mutation traces, the session's incrementally maintained QoS table
// and abstract graph are deep-equal — selected paths included — to
// from-scratch rebuilds on the mutated overlay after EVERY event.
func TestEquivalenceOracleTrace(t *testing.T) {
	seeds, events := 5, 1000
	if testing.Short() {
		seeds, events = 2, 250
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		sc := traceScenario(t, seed)
		// Alternate worker counts so the flush fan-out is exercised both
		// sequentially and in parallel (results must be identical).
		s := session.New(sc.Overlay, session.Options{Workers: int(seed % 3)})
		churn := session.NewChurn(s, seed*7+1, []int{sc.SourceNID}, sc.Req.Services())
		for e := 1; e <= events; e++ {
			ev, err := churn.Step()
			if err != nil {
				t.Fatalf("seed %d event %d: %v", seed, e, err)
			}
			assertTableEqual(t, s, seed, e)
			if e%10 == 0 {
				assertAbstractEqual(t, s, sc.Req, seed, e)
			}
			_ = ev
		}
		st := s.Stats()
		// A churn step is at least one session event (an instance join also
		// adds links, each its own event).
		if st.Events < int64(events) {
			t.Fatalf("seed %d: %d events recorded, want >= %d", seed, st.Events, events)
		}
		if st.RecomputedSources == 0 {
			t.Fatalf("seed %d: churn trace recomputed no sources", seed)
		}
		if st.SavedSources == 0 {
			t.Fatalf("seed %d: incremental maintenance saved nothing over %d events — dirty sets degenerate to full rebuilds", seed, events)
		}
	}
}

// TestBatchedEventsSingleFlush asserts events between solves coalesce: the
// dirty sets union, one flush pays for the whole batch, and the result still
// matches the oracle.
func TestBatchedEventsSingleFlush(t *testing.T) {
	sc := traceScenario(t, 11)
	s := session.New(sc.Overlay, session.Options{})
	churn := session.NewChurn(s, 3, []int{sc.SourceNID}, sc.Req.Services())
	flushes := s.Stats().Flushes
	for e := 0; e < 25; e++ {
		if _, err := churn.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Flushes; got != flushes {
		t.Fatalf("mutations alone triggered %d flushes", got-flushes)
	}
	dirty := s.Dirty()
	if len(dirty) == 0 {
		t.Fatal("25 mutations left no dirty sources")
	}
	if n := s.Flush(); n != len(dirty) {
		t.Fatalf("Flush recomputed %d sources, Dirty promised %d", n, len(dirty))
	}
	if len(s.Dirty()) != 0 {
		t.Fatal("dirty set survives a flush")
	}
	if s.Flush() != 0 {
		t.Fatal("second flush recomputed sources with nothing dirty")
	}
	assertTableEqual(t, s, 11, 25)
}

// TestSessionCloneIsolation asserts the session owns a private overlay: its
// events do not leak into the caller's overlay and vice versa.
func TestSessionCloneIsolation(t *testing.T) {
	sc := traceScenario(t, 2)
	linksBefore := sc.Overlay.NumLinks()
	s := session.New(sc.Overlay, session.Options{})
	links := s.Overlay().Links()
	if err := s.RemoveLink(links[0].From, links[0].To); err != nil {
		t.Fatal(err)
	}
	if sc.Overlay.NumLinks() != linksBefore {
		t.Fatal("session mutation leaked into the caller's overlay")
	}
	if err := sc.Overlay.RemoveLink(links[1].From, links[1].To); err != nil {
		t.Fatal(err)
	}
	if s.Overlay().NumLinks() != linksBefore-1 {
		t.Fatal("caller mutation leaked into the session's overlay")
	}
	assertTableEqual(t, s, 2, 0)
}

// TestSessionAbstractErrorParity asserts the cache-backed abstract build
// fails exactly when the stateless one would: a required service with no
// instance left.
func TestSessionAbstractErrorParity(t *testing.T) {
	ov := overlay.New()
	for _, in := range [][3]int{{1, 1, -1}, {2, 2, -1}, {3, 3, -1}} {
		if err := ov.AddInstance(in[0], in[1], in[2]); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][2]int{{1, 2}, {2, 3}} {
		if err := ov.AddLink(l[0], l[1], 100, 10); err != nil {
			t.Fatal(err)
		}
	}
	req, err := require.NewPath(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := session.New(ov, session.Options{})
	if _, err := s.Abstract(req); err != nil {
		t.Fatalf("abstract over intact overlay: %v", err)
	}
	if err := s.RemoveInstance(2); err != nil {
		t.Fatal(err)
	}
	_, gerr := s.Abstract(req)
	_, werr := abstract.BuildWith(s.Overlay(), req, qos.Options{Workers: 1})
	if gerr == nil || werr == nil {
		t.Fatalf("missing required service not rejected: session %v, scratch %v", gerr, werr)
	}
}

// TestSessionRejectsInvalidEvents asserts event methods surface the overlay
// mutators' validation errors without corrupting the caches.
func TestSessionRejectsInvalidEvents(t *testing.T) {
	sc := traceScenario(t, 4)
	s := session.New(sc.Overlay, session.Options{})
	events := s.Stats().Events
	if err := s.AddInstance(sc.SourceNID, 1, -1); err == nil {
		t.Fatal("duplicate NID accepted")
	}
	if err := s.RemoveInstance(99999); err == nil {
		t.Fatal("removal of unknown instance accepted")
	}
	if err := s.RemoveLink(99998, 99999); err == nil {
		t.Fatal("removal of unknown link accepted")
	}
	if err := s.GrowLinkBandwidth(99998, 99999, 5); err == nil {
		t.Fatal("growth of unknown link accepted")
	}
	if got := s.Stats().Events; got != events {
		t.Fatalf("rejected events were counted: %d != %d", got, events)
	}
	assertTableEqual(t, s, 4, 0)
}
