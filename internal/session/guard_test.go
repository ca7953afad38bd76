package session_test

import (
	"strings"
	"testing"

	"sflow/internal/core"
	"sflow/internal/qos"
	"sflow/internal/session"
)

// TestMisuseDetectorPanics pins the concurrency contract: a guarded method
// entered while another guarded call is still running must panic with a
// message that names the overlapping operation and points at the fix, rather
// than silently corrupting the maintained table. The test holds the in-use
// flag directly (via the test-only Enter hook), which is exactly the state a
// second goroutine would observe mid-call.
func TestMisuseDetectorPanics(t *testing.T) {
	sc := traceScenario(t, 1)
	s := session.New(sc.Overlay, session.Options{Workers: 1})

	s.Enter("test-held")
	defer s.Exit()

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("guarded method ran while the session was in use; want panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		if !strings.Contains(msg, "concurrent Flush") || !strings.Contains(msg, "Snapshot") {
			t.Fatalf("panic message %q does not diagnose the misuse", msg)
		}
	}()
	s.Flush()
}

// TestRepairPartialRemovalsDoNotTripDetector guards against the detector
// tripping on the session's own nested calls: RepairPartial removes
// unresponsive instances through an internal path while the guard is held,
// and that must not be mistaken for concurrent misuse.
func TestRepairPartialRemovalsDoNotTripDetector(t *testing.T) {
	sc := traceScenario(t, 2)
	s := session.New(sc.Overlay, session.Options{Workers: 1})

	// Pick a non-source instance to declare unresponsive; a nil flow with
	// one unresponsive node exercises the removal callback.
	victim := -1
	for _, sid := range sc.Req.Services() {
		if sid == sc.Req.Source() {
			continue
		}
		if insts := s.Overlay().InstancesOf(sid); len(insts) > 1 {
			victim = insts[0]
			break
		}
	}
	if victim < 0 {
		t.Skip("scenario has no non-source service with a spare instance")
	}
	before := s.Overlay().NumInstances()
	perr := &core.PartialFederationError{Unresponsive: []int{victim}}
	if _, err := s.RepairPartial(sc.Req, sc.SourceNID, perr, core.Options{}); err != nil {
		// Repair may legitimately fail (no feasible re-federation); the
		// point is that the removal happened without a guard panic.
		t.Logf("repair returned error (acceptable): %v", err)
	}
	if got := s.Overlay().NumInstances(); got != before-1 {
		t.Fatalf("unresponsive instance not removed: %d instances, want %d", got, before-1)
	}
	// The session must be usable again after the guarded call returned.
	s.Flush()
	if got, want := s.Table(), qos.ComputeAllPairsWorkers(s.Overlay(), 1); !qos.TablesEqual(got, want) {
		t.Fatal("maintained table diverged after repair removals")
	}
}
