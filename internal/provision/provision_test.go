package provision

import (
	"errors"
	"testing"

	"sflow/internal/abstract"
	"sflow/internal/exact"
	"sflow/internal/flow"
	"sflow/internal/overlay"
	"sflow/internal/qos"
	"sflow/internal/require"
)

// optimalAlg adapts the exact solver to the Algorithm shape.
func optimalAlg(ov *overlay.Overlay, req *require.Requirement, src int) (*flow.Graph, qos.Metric, error) {
	ag, err := abstract.Build(ov, req)
	if err != nil {
		return nil, qos.Unreachable, err
	}
	r, err := exact.Solve(ag, src, exact.Options{})
	if err != nil {
		return nil, qos.Unreachable, err
	}
	return r.Flow, r.Metric, nil
}

// chainOverlay: services 1 -> 2 with two parallel instance routes of
// capacity 100 and 60.
func chainOverlay(t *testing.T) (*overlay.Overlay, *require.Requirement) {
	t.Helper()
	o := overlay.New()
	for _, in := range [][2]int{{10, 1}, {20, 2}, {21, 2}} {
		if err := o.AddInstance(in[0], in[1], -1); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.AddLink(10, 20, 100, 5); err != nil {
		t.Fatal(err)
	}
	if err := o.AddLink(10, 21, 60, 1); err != nil {
		t.Fatal(err)
	}
	req, err := require.NewPath(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	return o, req
}

func TestAdmitReservesAndReroutes(t *testing.T) {
	o, req := chainOverlay(t)
	m := NewManager(o, nil)

	// First request (demand 50): optimal picks the 100-link to 20.
	a1, err := m.Admit(req, 10, 50, optimalAlg)
	if err != nil {
		t.Fatal(err)
	}
	if nid, _ := a1.Flow.Assigned(2); nid != 20 {
		t.Fatalf("first admission on %d, want 20", nid)
	}
	// Residual: 10->20 now 50.
	if mtr, ok := m.Residual().LinkMetric(10, 20); !ok || mtr.Bandwidth != 50 {
		t.Fatalf("residual 10->20 = %+v, %v", mtr, ok)
	}

	// Second request (demand 55): 10->20 only has 50 left, so the
	// algorithm must shift to instance 21 (60 wide).
	a2, err := m.Admit(req, 10, 55, optimalAlg)
	if err != nil {
		t.Fatal(err)
	}
	if nid, _ := a2.Flow.Assigned(2); nid != 21 {
		t.Fatalf("second admission on %d, want 21", nid)
	}
	// 10->21 residual 5.
	if mtr, ok := m.Residual().LinkMetric(10, 21); !ok || mtr.Bandwidth != 5 {
		t.Fatalf("residual 10->21 = %+v, %v", mtr, ok)
	}

	// Third request (demand 55): nothing left that wide.
	if _, err := m.Admit(req, 10, 55, optimalAlg); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	// Rejection must not change the residual overlay.
	if mtr, _ := m.Residual().LinkMetric(10, 20); mtr.Bandwidth != 50 {
		t.Fatal("rejection mutated residual")
	}
	if m.NumAdmitted() != 2 || m.AggregateDemand() != 105 {
		t.Fatalf("admitted=%d aggregate=%d", m.NumAdmitted(), m.AggregateDemand())
	}
}

func TestAdmitSaturationRemovesLink(t *testing.T) {
	o, req := chainOverlay(t)
	m := NewManager(o, nil)
	// Demand exactly the full 60 on the 10->21 route: pin by saturating
	// 10->20 first.
	if _, err := m.Admit(req, 10, 100, optimalAlg); err != nil {
		t.Fatal(err)
	}
	if m.Residual().HasLink(10, 20) {
		t.Fatal("fully reserved link should be removed")
	}
	if _, err := m.Admit(req, 10, 60, optimalAlg); err != nil {
		t.Fatal(err)
	}
	if m.Residual().HasLink(10, 21) {
		t.Fatal("second link should be gone too")
	}
	// Everything saturated: reject.
	if _, err := m.Admit(req, 10, 1, optimalAlg); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
}

func TestAdmitLeavesOriginalUntouched(t *testing.T) {
	o, req := chainOverlay(t)
	m := NewManager(o, nil)
	if _, err := m.Admit(req, 10, 100, optimalAlg); err != nil {
		t.Fatal(err)
	}
	if mtr, ok := o.LinkMetric(10, 20); !ok || mtr.Bandwidth != 100 {
		t.Fatal("manager mutated the original overlay")
	}
}

func TestAdmitValidation(t *testing.T) {
	o, req := chainOverlay(t)
	m := NewManager(o, nil)
	if _, err := m.Admit(req, 10, 0, optimalAlg); err == nil {
		t.Fatal("zero demand accepted")
	}
	if _, err := m.Admit(req, 10, -5, optimalAlg); err == nil {
		t.Fatal("negative demand accepted")
	}
}

func TestAdmitUntilRejected(t *testing.T) {
	o, req := chainOverlay(t)
	m := NewManager(o, nil)
	// Demand 30: 100-link fits 3, 60-link fits 2 => 5 admissions.
	n, err := m.AdmitUntilRejected(req, 10, 30, optimalAlg, 100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("admitted %d, want 5", n)
	}
	// Cap respected.
	m2 := NewManager(o, nil)
	n, err = m2.AdmitUntilRejected(req, 10, 30, optimalAlg, 2)
	if err != nil || n != 2 {
		t.Fatalf("capped admissions = %d, %v", n, err)
	}
}

func TestReduceLinkBandwidthErrors(t *testing.T) {
	o, _ := chainOverlay(t)
	if err := o.ReduceLinkBandwidth(10, 99, 5); err == nil {
		t.Fatal("missing link accepted")
	}
	if err := o.ReduceLinkBandwidth(10, 20, -1); err == nil {
		t.Fatal("negative delta accepted")
	}
	// Reduction is visible through In() as well.
	if err := o.ReduceLinkBandwidth(10, 20, 40); err != nil {
		t.Fatal(err)
	}
	for _, a := range o.In(20) {
		if a.To == 10 && a.Bandwidth != 60 {
			t.Fatalf("In bandwidth = %d, want 60", a.Bandwidth)
		}
	}
}

func TestReleaseRestoresCapacity(t *testing.T) {
	o, req := chainOverlay(t)
	m := NewManager(o, nil)
	a, err := m.Admit(req, 10, 100, optimalAlg) // saturates 10->20 away
	if err != nil {
		t.Fatal(err)
	}
	if m.Residual().HasLink(10, 20) {
		t.Fatal("link should be saturated away")
	}
	if err := m.Release(a); err != nil {
		t.Fatal(err)
	}
	// The link is back with its full capacity and original latency.
	mtr, ok := m.Residual().LinkMetric(10, 20)
	if !ok || mtr.Bandwidth != 100 || mtr.Latency != 5 {
		t.Fatalf("restored link = %+v, %v", mtr, ok)
	}
	// Double release is rejected.
	if err := m.Release(a); err == nil {
		t.Fatal("double release accepted")
	}
	// Partial reservation release: admit 40, release, capacity restored.
	b, err := m.Admit(req, 10, 40, optimalAlg)
	if err != nil {
		t.Fatal(err)
	}
	if mtr, _ := m.Residual().LinkMetric(10, 20); mtr.Bandwidth != 60 {
		t.Fatalf("after partial reserve = %+v", mtr)
	}
	if err := m.Release(b); err != nil {
		t.Fatal(err)
	}
	if mtr, _ := m.Residual().LinkMetric(10, 20); mtr.Bandwidth != 100 {
		t.Fatalf("after release = %+v", mtr)
	}
	if err := m.Release(&Admission{}); err == nil {
		t.Fatal("release of empty admission accepted")
	}
}

func TestAdmitReleaseCycleIsLossless(t *testing.T) {
	o, req := chainOverlay(t)
	m := NewManager(o, nil)
	for cycle := 0; cycle < 20; cycle++ {
		a, err := m.Admit(req, 10, 70, optimalAlg)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if err := m.Release(a); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	// After any number of cycles the residual equals the original.
	for _, l := range o.Links() {
		got, ok := m.Residual().LinkMetric(l.From, l.To)
		if !ok || got.Bandwidth != l.Bandwidth || got.Latency != l.Latency {
			t.Fatalf("link %d->%d drifted: %+v", l.From, l.To, got)
		}
	}
}

func TestInstanceCapacity(t *testing.T) {
	o, req := chainOverlay(t)
	m := NewManager(o, nil)
	m.SetInstanceCapacity(1)

	// Source capacity 1: only one admission can run at a time through the
	// single source instance.
	a, err := m.Admit(req, 10, 10, optimalAlg)
	if err != nil {
		t.Fatal(err)
	}
	if m.InstanceLoad(10) != 1 {
		t.Fatalf("source load = %d", m.InstanceLoad(10))
	}
	if _, err := m.Admit(req, 10, 10, optimalAlg); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected at source capacity", err)
	}
	if err := m.Release(a); err != nil {
		t.Fatal(err)
	}
	if m.InstanceLoad(10) != 0 {
		t.Fatalf("source load after release = %d", m.InstanceLoad(10))
	}
	if _, err := m.Admit(req, 10, 10, optimalAlg); err != nil {
		t.Fatalf("admission after release: %v", err)
	}
}

func TestInstanceCapacityShiftsLoad(t *testing.T) {
	// Two consumers enter at different source instances; with capacity 1
	// the second federation must avoid the service-2 instance the first
	// one loaded, even though it is wider.
	o, req := chainOverlay(t)
	if err := o.AddInstance(11, 1, -1); err != nil {
		t.Fatal(err)
	}
	if err := o.AddLink(11, 20, 90, 5); err != nil {
		t.Fatal(err)
	}
	if err := o.AddLink(11, 21, 90, 5); err != nil {
		t.Fatal(err)
	}
	m := NewManager(o, nil)
	m.SetInstanceCapacity(1)
	first, err := m.Admit(req, 10, 10, optimalAlg)
	if err != nil {
		t.Fatal(err)
	}
	firstNID, _ := first.Flow.Assigned(2)
	if firstNID != 20 {
		t.Fatalf("first admission on %d, want the wide instance 20", firstNID)
	}
	second, err := m.Admit(req, 11, 10, optimalAlg)
	if err != nil {
		t.Fatal(err)
	}
	secondNID, _ := second.Flow.Assigned(2)
	if secondNID != 21 {
		t.Fatalf("second admission on %d despite instance 20 at capacity", secondNID)
	}
}
