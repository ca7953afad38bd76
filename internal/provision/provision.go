// Package provision admits successive federation requests over one shared
// service overlay, maintaining residual link bandwidth — the
// "resource-efficient" half of the paper's title taken to its operational
// conclusion. Every admitted flow graph reserves its demanded bandwidth on
// each overlay link its streams cross; saturated links disappear from the
// residual overlay, so later requests see only what is left. Comparing how
// many requests each federation algorithm can admit measures how frugally it
// spends the network.
package provision

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"sflow/internal/flow"
	"sflow/internal/metrics"
	"sflow/internal/overlay"
	"sflow/internal/qos"
	"sflow/internal/require"
)

// ErrRejected is returned when a request cannot be admitted with its
// demanded bandwidth.
var ErrRejected = errors.New("provision: request rejected")

// RejectReason is the machine-readable cause carried by an AdmissionError.
type RejectReason string

// The rejection reasons an admission can fail with.
const (
	// ReasonQuota: the request's priority class is at its concurrent-
	// admission quota (Allocator only).
	ReasonQuota RejectReason = "quota"
	// ReasonCompute: the source instance is at its compute capacity.
	ReasonCompute RejectReason = "compute"
	// ReasonNoFlow: the federation algorithm found no feasible flow graph
	// on the residual overlay.
	ReasonNoFlow RejectReason = "no-flow"
	// ReasonBandwidth: a flow graph exists but cannot sustain the demanded
	// bandwidth (bottleneck too narrow, or the request's own streams
	// jointly oversubscribe a link).
	ReasonBandwidth RejectReason = "bandwidth"
)

// AdmissionError is the typed rejection every admission failure returns: it
// wraps ErrRejected (errors.Is keeps working) and adds a machine-readable
// Reason plus the rejected request's priority class, so callers and wire
// protocols can react to *why* a request bounced without parsing text.
type AdmissionError struct {
	Reason RejectReason
	// Class is the rejected request's priority class (0 outside an
	// Allocator, which stamps it).
	Class int
	// Detail is the human-readable specifics.
	Detail string
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("%v (%s): %s", ErrRejected, e.Reason, e.Detail)
}

// Unwrap makes errors.Is(err, ErrRejected) hold for every AdmissionError.
func (e *AdmissionError) Unwrap() error { return ErrRejected }

// Algorithm federates a requirement over (the residual) overlay from a
// source instance. The facade's Heuristic/Fixed/... functions have this
// shape; the distributed Federate is adapted trivially.
type Algorithm func(ov *overlay.Overlay, req *require.Requirement, src int) (*flow.Graph, qos.Metric, error)

// Admission records one accepted request.
type Admission struct {
	Req    *require.Requirement
	Flow   *flow.Graph
	Metric qos.Metric
	Demand int64

	// holds lists each (from, to) link this admission reserves bandwidth on,
	// with the link's latency (needed to re-create a link that saturated away
	// when the admission is released), ascending by link. Release and restore
	// walk it in that order, so a release that re-creates several saturated
	// links out of one node appends them to its out-arcs in one fixed order —
	// arc order decides shortest-widest tie-breaks, and Replay must see the
	// same residual the live run did.
	holds    []hold
	released bool
}

// hold is one entry of Admission.holds.
type hold struct {
	link [2]int
	Reservation
}

// Reservation is one admission's hold on one link: the bandwidth amount it
// reserves and the link's latency (kept so a link that saturated away can be
// re-created exactly on release).
type Reservation struct {
	Amount  int64
	Latency int64
}

// Reservations returns a copy of the admission's per-link holds, keyed by
// (from, to). The copy stays valid after the admission is released — it is
// the raw material for link-load accounting (see internal/reopt).
func (a *Admission) Reservations() map[[2]int]Reservation {
	out := make(map[[2]int]Reservation, len(a.holds))
	for _, h := range a.holds {
		out[h.link] = h.Reservation
	}
	return out
}

// Manager tracks the residual overlay across admissions.
type Manager struct {
	residual *overlay.Overlay
	admitted []*Admission
	// capacity bounds how many concurrent admissions an instance may serve
	// (0 = unlimited); inUse counts the active admissions per instance.
	capacity int
	inUse    map[int]int
	// totalBW is the aggregate link bandwidth of the pristine overlay and
	// reservedBW the bandwidth currently held by admissions — together the
	// residual-utilization ratio behind the metrics histogram.
	totalBW    int64
	reservedBW int64
	metrics    *metrics.Registry
	// table is the shortest-widest all-pairs table of residual, created by
	// the first allPairs call and kept current through arcChanged reports
	// from every residual writer (Admit's reserve loop, Release, restore).
	// Managers whose algorithms never ask for it never build it.
	table *qos.AllPairs
}

// NewManager starts provisioning on a copy of the given overlay; the
// original is never modified. reg, when non-nil, receives admissions,
// rejections, releases and a residual-bandwidth utilization histogram
// observed after every admission.
func NewManager(ov *overlay.Overlay, reg *metrics.Registry) *Manager {
	m := &Manager{residual: ov.Clone(), inUse: make(map[int]int), metrics: reg}
	for _, l := range m.residual.Links() {
		m.totalBW += l.Bandwidth
	}
	return m
}

// SetInstanceCapacity bounds the number of concurrent admissions each
// service instance may serve — the computing-resource half of the paper's
// resource model (0 restores unlimited). Instances at capacity are hidden
// from the federation algorithm for subsequent admissions.
func (m *Manager) SetInstanceCapacity(capacity int) { m.capacity = capacity }

// InstanceLoad returns how many active admissions instance nid serves.
func (m *Manager) InstanceLoad(nid int) int { return m.inUse[nid] }

// Residual returns the live residual overlay (shared, do not modify).
func (m *Manager) Residual() *overlay.Overlay { return m.residual }

// Admitted returns snapshots of the accepted requests in admission order.
// Release takes the live pointer returned by Admit, not these copies: the
// snapshots carry no reservation state (passing one to Release is an error
// rather than a silent corruption of the live books).
func (m *Manager) Admitted() []Admission {
	out := make([]Admission, 0, len(m.admitted))
	for _, a := range m.admitted {
		cp := *a
		// The live holds must not leak: a copy aliasing them would let
		// Release(&copy) return bandwidth while the live admission still
		// holds it, double-releasing on the next Release(live).
		cp.holds = nil
		out = append(out, cp)
	}
	return out
}

// NumAdmitted returns the number of accepted requests.
func (m *Manager) NumAdmitted() int { return len(m.admitted) }

// AggregateDemand returns the total bandwidth demand of all admissions.
func (m *Manager) AggregateDemand() int64 {
	var sum int64
	for _, a := range m.admitted {
		sum += a.Demand
	}
	return sum
}

// Admit federates req over the residual overlay using alg and, if the
// resulting flow graph sustains the demanded bandwidth on every stream,
// reserves that bandwidth along each stream's route. A request is rejected
// with an *AdmissionError — errors.Is(err, ErrRejected) holds, and the
// error's Reason says why — when the algorithm fails on the residual
// overlay or the achieved bottleneck falls short of the demand; rejection
// leaves the residual overlay untouched.
func (m *Manager) Admit(req *require.Requirement, src int, demand int64, alg Algorithm) (*Admission, error) {
	if demand <= 0 {
		return nil, fmt.Errorf("provision: non-positive demand %d", demand)
	}
	view := m.residual
	if m.capacity > 0 {
		if m.inUse[src] >= m.capacity {
			return nil, m.reject(&AdmissionError{Reason: ReasonCompute,
				Detail: fmt.Sprintf("source instance %d at compute capacity", src)})
		}
		view = m.residual.Clone()
		for nid, n := range m.inUse {
			if n >= m.capacity && nid != src {
				if err := view.RemoveInstance(nid); err != nil {
					return nil, err
				}
			}
		}
	}
	fg, metric, err := alg(view, req, src)
	if err != nil {
		return nil, m.reject(&AdmissionError{Reason: ReasonNoFlow, Detail: err.Error()})
	}
	if !metric.Reachable() || metric.Bandwidth < demand {
		return nil, m.reject(&AdmissionError{Reason: ReasonBandwidth,
			Detail: fmt.Sprintf("achievable bandwidth %d below demand %d", metric.Bandwidth, demand)})
	}
	if err := fg.Validate(req, view); err != nil {
		return nil, fmt.Errorf("provision: algorithm returned invalid flow: %w", err)
	}
	// A link crossed by k streams is charged k times; aggregate first so a
	// request whose own streams jointly oversubscribe a link is rejected
	// before anything is reserved (per-stream bottlenecks cannot see this
	// intra-request sharing).
	needs := make(map[[2]int]int64)
	for _, e := range fg.Edges() {
		for i := 0; i+1 < len(e.Path); i++ {
			needs[[2]int{e.Path[i], e.Path[i+1]}] += demand
		}
	}
	// Walk the links in (from, to) order, so the rejection names the same
	// failing link on every run and the holds come out sorted.
	holds := make([]hold, 0, len(needs))
	for link := range needs {
		holds = append(holds, hold{link: link})
	}
	slices.SortFunc(holds, func(x, y hold) int {
		return cmp.Or(cmp.Compare(x.link[0], y.link[0]), cmp.Compare(x.link[1], y.link[1]))
	})
	for i := range holds {
		link, need := holds[i].link, needs[holds[i].link]
		cur, ok := m.residual.LinkMetric(link[0], link[1])
		if !ok || cur.Bandwidth < need {
			return nil, m.reject(&AdmissionError{Reason: ReasonBandwidth,
				Detail: fmt.Sprintf("link %d->%d carries %d streams needing %d, has %d",
					link[0], link[1], need/demand, need, cur.Bandwidth)})
		}
		holds[i].Reservation = Reservation{Amount: need, Latency: cur.Latency}
	}
	for _, h := range holds {
		if err := m.reduce(h.link, h.Amount); err != nil {
			return nil, fmt.Errorf("provision: reserve %d on %d->%d: %w",
				h.Amount, h.link[0], h.link[1], err)
		}
		m.reservedBW += h.Amount
	}
	for _, nid := range fg.Assignment() {
		m.inUse[nid]++
	}
	a := &Admission{Req: req, Flow: fg, Metric: metric, Demand: demand, holds: holds}
	m.admitted = append(m.admitted, a)
	m.metrics.Counter("provision_admitted_total").Inc()
	m.observeUtilization()
	return a, nil
}

// reject counts the rejection (when instrumented) and passes err through.
// Like every metrics call site in this package it relies on the registry's
// nil-safety: a nil *Registry resolves nil handles whose updates are no-ops,
// so uninstrumented managers take this path without guards.
func (m *Manager) reject(err error) error {
	m.metrics.Counter("provision_rejected_total").Inc()
	return err
}

// observeUtilization records the share of the pristine overlay's aggregate
// bandwidth currently reserved, in percent, into a 10-point histogram.
func (m *Manager) observeUtilization() {
	if m.totalBW <= 0 {
		return
	}
	m.metrics.Histogram("provision_utilization_pct", metrics.LinearBounds(10, 10, 10)).
		Observe(m.utilizationPct())
}

// utilizationPct returns the reserved share of the pristine overlay's
// aggregate bandwidth in percent (0 on a bandwidth-less overlay).
func (m *Manager) utilizationPct() int64 {
	if m.totalBW <= 0 {
		return 0
	}
	return m.reservedBW * 100 / m.totalBW
}

// Release returns an admission's reserved bandwidth to the residual overlay
// (the request departed). Pass the pointer Admit returned. Links that
// saturated away are re-created with their original latency. Releasing the
// same admission twice is an error.
func (m *Manager) Release(a *Admission) error {
	if a == nil || a.holds == nil {
		return fmt.Errorf("provision: release of an admission without reservations")
	}
	if a.released {
		return fmt.Errorf("provision: admission already released")
	}
	a.released = true
	for _, nid := range a.Flow.Assignment() {
		if m.inUse[nid] > 0 {
			m.inUse[nid]--
		}
	}
	for _, h := range a.holds {
		from, to := h.link[0], h.link[1]
		m.reservedBW -= h.Amount
		if cur, ok := m.residual.LinkMetric(from, to); ok {
			if err := m.residual.GrowLinkBandwidth(from, to, h.Amount); err != nil {
				return err
			}
			m.arcChanged(h.link, cur.Bandwidth, cur.Bandwidth+h.Amount)
			continue
		}
		// The link saturated away: re-create it with the returned
		// capacity.
		if err := m.residual.AddLink(from, to, h.Amount, h.Latency); err != nil {
			return fmt.Errorf("provision: restore link %d->%d: %w", from, to, err)
		}
		m.arcChanged(h.link, 0, h.Amount)
	}
	m.metrics.Counter("provision_released_total").Inc()
	m.observeUtilization()
	return nil
}

// restore is the exact inverse of Release: it re-applies a released
// admission's recorded reservations without re-running the federation
// algorithm. The preemption rollback uses it — when evicting victims did not
// make a high-priority request fit, the victims are restored byte-identically
// (links that re-saturate to zero disappear again, exactly as they were).
// It must only be called on an admission this manager released, while the
// residual still has the released capacity available.
func (m *Manager) restore(a *Admission) error {
	if a == nil || a.holds == nil || !a.released {
		return fmt.Errorf("provision: restore of an admission that is not released")
	}
	for _, h := range a.holds {
		cur, ok := m.residual.LinkMetric(h.link[0], h.link[1])
		if !ok || cur.Bandwidth < h.Amount {
			return fmt.Errorf("provision: restore %d on %d->%d: capacity no longer available",
				h.Amount, h.link[0], h.link[1])
		}
	}
	for _, h := range a.holds {
		if err := m.reduce(h.link, h.Amount); err != nil {
			return fmt.Errorf("provision: restore %d on %d->%d: %w", h.Amount, h.link[0], h.link[1], err)
		}
		m.reservedBW += h.Amount
	}
	for _, nid := range a.Flow.Assignment() {
		m.inUse[nid]++
	}
	a.released = false
	return nil
}

// reduce reserves amount on one residual link (a link that saturates
// disappears) and reports the change to the maintained table.
func (m *Manager) reduce(link [2]int, amount int64) error {
	cur, _ := m.residual.LinkMetric(link[0], link[1])
	if err := m.residual.ReduceLinkBandwidth(link[0], link[1], amount); err != nil {
		return err
	}
	m.arcChanged(link, cur.Bandwidth, max(cur.Bandwidth-amount, 0))
	return nil
}

// arcChanged tells the maintained table, if there is one, that link's
// bandwidth went from b to b2 (0 = absent): the rows the change could move
// recompute at the next allPairs.
func (m *Manager) arcChanged(link [2]int, b, b2 int64) {
	if m.table != nil {
		m.table.ArcChanged(link[0], link[1], b, b2)
	}
}

// allPairs returns the shortest-widest all-pairs table of the live residual
// and how many of its rows this call recomputed. The first call builds every
// row; later calls recompute only the rows the reservations and releases
// since could have moved (qos.AllPairs.ArcChanged) — the flushed table is
// byte-identical to a fresh qos.New(m.Residual(), …). The table is updated
// in place by later calls. Rows are computed one after another: the dozen
// or so a reservation dirties cost less than a worker fan-out.
func (m *Manager) allPairs() (*qos.AllPairs, int) {
	if m.table == nil {
		m.table = qos.New(m.residual, qos.Options{Workers: 1})
		return m.table, m.residual.NumInstances()
	}
	return m.table, m.table.Flush()
}

// AdmitUntilRejected submits up to maxRequests identical requests and stops
// at the first rejection, returning how many were admitted. It is the
// admission-capacity probe used by the evaluation harness.
func (m *Manager) AdmitUntilRejected(req *require.Requirement, src int, demand int64, alg Algorithm, maxRequests int) (int, error) {
	for i := 0; i < maxRequests; i++ {
		if _, err := m.Admit(req, src, demand, alg); err != nil {
			if errors.Is(err, ErrRejected) {
				return i, nil
			}
			return i, err
		}
	}
	return maxRequests, nil
}
