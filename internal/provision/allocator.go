// The multi-tenant capacity allocator: a concurrent admission front over
// Manager. Many goroutines call Admit/Release; one writer loop serializes
// them against the shared residual overlay, so every admission decision sees
// a consistent view and the whole history collapses to one recorded
// sequential order (the Log) that Replay can re-execute as an equivalence
// oracle. Priority classes add per-class admission quotas, per-class
// fairness counters, and — when enabled — preemption: a high-priority
// request that would otherwise bounce may evict strictly-lower-priority
// tenants, with an exact rollback when even full eviction does not make it
// fit. TTLs turn admissions into leases: an expired ticket is released
// through the same writer loop, so departures serialize with admissions.
package provision

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"sflow/internal/abstract"
	"sflow/internal/flow"
	"sflow/internal/metrics"
	"sflow/internal/overlay"
	"sflow/internal/qos"
	"sflow/internal/require"
)

// ErrClosed is returned by Allocator methods after Close.
var ErrClosed = errors.New("provision: allocator closed")

// ErrNoTicket is returned by Release for a ticket that is not active —
// never admitted, already released, expired, or preempted by a
// higher-class admission.
var ErrNoTicket = errors.New("provision: no such active ticket")

// ErrVetoed is returned by Migrate when the caller's gate rejected the
// re-placement: the migration was rolled back exactly and the tenant still
// holds its original reservations.
var ErrVetoed = errors.New("provision: migration vetoed")

// Observer receives committed tenant transitions. Every callback runs on the
// allocator's writer loop, strictly in the recorded serialization order, so
// an observer that folds reservations into its own books (a link-load
// ledger, say) sees exactly the residual overlay's history. Callbacks must
// not call back into the Allocator (the loop would deadlock) and should be
// quick — they serialize with admissions.
//
// Speculative work never reaches an observer: preemption trials, migration
// trials and gate-vetoed migrations are invisible because their releases and
// re-admissions are rolled back before the operation returns.
type Observer interface {
	// TenantAdmitted fires after an admission commits. For an admission
	// that preempted victims, the victims' TenantDeparted callbacks fire
	// first — the order capacity actually moved.
	TenantAdmitted(t *Ticket)
	// TenantDeparted fires after a tenant's reservations were returned for
	// good. kind is EventRelease, EventExpire or EventPreempt.
	TenantDeparted(t *Ticket, kind EventKind)
	// TenantMigrated fires after a committed migration: old's reservations
	// were returned and fresh's (same ticket ID) are now held.
	TenantMigrated(old, fresh *Ticket)
}

// AllocatorOptions tunes a multi-tenant Allocator. The zero value is a
// single-class allocator with no quotas, no preemption and no instance
// capacity bound.
type AllocatorOptions struct {
	// Classes is the number of priority classes; requests carry a class in
	// [0, Classes), larger meaning more important. 0 defaults to 1.
	Classes int
	// Quotas caps the number of concurrently admitted tenants per class
	// (indexed by class; missing or zero entries mean unlimited). A request
	// whose class is at quota is rejected with ReasonQuota before any
	// federation work runs — per-class throttling.
	Quotas []int
	// Preempt allows a request that would otherwise be rejected for
	// capacity (ReasonBandwidth, ReasonNoFlow or ReasonCompute) to evict
	// admitted tenants of strictly lower classes, lowest class first and
	// youngest first within a class. Victims are evicted one at a time and
	// the request retried; if it still does not fit after every candidate
	// is gone, all victims are restored byte-identically and the request is
	// rejected. Quota rejections never preempt.
	Preempt bool
	// InstanceCapacity bounds concurrent admissions per service instance
	// (0 = unlimited); see Manager.SetInstanceCapacity.
	InstanceCapacity int
	// Metrics, when non-nil, receives per-class admission counters
	// (alloc_admitted_total{class=...} and friends), an active-tenant gauge
	// and a residual-utilization histogram.
	Metrics *metrics.Registry
	// Observer, when non-nil, receives committed tenant transitions on the
	// writer loop (see Observer). Replay ignores it: the oracle re-executes
	// the log without side effects.
	Observer Observer
}

// Ticket is one admitted tenant: the handle Release takes. Its exported
// fields are immutable after Admit returns.
type Ticket struct {
	ID     uint64
	Tag    string
	Class  int
	Src    int
	Demand int64
	// Flow and Metric are the admitted federation outcome.
	Flow   *flow.Graph
	Metric qos.Metric
	// Expires is the lease deadline (zero when admitted without a TTL).
	Expires time.Time

	adm *Admission // live manager-side admission; writer-owned
}

// Reservations returns a copy of the per-link bandwidth holds behind this
// ticket. Safe to call from Observer callbacks (the ticket handed to a
// callback is committed); the copy never changes afterwards.
func (t *Ticket) Reservations() map[[2]int]Reservation {
	return t.adm.Reservations()
}

// TenantInfo is a point-in-time public snapshot of one admitted tenant.
type TenantInfo struct {
	Ticket uint64 `json:"ticket"`
	Tag    string `json:"tag,omitempty"`
	Class  int    `json:"class"`
	Src    int    `json:"src"`
	Demand int64  `json:"demand"`
	// ExpiresMS is the lease deadline in Unix milliseconds (0 = no TTL).
	ExpiresMS int64 `json:"expires_ms,omitempty"`
}

// ClassCounters is the fairness ledger of one priority class.
type ClassCounters struct {
	Class int `json:"class"`
	// Admitted counts requests of this class that were admitted; Rejected
	// those that bounced (for any reason, quota included); Preempted the
	// admitted tenants of this class later evicted by higher classes;
	// Released explicit departures; Expired TTL departures; Migrated
	// committed re-placements (the tenant stays active, so Migrated moves
	// neither Active nor Admitted).
	Admitted  int64 `json:"admitted"`
	Rejected  int64 `json:"rejected"`
	Preempted int64 `json:"preempted"`
	Released  int64 `json:"released"`
	Expired   int64 `json:"expired"`
	Migrated  int64 `json:"migrated,omitempty"`
	// Active is the number of currently admitted tenants of this class.
	Active int `json:"active"`
}

// AdmitRequest is one admission attempt submitted to an Allocator.
type AdmitRequest struct {
	Req    *require.Requirement
	Src    int
	Demand int64
	// Class is the request's priority class in [0, AllocatorOptions.Classes).
	Class int
	// TTL, when positive, auto-releases the admission after it elapses
	// (recorded as an EventExpire in the log).
	TTL time.Duration
	// Tag is an opaque caller label recorded in the event log; Replay's
	// algFor callback typically keys on it to rebuild the algorithm.
	Tag string
	// Alg federates the request over the residual overlay. The
	// serialization oracle only holds for deterministic algorithms: an
	// algorithm with hidden state (a shared Rng) may diverge under Replay.
	Alg Algorithm
}

// EventKind classifies one entry of the allocator's recorded serialization.
type EventKind string

// The event kinds an allocator log contains.
const (
	EventAdmit   EventKind = "admit"
	EventReject  EventKind = "reject"
	EventRelease EventKind = "release"
	EventExpire  EventKind = "expire"
	// EventMigrate records a committed Migrate: the ticket's reservations
	// were re-placed by a fresh federation run. Replay re-executes it with
	// the algorithm algFor rebuilds from the event's Tag.
	EventMigrate EventKind = "migrate"
	// EventPreempt never appears in the log (a preemption is recorded inside
	// the admitting event's Preempted list); it exists as the departure kind
	// Observer.TenantDeparted reports for evicted tenants.
	EventPreempt EventKind = "preempt"
)

// Event is one entry of the allocator's admission log: the exact sequential
// order the single-writer loop processed operations in. Replay re-executes a
// log against a fresh allocator; because every mutation of the residual
// overlay happens on the writer loop, replaying the log reproduces the final
// state exactly (for deterministic algorithms).
type Event struct {
	Seq    uint64
	Kind   EventKind
	Ticket uint64 // admitted/released ticket ID (0 for rejects)
	Tag    string
	Class  int
	Src    int
	Demand int64
	// Req is the admitted requirement (admit/reject events), kept so Replay
	// can re-run the attempt.
	Req *require.Requirement
	// Reason is the rejection cause (reject events).
	Reason RejectReason
	// Preempted lists the tickets evicted to make this admission fit.
	Preempted []uint64
}

// classState is the writer-owned ledger of one priority class.
type classState struct {
	admitted, rejected, preempted, released, expired, migrated int64
	active                                                     int
}

// allocCmd is one closure queued to the writer loop.
type allocCmd struct {
	run  func()
	done chan struct{}
}

// Allocator is a concurrent, multi-tenant admission controller over one
// shared overlay. All methods are safe for concurrent use: they funnel
// through a single writer goroutine, so admissions, releases and TTL
// expiries execute in one total order — the order Log records.
type Allocator struct {
	opts AllocatorOptions
	mgr  *Manager

	async  bool // false for Replay: commands run on the caller's goroutine
	cmds   chan allocCmd
	stop   chan struct{}
	done   chan struct{}
	closed atomic.Bool

	// Writer-owned state (guarded by the loop, or by the single caller in
	// sync mode).
	seq     uint64
	nextID  uint64
	tickets map[uint64]*Ticket
	classes []classState
	log     []Event
	timers  map[uint64]*time.Timer

	// Pre-resolved metric handles (nil-safe without a registry).
	activeGauge                 *metrics.Gauge
	utilization                 *metrics.Histogram
	rowsRecomputed, rowsKept    *metrics.Counter
	dirtiedWorse, dirtiedBetter *metrics.Counter
	refreezeNodes, refreezeArc  *metrics.Counter
	tableSeen                   qos.Stats
}

// NewAllocator starts a multi-tenant allocator over a private residual copy
// of ov and spins up its writer loop. Call Close when done.
func NewAllocator(ov *overlay.Overlay, opts AllocatorOptions) *Allocator {
	a := newAllocator(ov, opts, true)
	go a.loop()
	return a
}

// newAllocator builds the allocator core; async selects whether commands go
// through the writer loop (NewAllocator) or run on the caller's goroutine
// (Replay, which is single-threaded by construction).
func newAllocator(ov *overlay.Overlay, opts AllocatorOptions, async bool) *Allocator {
	if opts.Classes <= 0 {
		opts.Classes = 1
	}
	// The manager stays uninstrumented on purpose: preemption trials admit
	// and release speculatively, which would pollute the provision_*
	// counters. The allocator keeps its own books and mirrors them into the
	// registry only for client-visible outcomes.
	a := &Allocator{
		opts:    opts,
		mgr:     NewManager(ov, nil),
		async:   async,
		cmds:    make(chan allocCmd),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		tickets: make(map[uint64]*Ticket),
		classes: make([]classState, opts.Classes),
		timers:  make(map[uint64]*time.Timer),
	}
	a.mgr.SetInstanceCapacity(opts.InstanceCapacity)
	if reg := opts.Metrics; reg != nil {
		// A gauge is a point-in-time reading: when several allocators share
		// one registry (an experiment sweep), the final value depends on
		// scheduling, so it must stay out of the stable snapshot.
		a.activeGauge = reg.Gauge("alloc_active_tenants", metrics.Volatile())
		a.utilization = reg.Histogram("alloc_utilization_pct", metrics.LinearBounds(10, 10, 10))
		a.rowsRecomputed = reg.Counter("alloc_table_rows_recomputed_total")
		a.rowsKept = reg.Counter("alloc_table_rows_kept_total")
		// The residual table's invalidation counts, by the rule that dirtied
		// a row and the cause of a re-freeze: qos_incremental_*'s labels
		// under the alloc_table_ prefix, so that a registry shared with a
		// session keeps the two tables apart.
		rule := func(r string) metrics.Option { return metrics.WithLabels(metrics.Label{Name: "rule", Value: r}) }
		cause := func(c string) metrics.Option { return metrics.WithLabels(metrics.Label{Name: "cause", Value: c}) }
		a.dirtiedWorse = reg.Counter("alloc_table_rows_dirtied_total", rule("worsening"))
		a.dirtiedBetter = reg.Counter("alloc_table_rows_dirtied_total", rule("improvement"))
		a.refreezeNodes = reg.Counter("alloc_table_refreezes_total", cause("nodes"))
		a.refreezeArc = reg.Counter("alloc_table_refreezes_total", cause("arc"))
	}
	return a
}

// loop is the single writer: every admission, release and expiry runs here.
func (a *Allocator) loop() {
	defer close(a.done)
	for {
		select {
		case <-a.stop:
			return
		case c := <-a.cmds:
			c.run()
			close(c.done)
		}
	}
}

// exec runs fn on the writer loop and waits for it. In sync mode (Replay)
// it runs fn directly.
func (a *Allocator) exec(fn func()) error {
	if !a.async {
		if a.closed.Load() {
			return ErrClosed
		}
		fn()
		return nil
	}
	done := make(chan struct{})
	select {
	case a.cmds <- allocCmd{run: fn, done: done}:
	case <-a.stop:
		return ErrClosed
	}
	select {
	case <-done:
		return nil
	case <-a.stop:
		// The loop may have completed fn just as Close raced in; prefer
		// the completed reply over the shutdown error.
		select {
		case <-done:
			return nil
		default:
			return ErrClosed
		}
	}
}

// Close stops the writer loop and every pending TTL timer. Admissions stay
// reserved (the residual overlay is frozen as-is); concurrent callers
// blocked on the loop get ErrClosed. Safe to call more than once.
func (a *Allocator) Close() {
	if a.closed.Swap(true) {
		return
	}
	if a.async {
		close(a.stop)
		<-a.done
	}
	for _, tm := range a.timers {
		tm.Stop()
	}
}

// Admit submits one admission attempt. On success the returned Ticket is the
// release handle; on rejection the error is an *AdmissionError carrying the
// machine-readable reason (errors.Is(err, ErrRejected) holds). Safe for many
// concurrent callers; each call occupies the writer loop for the duration of
// its federation run, so admissions serialize.
func (a *Allocator) Admit(r AdmitRequest) (*Ticket, error) {
	var (
		t   *Ticket
		err error
	)
	if e := a.exec(func() { t, _, err = a.admitCore(r) }); e != nil {
		return nil, e
	}
	return t, err
}

// Release returns ticket id's reserved capacity to the residual overlay.
func (a *Allocator) Release(id uint64) error {
	var err error
	if e := a.exec(func() { err = a.releaseCore(id, EventRelease) }); e != nil {
		return e
	}
	return err
}

// MigrateGate vets a proposed migration before it commits. It runs on the
// writer loop with the departing placement's reservations (old) and the
// proposed placement's (next), after the trial re-admission already holds
// next on the residual. Returning a non-nil error rolls the whole operation
// back exactly — the tenant keeps its original placement — and Migrate
// returns the error wrapped in ErrVetoed. A nil gate accepts every feasible
// re-placement.
type MigrateGate func(old, next map[[2]int]Reservation) error

// Migrate re-places one admitted tenant atomically: on the writer loop it
// releases the ticket's reservations, re-federates the original requirement
// with alg over the freed residual, consults gate, and either commits the new
// placement under the same ticket ID (recorded as an EventMigrate carrying
// tag, so Replay can rebuild alg) or restores the original reservations
// byte-identically. The ticket's class, demand and TTL lease carry over; the
// returned Ticket is the new handle (the old pointer's Flow/Metric describe
// the abandoned placement).
//
// Failure modes: ErrNoTicket if id is not active; an *AdmissionError if the
// re-federation does not fit (original placement restored); ErrVetoed if the
// gate declined (original placement restored). None of these are logged —
// the residual is unchanged, so the serialization has nothing to record.
func (a *Allocator) Migrate(id uint64, alg Algorithm, gate MigrateGate, tag string) (*Ticket, error) {
	var (
		t   *Ticket
		err error
	)
	if e := a.exec(func() { t, err = a.migrateCore(id, alg, gate, tag) }); e != nil {
		return nil, e
	}
	return t, err
}

// Reservations returns a copy of every active tenant's per-link bandwidth
// holds, keyed by ticket ID: the from-scratch recount an external link-load
// ledger must agree with (the reopt property tests pin exactly that).
func (a *Allocator) Reservations() map[uint64]map[[2]int]Reservation {
	var out map[uint64]map[[2]int]Reservation
	_ = a.exec(func() {
		out = make(map[uint64]map[[2]int]Reservation, len(a.tickets))
		for id, t := range a.tickets {
			out[id] = t.adm.Reservations()
		}
	})
	return out
}

// Tenants returns the currently admitted tenants sorted by ticket ID.
func (a *Allocator) Tenants() []TenantInfo {
	var out []TenantInfo
	_ = a.exec(func() { out = a.tenantsLocked() })
	return out
}

// ClassCounters returns the per-class fairness ledger, indexed by class.
func (a *Allocator) ClassCounters() []ClassCounters {
	var out []ClassCounters
	_ = a.exec(func() { out = a.countersLocked() })
	return out
}

// Log returns a copy of the recorded serialization: the exact order the
// writer loop processed admissions, rejections and departures in. Feed it to
// Replay for the sequential-equivalence oracle.
func (a *Allocator) Log() []Event {
	var out []Event
	_ = a.exec(func() {
		out = make([]Event, len(a.log))
		copy(out, a.log)
	})
	return out
}

// Residual returns a snapshot clone of the residual overlay.
func (a *Allocator) Residual() *overlay.Overlay {
	var out *overlay.Overlay
	_ = a.exec(func() { out = a.mgr.Residual().Clone() })
	return out
}

// Utilization returns the reserved share of the pristine overlay's aggregate
// bandwidth, in percent.
func (a *Allocator) Utilization() int64 {
	var out int64
	_ = a.exec(func() { out = a.mgr.utilizationPct() })
	return out
}

// InstanceLoad returns how many active admissions instance nid serves.
func (a *Allocator) InstanceLoad(nid int) int {
	var out int
	_ = a.exec(func() { out = a.mgr.InstanceLoad(nid) })
	return out
}

// Place chooses one instance per service slot of an abstract graph, from the
// source instance src: a federation algorithm minus its graph build.
type Place func(ag *abstract.Graph, src int) (*flow.Graph, qos.Metric, error)

// Placement binds place to this allocator's residual routing table. The
// returned Algorithm, handed the allocator's live residual, builds its
// abstract graph over the maintained all-pairs table (abstract.FromAllPairs)
// after recomputing only the rows the reservations and releases since its
// last call could have changed; handed any other overlay — the per-admit
// clone an instance-capacity bound makes, another allocator's residual
// under Replay — it builds from scratch with abstract.Build. Either way the
// abstract graph is byte-identical to abstract.Build's on the same overlay.
//
// The Algorithm reads writer-owned state: pass it to this allocator's Admit
// or Migrate (or to Replay, which hands it another overlay), never call it
// directly.
func (a *Allocator) Placement(place Place) Algorithm {
	return func(ov *overlay.Overlay, req *require.Requirement, src int) (*flow.Graph, qos.Metric, error) {
		var (
			ag  *abstract.Graph
			err error
		)
		if ov == a.mgr.residual {
			ap, recomputed := a.mgr.allPairs()
			a.rowsRecomputed.Add(int64(recomputed))
			a.rowsKept.Add(int64(ov.NumInstances() - recomputed))
			st := a.mgr.table.Stats()
			a.dirtiedWorse.Add(st.DirtiedWorsening - a.tableSeen.DirtiedWorsening)
			a.dirtiedBetter.Add(st.DirtiedImprovement - a.tableSeen.DirtiedImprovement)
			a.refreezeNodes.Add(st.RefreezesNodes - a.tableSeen.RefreezesNodes)
			a.refreezeArc.Add(st.RefreezesArc - a.tableSeen.RefreezesArc)
			a.tableSeen = st
			ag, err = abstract.FromAllPairs(ov, req, ap)
		} else {
			ag, err = abstract.Build(ov, req)
		}
		if err != nil {
			return nil, qos.Unreachable, err
		}
		return place(ag, src)
	}
}

// --- writer-side core ------------------------------------------------------

// admitCore performs one admission attempt on the writer loop: quota check,
// federation over the residual, optional preemption, ledger + log updates.
func (a *Allocator) admitCore(r AdmitRequest) (*Ticket, []uint64, error) {
	if r.Class < 0 || r.Class >= a.opts.Classes {
		return nil, nil, fmt.Errorf("provision: class %d out of range [0, %d)", r.Class, a.opts.Classes)
	}
	if r.TTL < 0 {
		return nil, nil, fmt.Errorf("provision: negative TTL %v", r.TTL)
	}
	if r.Alg == nil {
		return nil, nil, fmt.Errorf("provision: admit without an algorithm")
	}
	if q := a.quota(r.Class); q > 0 && a.classes[r.Class].active >= q {
		return nil, nil, a.rejectCore(r, &AdmissionError{Reason: ReasonQuota,
			Detail: fmt.Sprintf("class %d at quota %d", r.Class, q)})
	}
	adm, err := a.mgr.Admit(r.Req, r.Src, r.Demand, r.Alg)
	var aerr *AdmissionError
	if err != nil && !errors.As(err, &aerr) {
		return nil, nil, err // malformed request or invalid algorithm output
	}
	var preempted []uint64
	if err != nil {
		if !a.opts.Preempt || r.Class == 0 {
			return nil, nil, a.rejectCore(r, aerr)
		}
		adm, preempted, aerr = a.preemptAndRetry(r, aerr)
		if aerr != nil {
			return nil, nil, a.rejectCore(r, aerr)
		}
	}
	a.nextID++
	t := &Ticket{
		ID: a.nextID, Tag: r.Tag, Class: r.Class, Src: r.Src,
		Demand: r.Demand, Flow: adm.Flow, Metric: adm.Metric, adm: adm,
	}
	if r.TTL > 0 && a.async {
		t.Expires = time.Now().Add(r.TTL)
		id := t.ID
		a.timers[id] = time.AfterFunc(r.TTL, func() { a.expire(id) })
	}
	a.tickets[t.ID] = t
	a.classes[r.Class].active++
	a.classes[r.Class].admitted++
	a.record(Event{Kind: EventAdmit, Ticket: t.ID, Tag: r.Tag, Class: r.Class,
		Src: r.Src, Demand: r.Demand, Req: r.Req, Preempted: preempted})
	a.counter("alloc_admitted_total", r.Class).Inc()
	if obs := a.observer(); obs != nil {
		obs.TenantAdmitted(t)
	}
	a.observe()
	return t, preempted, nil
}

// observer resolves the configured Observer; Replay runs without one so the
// oracle re-execution has no side effects outside its own allocator.
func (a *Allocator) observer() Observer {
	if !a.async {
		return nil
	}
	return a.opts.Observer
}

// preemptAndRetry evicts strictly-lower-class tenants one at a time —
// lowest class first, youngest first within a class — retrying the admission
// after each eviction. On success the victims are gone for good (their
// ledger shows preempted); on failure every victim is restored in reverse
// order, byte-identically, and the final AdmissionError is returned. orig is
// the rejection of the pre-preemption attempt: it is the answer when there is
// nothing to evict, and it must NOT be re-derived by re-running the
// algorithm — a non-deterministic algorithm could succeed on such a second
// try, stranding the evicted victims' tickets over released reservations.
func (a *Allocator) preemptAndRetry(r AdmitRequest, orig *AdmissionError) (*Admission, []uint64, *AdmissionError) {
	cands := make([]*Ticket, 0, len(a.tickets))
	for _, t := range a.tickets {
		if t.Class < r.Class {
			cands = append(cands, t)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Class != cands[j].Class {
			return cands[i].Class < cands[j].Class
		}
		return cands[i].ID > cands[j].ID
	})
	var evicted []*Ticket
	rollback := func() {
		for i := len(evicted) - 1; i >= 0; i-- {
			if err := a.mgr.restore(evicted[i].adm); err != nil {
				// Cannot happen: restores exactly undo the releases above,
				// and nothing else touched the residual in between.
				panic(fmt.Sprintf("provision: preemption rollback: %v", err))
			}
		}
	}
	last := orig
	for _, v := range cands {
		if err := a.mgr.Release(v.adm); err != nil {
			rollback()
			return nil, nil, &AdmissionError{Reason: ReasonBandwidth,
				Detail: fmt.Sprintf("preemption: releasing ticket %d: %v", v.ID, err)}
		}
		evicted = append(evicted, v)
		adm, err := a.mgr.Admit(r.Req, r.Src, r.Demand, r.Alg)
		if err == nil {
			ids := make([]uint64, 0, len(evicted))
			for _, e := range evicted {
				ids = append(ids, e.ID)
				a.dropTicket(e)
				a.classes[e.Class].preempted++
				a.classes[e.Class].active--
				a.counter("alloc_preempted_total", e.Class).Inc()
				if obs := a.observer(); obs != nil {
					obs.TenantDeparted(e, EventPreempt)
				}
			}
			return adm, ids, nil
		}
		var aerr *AdmissionError
		if !errors.As(err, &aerr) {
			rollback()
			return nil, nil, &AdmissionError{Reason: ReasonNoFlow, Detail: err.Error()}
		}
		last = aerr
	}
	// Even with every lower-class tenant gone the request does not fit (or
	// there was nothing to evict): undo the evictions and report the last
	// rejection.
	rollback()
	return nil, nil, last
}

// rejectCore stamps, records and counts one rejection.
func (a *Allocator) rejectCore(r AdmitRequest, aerr *AdmissionError) error {
	aerr.Class = r.Class
	a.classes[r.Class].rejected++
	a.record(Event{Kind: EventReject, Tag: r.Tag, Class: r.Class, Src: r.Src,
		Demand: r.Demand, Req: r.Req, Reason: aerr.Reason})
	if reg := a.opts.Metrics; reg != nil {
		reg.Counter("alloc_rejected_total",
			metrics.WithLabels(metrics.Label{Name: "class", Value: strconv.Itoa(r.Class)},
				metrics.Label{Name: "reason", Value: string(aerr.Reason)})).Inc()
	}
	return aerr
}

// releaseCore departs ticket id (kind distinguishes explicit releases from
// TTL expiries).
func (a *Allocator) releaseCore(id uint64, kind EventKind) error {
	t, ok := a.tickets[id]
	if !ok {
		return fmt.Errorf("%w: ticket %d", ErrNoTicket, id)
	}
	if err := a.mgr.Release(t.adm); err != nil {
		return err
	}
	a.dropTicket(t)
	a.classes[t.Class].active--
	if kind == EventExpire {
		a.classes[t.Class].expired++
		a.counter("alloc_expired_total", t.Class).Inc()
	} else {
		a.classes[t.Class].released++
		a.counter("alloc_released_total", t.Class).Inc()
	}
	a.record(Event{Kind: kind, Ticket: id, Tag: t.Tag, Class: t.Class,
		Src: t.Src, Demand: t.Demand})
	if obs := a.observer(); obs != nil {
		obs.TenantDeparted(t, kind)
	}
	a.observe()
	return nil
}

// migrateCore re-places one admitted tenant on the writer loop. The residual
// transitions atomically from "old placement held" to either "new placement
// held" (commit) or back to "old placement held" (rollback) — no intermediate
// state is ever observable, because nothing else runs on the loop meanwhile.
func (a *Allocator) migrateCore(id uint64, alg Algorithm, gate MigrateGate, tag string) (*Ticket, error) {
	if alg == nil {
		return nil, fmt.Errorf("provision: migrate without an algorithm")
	}
	t, ok := a.tickets[id]
	if !ok {
		return nil, fmt.Errorf("%w: ticket %d", ErrNoTicket, id)
	}
	old := t.adm
	if err := a.mgr.Release(old); err != nil {
		return nil, err
	}
	rollback := func() {
		if err := a.mgr.restore(old); err != nil {
			// Cannot happen: restore exactly undoes the release above and
			// nothing else touched the residual in between.
			panic(fmt.Sprintf("provision: migration rollback: %v", err))
		}
	}
	adm, err := a.mgr.Admit(old.Req, t.Src, t.Demand, alg)
	if err != nil {
		rollback()
		return nil, err
	}
	if gate != nil {
		if gerr := gate(old.Reservations(), adm.Reservations()); gerr != nil {
			if rerr := a.mgr.Release(adm); rerr != nil {
				panic(fmt.Sprintf("provision: migration veto unwind: %v", rerr))
			}
			rollback()
			return nil, fmt.Errorf("%w: %v", ErrVetoed, gerr)
		}
	}
	fresh := &Ticket{
		ID: t.ID, Tag: t.Tag, Class: t.Class, Src: t.Src, Demand: t.Demand,
		Flow: adm.Flow, Metric: adm.Metric, Expires: t.Expires, adm: adm,
	}
	// The TTL timer (if any) captured the ticket ID, not the *Ticket, so the
	// lease carries over to the fresh handle untouched.
	a.tickets[id] = fresh
	a.classes[t.Class].migrated++
	a.record(Event{Kind: EventMigrate, Ticket: id, Tag: tag, Class: t.Class,
		Src: t.Src, Demand: t.Demand, Req: old.Req})
	a.counter("alloc_migrated_total", t.Class).Inc()
	if obs := a.observer(); obs != nil {
		obs.TenantMigrated(t, fresh)
	}
	a.observe()
	return fresh, nil
}

// expire is the TTL timer callback: it funnels the departure through the
// writer loop like any other operation. A ticket already released (or an
// allocator already closed) makes this a no-op.
func (a *Allocator) expire(id uint64) {
	_ = a.exec(func() { _ = a.releaseCore(id, EventExpire) })
}

// dropTicket removes an active ticket and stops its TTL timer.
func (a *Allocator) dropTicket(t *Ticket) {
	delete(a.tickets, t.ID)
	if tm, ok := a.timers[t.ID]; ok {
		tm.Stop()
		delete(a.timers, t.ID)
	}
}

// record appends one event to the serialization log.
func (a *Allocator) record(ev Event) {
	a.seq++
	ev.Seq = a.seq
	a.log = append(a.log, ev)
}

// quota returns the admission quota of a class (0 = unlimited).
func (a *Allocator) quota(class int) int {
	if class < len(a.opts.Quotas) && a.opts.Quotas[class] > 0 {
		return a.opts.Quotas[class]
	}
	return 0
}

// counter resolves one per-class allocator counter (nil-safe).
func (a *Allocator) counter(name string, class int) *metrics.Counter {
	return a.opts.Metrics.Counter(name,
		metrics.WithLabels(metrics.Label{Name: "class", Value: strconv.Itoa(class)}))
}

// observe refreshes the active-tenant gauge and utilization histogram.
func (a *Allocator) observe() {
	a.activeGauge.Set(int64(len(a.tickets)))
	a.utilization.Observe(a.mgr.utilizationPct())
}

func (a *Allocator) tenantsLocked() []TenantInfo {
	out := make([]TenantInfo, 0, len(a.tickets))
	for _, t := range a.tickets {
		info := TenantInfo{Ticket: t.ID, Tag: t.Tag, Class: t.Class,
			Src: t.Src, Demand: t.Demand}
		if !t.Expires.IsZero() {
			info.ExpiresMS = t.Expires.UnixMilli()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ticket < out[j].Ticket })
	return out
}

func (a *Allocator) countersLocked() []ClassCounters {
	out := make([]ClassCounters, len(a.classes))
	for c, s := range a.classes {
		out[c] = ClassCounters{Class: c, Admitted: s.admitted, Rejected: s.rejected,
			Preempted: s.preempted, Released: s.released, Expired: s.expired,
			Migrated: s.migrated, Active: s.active}
	}
	return out
}

// --- sequential replay oracle ----------------------------------------------

// Replay re-executes a recorded admission log, in order, against a fresh
// sequential allocator over the pristine overlay: the equivalence oracle for
// concurrent admission. algFor rebuilds the federation algorithm of each
// admit/reject event (typically keyed on Event.Tag); it must return the same
// deterministic algorithm the live run used. Replay fails on the first
// divergence — an admission that rejects (or vice versa), a different ticket
// ID, a different preemption set, or a different rejection reason. On
// success the returned allocator's residual overlay, tenants and class
// counters equal the live allocator's final state.
func Replay(ov *overlay.Overlay, opts AllocatorOptions, log []Event, algFor func(Event) Algorithm) (*Allocator, error) {
	opts.Metrics = nil // the replay is an oracle, not a production run
	a := newAllocator(ov, opts, false)
	for i, ev := range log {
		switch ev.Kind {
		case EventAdmit:
			t, preempted, err := a.admitCore(a.admitRequest(ev, algFor))
			if err != nil {
				return nil, fmt.Errorf("provision: replay %d: admit of %q rejected: %w", i, ev.Tag, err)
			}
			if t.ID != ev.Ticket {
				return nil, fmt.Errorf("provision: replay %d: ticket %d, want %d", i, t.ID, ev.Ticket)
			}
			if !equalIDs(preempted, ev.Preempted) {
				return nil, fmt.Errorf("provision: replay %d: preempted %v, want %v", i, preempted, ev.Preempted)
			}
		case EventReject:
			_, _, err := a.admitCore(a.admitRequest(ev, algFor))
			if err == nil {
				return nil, fmt.Errorf("provision: replay %d: %q admitted, want rejection (%s)", i, ev.Tag, ev.Reason)
			}
			var aerr *AdmissionError
			if !errors.As(err, &aerr) {
				return nil, fmt.Errorf("provision: replay %d: %v, want rejection (%s)", i, err, ev.Reason)
			}
			if aerr.Reason != ev.Reason {
				return nil, fmt.Errorf("provision: replay %d: rejected for %s, want %s", i, aerr.Reason, ev.Reason)
			}
		case EventRelease, EventExpire:
			if err := a.releaseCore(ev.Ticket, ev.Kind); err != nil {
				return nil, fmt.Errorf("provision: replay %d: release ticket %d: %w", i, ev.Ticket, err)
			}
		case EventMigrate:
			// A logged migration committed, so the replay must commit too; the
			// gate is gone (its decision is baked into the log's existence).
			if _, err := a.migrateCore(ev.Ticket, algFor(ev), nil, ev.Tag); err != nil {
				return nil, fmt.Errorf("provision: replay %d: migrate ticket %d: %w", i, ev.Ticket, err)
			}
		default:
			return nil, fmt.Errorf("provision: replay %d: unknown event kind %q", i, ev.Kind)
		}
	}
	return a, nil
}

// admitRequest rebuilds the AdmitRequest behind a logged admission attempt.
// TTLs are deliberately dropped: expiries replay as their logged EventExpire
// entries, at the exact serialization point the live run released them.
func (a *Allocator) admitRequest(ev Event, algFor func(Event) Algorithm) AdmitRequest {
	return AdmitRequest{Req: ev.Req, Src: ev.Src, Demand: ev.Demand,
		Class: ev.Class, Tag: ev.Tag, Alg: algFor(ev)}
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
