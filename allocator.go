package sflow

import (
	"time"

	"sflow/internal/core"
	"sflow/internal/provision"
	"sflow/internal/qos"
)

// Multi-tenant admission surface: many concurrent tenants competing for the
// finite link bandwidth and instance capacity of one shared overlay, with
// priority classes, quotas, optional preemption and TTL leases. See the
// README "Multi-tenant admission" section for a walkthrough and DESIGN.md
// for the architecture.

// Allocator is a concurrent, multi-tenant admission controller over one
// shared overlay. All methods are safe for concurrent use: operations
// serialize through a single writer loop, and the recorded Log replays
// sequentially to the exact same state (see ReplayAdmissions).
type Allocator struct {
	a *provision.Allocator
}

// AllocatorOptions tunes NewAllocator. The zero value is a single-class
// allocator with no quotas, no preemption and no instance capacity bound.
type AllocatorOptions struct {
	// Classes is the number of priority classes; requests carry a class in
	// [0, Classes), larger meaning more important. 0 defaults to 1.
	Classes int
	// Quotas caps concurrently admitted tenants per class (indexed by
	// class; missing or zero entries mean unlimited).
	Quotas []int
	// Preempt lets a request that would otherwise be rejected for capacity
	// evict strictly-lower-class tenants (lowest class first, youngest
	// first), restoring them exactly if the request still does not fit.
	Preempt bool
	// InstanceCapacity bounds concurrent admissions per service instance
	// (0 = unlimited).
	InstanceCapacity int
	// Metrics, when non-nil, receives per-class admission counters, an
	// active-tenant gauge and a residual-utilization histogram.
	Metrics *Metrics
}

// AdmitOptions describes one admission request.
type AdmitOptions struct {
	// Algorithm is the registry name federating the request over the
	// residual overlay — any Algorithms() name, or "sflow" for the
	// distributed protocol. Empty defaults to "heuristic".
	Algorithm string
	// Demand is the bandwidth (Kbit/s) reserved along every stream of the
	// admitted flow graph. Must be positive.
	Demand int64
	// Class is the request's priority class in [0, AllocatorOptions.Classes).
	Class int
	// TTL, when positive, turns the admission into a lease that
	// auto-releases after it elapses.
	TTL time.Duration
	// Tag is an opaque label recorded in the admission log. Empty defaults
	// to the algorithm name, which keeps the log self-describing for
	// ReplayAdmissions.
	Tag string
	// Solve tunes the federation algorithm run (Rng, ClusterK, Workers,
	// Metrics), exactly as for Solve.
	Solve SolveOptions
}

// Aliases into the provisioning layer, so the machine-readable admission
// vocabulary is usable without importing internal packages.
type (
	// Ticket is one admitted tenant: the handle Release takes.
	Ticket = provision.Ticket
	// TenantInfo is a point-in-time snapshot of one admitted tenant.
	TenantInfo = provision.TenantInfo
	// ClassCounters is the fairness ledger of one priority class.
	ClassCounters = provision.ClassCounters
	// AdmissionEvent is one entry of an allocator's recorded serialization.
	AdmissionEvent = provision.Event
	// AdmissionError is the typed rejection: it unwraps to ErrRejected and
	// carries a machine-readable RejectReason.
	AdmissionError = provision.AdmissionError
	// RejectReason is the machine-readable cause of a rejection.
	RejectReason = provision.RejectReason
)

// The rejection reasons an AdmissionError carries.
const (
	// ReasonQuota: the request's class is at its admission quota.
	ReasonQuota = provision.ReasonQuota
	// ReasonCompute: a required instance is at its compute capacity.
	ReasonCompute = provision.ReasonCompute
	// ReasonNoFlow: no feasible flow graph exists on the residual overlay.
	ReasonNoFlow = provision.ReasonNoFlow
	// ReasonBandwidth: a flow graph exists but cannot sustain the demand.
	ReasonBandwidth = provision.ReasonBandwidth
)

// Errors of the admission surface.
var (
	// ErrAllocatorClosed is returned by Allocator methods after Close.
	ErrAllocatorClosed = provision.ErrClosed
	// ErrNoTicket is returned by Release for a ticket that is not active
	// (already released, expired, or preempted).
	ErrNoTicket = provision.ErrNoTicket
)

// NewAllocator starts a multi-tenant admission controller over a private
// residual copy of ov. Call Close when done.
func NewAllocator(ov *Overlay, opts AllocatorOptions) *Allocator {
	return &Allocator{a: provision.NewAllocator(ov, provision.AllocatorOptions{
		Classes:          opts.Classes,
		Quotas:           opts.Quotas,
		Preempt:          opts.Preempt,
		InstanceCapacity: opts.InstanceCapacity,
		Metrics:          opts.Metrics,
	})}
}

// Admit submits one admission request. On success the returned Ticket is the
// release handle; on rejection the error is an *AdmissionError
// (errors.Is(err, ErrRejected) holds) carrying the machine-readable reason.
func (al *Allocator) Admit(req *Requirement, src int, opts AdmitOptions) (*Ticket, error) {
	name := opts.Algorithm
	if name == "" {
		name = "heuristic"
	}
	tag := opts.Tag
	if tag == "" {
		tag = name
	}
	return al.a.Admit(provision.AdmitRequest{
		Req:    req,
		Src:    src,
		Demand: opts.Demand,
		Class:  opts.Class,
		TTL:    opts.TTL,
		Tag:    tag,
		Alg:    RegistryAlgorithm(name, opts.Solve),
	})
}

// Release returns ticket id's reserved capacity to the residual overlay.
func (al *Allocator) Release(id uint64) error { return al.a.Release(id) }

// Tenants returns the currently admitted tenants sorted by ticket ID.
func (al *Allocator) Tenants() []TenantInfo { return al.a.Tenants() }

// Classes returns the per-class fairness ledger, indexed by class.
func (al *Allocator) Classes() []ClassCounters { return al.a.ClassCounters() }

// Log returns a copy of the recorded serialization: the exact sequential
// order admissions, rejections and departures were decided in.
func (al *Allocator) Log() []AdmissionEvent { return al.a.Log() }

// Residual returns a snapshot clone of the residual overlay.
func (al *Allocator) Residual() *Overlay { return al.a.Residual() }

// Utilization returns the reserved share of the pristine overlay's aggregate
// bandwidth, in percent.
func (al *Allocator) Utilization() int64 { return al.a.Utilization() }

// Close stops the allocator's writer loop and TTL timers. Concurrent callers
// blocked on it get ErrAllocatorClosed. Safe to call more than once.
func (al *Allocator) Close() { al.a.Close() }

// ReplayAdmissions re-executes a recorded admission log sequentially over
// the pristine overlay: the equivalence oracle pinning concurrent admission
// to its recorded serialization. algFor rebuilds the (deterministic)
// federation algorithm of each admit/reject event; nil derives it from
// Event.Tag via RegistryAlgorithm — the default Admit leaves Tag as the
// algorithm name, so logs produced that way replay with algFor nil. It fails
// on the first divergence; on success the returned allocator's tenants,
// class counters and residual overlay equal the live allocator's final
// state.
func ReplayAdmissions(ov *Overlay, opts AllocatorOptions, log []AdmissionEvent, algFor func(AdmissionEvent) FederationAlgorithm) (*Allocator, error) {
	if algFor == nil {
		algFor = func(ev AdmissionEvent) FederationAlgorithm {
			return RegistryAlgorithm(ev.Tag, SolveOptions{})
		}
	}
	a, err := provision.Replay(ov, provision.AllocatorOptions{
		Classes:          opts.Classes,
		Quotas:           opts.Quotas,
		Preempt:          opts.Preempt,
		InstanceCapacity: opts.InstanceCapacity,
	}, log, func(ev provision.Event) provision.Algorithm { return algFor(ev) })
	if err != nil {
		return nil, err
	}
	return &Allocator{a: a}, nil
}

// RegistryAlgorithm adapts any registered algorithm name to the
// FederationAlgorithm shape provisioning and workload replay take: every
// Algorithms() name dispatches through Solve with the given options, and
// "sflow" runs the distributed protocol (core Options derived from
// opts.Metrics; close over Federate for full protocol tuning). An unknown
// name surfaces as ErrUnknownAlgorithm when the algorithm first runs.
func RegistryAlgorithm(name string, opts SolveOptions) FederationAlgorithm {
	if name == "sflow" {
		return func(ov *Overlay, req *Requirement, src int) (*FlowGraph, Metric, error) {
			res, err := core.Federate(ov, req, src, Options{Metrics: opts.Metrics})
			if err != nil {
				return nil, qos.Unreachable, err
			}
			return res.Flow, res.Metric, nil
		}
	}
	return func(ov *Overlay, req *Requirement, src int) (*FlowGraph, Metric, error) {
		sol, err := Solve(name, ov, req, src, opts)
		if err != nil {
			return nil, qos.Unreachable, err
		}
		return sol.Flow, sol.Metric, nil
	}
}
