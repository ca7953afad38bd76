package reopt

import (
	"errors"
	"fmt"

	"sflow/internal/metrics"
	"sflow/internal/overlay"
	"sflow/internal/provision"
	"sflow/internal/qos"
	"sflow/internal/reduce"
	"sflow/internal/require"
	"sflow/internal/session"

	"sflow/internal/flow"
)

// PlannerConfig tunes a re-federation planner. The zero value is usable.
type PlannerConfig struct {
	// Detector configures the hysteresis congestion detector.
	Detector DetectorConfig
	// MaxMovesPerLink caps how many migrations one Step may commit off one
	// hot link. <=0 defaults to 8.
	MaxMovesPerLink int
	// Routing configures the mirror session's table, passed to session.New
	// unchanged. Lazy makes a planner over a 10k–100k-node overlay cost
	// nothing until a hotspot fires: link mutations between candidates
	// evict rows instead of recomputing them, and candidates read the same
	// answers either way. Metrics also receives the planner's counters
	// (reopt_migrations_total, reopt_vetoes_total, reopt_failures_total,
	// reopt_steps_total).
	Routing qos.Options
}

// withDefaults resolves zero fields to their documented defaults.
func (c PlannerConfig) withDefaults() PlannerConfig {
	if c.MaxMovesPerLink <= 0 {
		c.MaxMovesPerLink = 8
	}
	return c
}

// StepReport is the outcome of one planner step.
type StepReport struct {
	// Hot is the detector's hot set at the start of the step (utilization
	// descending).
	Hot []LinkLoad
	// Migrations counts committed re-placements; Vetoes gate rejections
	// (rolled back); Failures infeasible re-federations (rolled back).
	Migrations, Vetoes, Failures int
	// PreMax and PostMax are the maximum link utilization before and after
	// the step. The gate guarantees PostMax <= PreMax (up to float noise).
	PreMax, PostMax float64
}

// Planner is the re-federation planner: it watches the ledger through a
// hysteresis detector and, per hot link, live-migrates the cheapest admitted
// tenants crossing it onto residual parallel capacity.
//
// Re-placement candidates are solved against a private session.Session that
// mirrors "pristine capacity minus everyone else's load, hot link masked
// out": between candidates only the links whose load actually changed are
// mutated, so the qos.AllPairs table recomputes exactly the dirtied rows instead of
// rebuilding the table. The allocator's Manager re-validates every proposed
// flow against the true residual before it commits, so a stale mirror can
// only cost a failed (exactly rolled back) migration, never a broken
// reservation.
//
// A Planner is not safe for concurrent use: Step must be called from one
// goroutine at a time, and the allocator's writer loop must not be the
// caller (Step calls Allocator.Migrate, which would deadlock from an
// Observer). All session access happens inside the algorithm and gate
// closures, which the allocator serializes on its writer loop while Step
// blocks — one goroutine at a time, never two.
type Planner struct {
	alloc  *provision.Allocator
	ledger *Ledger
	det    *Detector
	cfg    PlannerConfig

	// sess mirrors the residual view used for candidate re-federation; the
	// first candidate re-placement builds it from boot (see mirror).
	// applied is the per-link load currently subtracted from it. Both are
	// touched only inside Migrate closures (see above).
	boot    *overlay.Overlay
	sess    *session.Session
	applied map[Link]int64

	steps, migrations, vetoes, failures *metrics.Counter
}

// NewPlanner builds a planner over the allocator's boot overlay. ledger must
// be installed as the allocator's Observer (and must have seen every
// admission) for candidate selection and the no-regression gate to be exact.
// The planner routes nothing here: its mirror session is built from boot at
// the first Step that re-places a tenant, so boot must stay unchanged until
// then (the ledger reads it for the planner's lifetime anyway).
func NewPlanner(alloc *provision.Allocator, ledger *Ledger, boot *overlay.Overlay, cfg PlannerConfig) *Planner {
	cfg = cfg.withDefaults()
	reg := cfg.Routing.Metrics
	return &Planner{
		alloc:      alloc,
		ledger:     ledger,
		det:        NewDetector(cfg.Detector),
		cfg:        cfg,
		boot:       boot,
		applied:    make(map[Link]int64),
		steps:      reg.Counter("reopt_steps_total"),
		migrations: reg.Counter("reopt_migrations_total"),
		vetoes:     reg.Counter("reopt_vetoes_total"),
		failures:   reg.Counter("reopt_failures_total"),
	}
}

// mirror returns the mirror session, building it over the boot overlay on
// first use. Called only inside Migrate closures.
func (p *Planner) mirror() *session.Session {
	if p.sess == nil {
		p.sess = session.New(p.boot, p.cfg.Routing)
	}
	return p.sess
}

// Detector exposes the planner's detector (for status RPCs).
func (p *Planner) Detector() *Detector { return p.det }

// maxUtil is the global objective: the maximum link utilization.
func maxUtil(links []LinkLoad) float64 {
	var max float64
	for _, ll := range links {
		if u := ll.Utilization(); u > max {
			max = u
		}
	}
	return max
}

// Step runs one observe→detect→migrate pass: feed the ledger to the
// detector, then for each hot link (hottest first) migrate the cheapest
// tenants crossing it — each attempt gated by the no-regression check —
// until the link drops below the hot threshold, candidates run out, or
// MaxMovesPerLink is reached. Deterministic for a deterministic ledger
// state.
func (p *Planner) Step() StepReport {
	p.steps.Inc()
	links := p.ledger.Links()
	rep := StepReport{Hot: p.det.Observe(links), PreMax: maxUtil(links)}
	for _, h := range rep.Hot {
		link := Link{h.From, h.To}
		tried := make(map[uint64]bool)
		moves := 0
		for moves < p.cfg.MaxMovesPerLink &&
			p.ledger.Utilization(link) >= p.det.cfg.HotThreshold {
			var cand *TenantShare
			for _, c := range p.ledger.TenantsOn(link) {
				if !tried[c.Ticket] {
					cand = &c
					break
				}
			}
			if cand == nil {
				break // every tenant on the link was tried and stuck
			}
			tried[cand.Ticket] = true
			tag := fmt.Sprintf("reopt:%d-%d", link[0], link[1])
			_, err := p.alloc.Migrate(cand.Ticket,
				p.algorithm(link, cand.Ticket), p.gate(link), tag)
			switch {
			case err == nil:
				rep.Migrations++
				moves++
				p.migrations.Inc()
			case errors.Is(err, provision.ErrVetoed):
				rep.Vetoes++
				p.vetoes.Inc()
			default:
				rep.Failures++
				p.failures.Inc()
			}
		}
	}
	rep.PostMax = maxUtil(p.ledger.Links())
	return rep
}

// algorithm builds the provision.Algorithm for re-placing candidate cand off
// hot. It runs on the allocator's writer loop, after the candidate's old
// reservations were released from the residual but before the ledger heard
// about it — so "ledger loads minus the candidate's own" is exactly the load
// the residual carries at that instant. The closure syncs the private
// session to that view, masks the hot link out, and solves with the
// reduction solver (widest-then-shortest), so the chosen placement avoids
// the hot link by construction.
func (p *Planner) algorithm(hot Link, cand uint64) provision.Algorithm {
	return func(_ *overlay.Overlay, req *require.Requirement, src int) (*flow.Graph, qos.Metric, error) {
		target := p.ledger.Loads()
		for link, amt := range p.ledger.TenantLoads(cand) {
			if target[link] -= amt; target[link] == 0 {
				delete(target, link)
			}
		}
		sess := p.mirror()
		if err := p.syncSession(target); err != nil {
			return nil, qos.Metric{}, err
		}
		// Mask the hot link for this one solve.
		capBW, lat, ok := p.ledger.Capacity(hot)
		hotRes := capBW - target[hot]
		masked := ok && hotRes > 0
		if masked {
			if err := sess.RemoveLink(hot[0], hot[1]); err != nil {
				return nil, qos.Metric{}, err
			}
		}
		unmask := func() error {
			if !masked {
				return nil
			}
			return sess.AddLink(hot[0], hot[1], hotRes, lat)
		}
		ag, err := sess.Abstract(req)
		if err != nil {
			if uerr := unmask(); uerr != nil {
				return nil, qos.Metric{}, uerr
			}
			return nil, qos.Metric{}, err
		}
		r, err := reduce.Solve(ag, src, nil)
		if uerr := unmask(); uerr != nil {
			return nil, qos.Metric{}, uerr
		}
		if err != nil {
			return nil, qos.Metric{}, err
		}
		return r.Flow, r.Metric, nil
	}
}

// syncSession mutates the private session from its currently-applied load
// view to target: for each link whose load changed, the session's residual
// bandwidth (pristine capacity minus load) is grown, reduced, removed or
// re-added. Only changed links emit events, so the incremental table
// recomputes only their dirty rows.
func (p *Planner) syncSession(target map[Link]int64) error {
	for link, old := range p.applied {
		if _, ok := target[link]; !ok && old != 0 {
			if err := p.syncLink(link, old, 0); err != nil {
				return err
			}
		}
	}
	for link, want := range target {
		if old := p.applied[link]; old != want {
			if err := p.syncLink(link, old, want); err != nil {
				return err
			}
		}
	}
	p.applied = target
	return nil
}

// syncLink moves one link's subtracted load from old to want.
func (p *Planner) syncLink(link Link, old, want int64) error {
	capBW, lat, ok := p.ledger.Capacity(link)
	if !ok {
		return fmt.Errorf("reopt: load on unknown link %d->%d", link[0], link[1])
	}
	oldRes, newRes := capBW-old, capBW-want
	switch {
	case oldRes > 0 && newRes > 0:
		if newRes > oldRes {
			return p.sess.GrowLinkBandwidth(link[0], link[1], newRes-oldRes)
		}
		return p.sess.ReduceLinkBandwidth(link[0], link[1], oldRes-newRes)
	case oldRes > 0: // saturated away: reduce to zero removes the link
		return p.sess.ReduceLinkBandwidth(link[0], link[1], oldRes)
	case newRes > 0: // was saturated, load shrank: re-create the link
		return p.sess.AddLink(link[0], link[1], newRes, lat)
	default:
		return nil // saturated before and after
	}
}

// gate builds the no-regression MigrateGate for a migration off hot. It runs
// on the writer loop with the candidate's departing reservations (old) and
// the trial placement's (next), and simulates the ledger after the swap:
// commit only if no link ends above the pre-migration maximum utilization,
// no previously-cold link crosses the hot threshold, and the hot link itself
// strictly sheds load.
func (p *Planner) gate(hot Link) provision.MigrateGate {
	const eps = 1e-9
	return func(old, next map[Link]provision.Reservation) error {
		pre := p.ledger.Loads() // still includes the candidate's old holds
		post := make(map[Link]int64, len(pre)+len(next))
		for link, load := range pre {
			post[link] = load
		}
		for link, r := range old {
			post[link] -= r.Amount
		}
		for link, r := range next {
			post[link] += r.Amount
		}
		preMax := 0.0
		for link, load := range pre {
			if u := p.utilOf(link, load); u > preMax {
				preMax = u
			}
		}
		hotTh := p.det.cfg.HotThreshold
		for link, load := range post {
			u := p.utilOf(link, load)
			if u > preMax+eps {
				return fmt.Errorf("link %d->%d would reach %.1f%% > pre-migration max %.1f%%",
					link[0], link[1], 100*u, 100*preMax)
			}
			if preU := p.utilOf(link, pre[link]); u >= hotTh && preU < hotTh {
				return fmt.Errorf("link %d->%d would become a new hotspot (%.1f%%)",
					link[0], link[1], 100*u)
			}
		}
		if post[hot] >= pre[hot] {
			return fmt.Errorf("hot link %d->%d not relieved (%d -> %d)",
				hot[0], hot[1], pre[hot], post[hot])
		}
		return nil
	}
}

// utilOf computes load/capacity for one link (0 for unknown links).
func (p *Planner) utilOf(link Link, load int64) float64 {
	capBW, _, ok := p.ledger.Capacity(link)
	if !ok || capBW <= 0 {
		return 0
	}
	return float64(load) / float64(capBW)
}
