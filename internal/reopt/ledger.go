// Package reopt closes the loop the paper calls agile federation: admitted
// service flows generate per-link traffic, traffic concentrates into hot
// links, and a planner live-migrates the cheapest tenants off each hot link
// onto residual parallel capacity — with a before/after global-objective
// check so a migration can never trade one hotspot for a new one.
//
// The package is three pieces wired in sequence:
//
//   - Ledger: per-link traffic accounting, folded from the allocator's
//     committed admissions via the provision.Observer hooks. After any
//     interleaving of admits, releases, preemptions, expiries and migrations
//     it deep-equals a from-scratch recount of the active reservations (the
//     property tests pin exactly that).
//   - Detector: utilization-threshold congestion detection with hysteresis —
//     a link must stay at or above the hot threshold for Sustain consecutive
//     observations to be declared hot, and must drop below a lower clear
//     threshold to be declared cold again, so a link oscillating around the
//     boundary does not flap the planner.
//   - Planner: per hot link, re-federates the cheapest tenants crossing it
//     with the hot link masked out of a private session.Session view
//     (the qos.AllPairs table recomputes only the rows the mask dirties), and
//     commits each migration only if the gate proves no link ends above the
//     pre-migration maximum utilization. A vetoed or infeasible trial rolls
//     back through the allocator's exact-restore path.
package reopt

import (
	"sort"
	"sync"

	"sflow/internal/metrics"
	"sflow/internal/overlay"
	"sflow/internal/provision"
)

// Link identifies one directed overlay link by its endpoints.
type Link = [2]int

// LinkLoad is the point-in-time traffic account of one overlay link.
type LinkLoad struct {
	From, To int
	// Capacity is the link's pristine bandwidth; Load the bandwidth admitted
	// tenants currently hold on it; Latency the link's propagation latency.
	Capacity, Load, Latency int64
	// Tenants counts the admitted tenants with a reservation on this link.
	Tenants int
}

// Utilization is Load/Capacity (0 for a link without capacity).
func (l LinkLoad) Utilization() float64 {
	if l.Capacity <= 0 {
		return 0
	}
	return float64(l.Load) / float64(l.Capacity)
}

// TenantShare is one tenant's bandwidth hold on one link.
type TenantShare struct {
	Ticket uint64
	Amount int64
}

// Ledger is the per-link traffic account over one boot overlay. Install it as
// the allocator's Observer and it folds every committed admission, departure
// and migration into per-link loads, in the exact serialization order of the
// writer loop. Capacities and latencies are read from the boot overlay
// itself, so the ledger holds state only for loaded links. All methods are
// safe for concurrent use.
type Ledger struct {
	boot *overlay.Overlay // read-only

	mu sync.Mutex
	// load and count hold each loaded link's booked bandwidth and the number
	// of tenants booking it; idle links are absent from both.
	load    map[Link]int64
	count   map[Link]int
	tenants map[uint64]map[Link]int64

	updates *metrics.Counter
	maxUtil *metrics.Gauge
}

// NewLedger builds a ledger over the boot overlay's links. reg may be nil.
// boot must not change while the ledger is in use: the ledger reads each
// link's capacity and latency from it. Links admitted flows cross must exist
// in boot — the allocator reserves against a residual clone of the same
// overlay, so they always do.
func NewLedger(boot *overlay.Overlay, reg *metrics.Registry) *Ledger {
	l := &Ledger{
		boot:    boot,
		load:    make(map[Link]int64),
		count:   make(map[Link]int),
		tenants: make(map[uint64]map[Link]int64),
		updates: reg.Counter("reopt_ledger_updates_total"),
	}
	if reg != nil {
		// Max utilization is a point-in-time reading; keep it out of the
		// stable snapshot like every other gauge.
		l.maxUtil = reg.Gauge("reopt_max_utilization_pct", metrics.Volatile())
	}
	return l
}

// TenantAdmitted implements provision.Observer.
func (l *Ledger) TenantAdmitted(t *provision.Ticket) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.apply(t.ID, t.Reservations())
}

// TenantDeparted implements provision.Observer.
func (l *Ledger) TenantDeparted(t *provision.Ticket, _ provision.EventKind) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.remove(t.ID)
}

// TenantMigrated implements provision.Observer.
func (l *Ledger) TenantMigrated(old, fresh *provision.Ticket) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.remove(old.ID)
	l.apply(fresh.ID, fresh.Reservations())
}

// apply books one tenant's reservations (caller holds mu).
func (l *Ledger) apply(id uint64, res map[Link]provision.Reservation) {
	amounts := make(map[Link]int64, len(res))
	for link, r := range res {
		amounts[link] = r.Amount
		l.load[link] += r.Amount
		l.count[link]++
	}
	l.tenants[id] = amounts
	l.updates.Inc()
	l.observeLocked()
}

// remove unbooks one tenant (caller holds mu). Unknown IDs are a no-op so a
// ledger installed after some admissions already committed stays consistent
// for the tenants it did see.
func (l *Ledger) remove(id uint64) {
	amounts, ok := l.tenants[id]
	if !ok {
		return
	}
	for link, amt := range amounts {
		l.load[link] -= amt
		if l.load[link] == 0 {
			delete(l.load, link)
		}
		if l.count[link]--; l.count[link] == 0 {
			delete(l.count, link)
		}
	}
	delete(l.tenants, id)
	l.updates.Inc()
	l.observeLocked()
}

// observeLocked refreshes the max-utilization gauge (caller holds mu).
func (l *Ledger) observeLocked() {
	if l.maxUtil == nil {
		return
	}
	var max float64
	for link, load := range l.load {
		if c, _, _ := l.Capacity(link); c > 0 {
			if u := float64(load) / float64(c); u > max {
				max = u
			}
		}
	}
	l.maxUtil.Set(int64(max * 100))
}

// Loads returns a copy of the current per-link loads (zero-load links are
// absent).
func (l *Ledger) Loads() map[Link]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[Link]int64, len(l.load))
	for link, load := range l.load {
		out[link] = load
	}
	return out
}

// Links returns every boot link's current account, sorted by (From, To).
func (l *Ledger) Links() []LinkLoad {
	links := l.boot.Links()
	out := make([]LinkLoad, len(links))
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, lk := range links {
		key := Link{lk.From, lk.To}
		out[i] = LinkLoad{From: lk.From, To: lk.To, Capacity: lk.Bandwidth,
			Latency: lk.Latency, Load: l.load[key], Tenants: l.count[key]}
	}
	return out
}

// Capacity returns a boot link's pristine bandwidth and latency; ok is false
// for a link the boot overlay never had.
func (l *Ledger) Capacity(link Link) (capacity, latency int64, ok bool) {
	m, ok := l.boot.LinkMetric(link[0], link[1])
	if !ok {
		return 0, 0, false
	}
	return m.Bandwidth, m.Latency, true
}

// Utilization returns one link's current Load/Capacity.
func (l *Ledger) Utilization(link Link) float64 {
	c, _, _ := l.Capacity(link)
	if c <= 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return float64(l.load[link]) / float64(c)
}

// TenantLoads returns a copy of one tenant's per-link holds (nil if the
// ledger does not know the ticket).
func (l *Ledger) TenantLoads(id uint64) map[Link]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	amounts, ok := l.tenants[id]
	if !ok {
		return nil
	}
	out := make(map[Link]int64, len(amounts))
	for link, amt := range amounts {
		out[link] = amt
	}
	return out
}

// TenantsOn lists the tenants holding bandwidth on link, cheapest first
// (ascending amount, ascending ticket ID within equal amounts) — the order
// the planner tries migration candidates in.
func (l *Ledger) TenantsOn(link Link) []TenantShare {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []TenantShare
	for id, amounts := range l.tenants {
		if amt, ok := amounts[link]; ok {
			out = append(out, TenantShare{Ticket: id, Amount: amt})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Amount != out[j].Amount {
			return out[i].Amount < out[j].Amount
		}
		return out[i].Ticket < out[j].Ticket
	})
	return out
}
