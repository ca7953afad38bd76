package reopt

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sflow/internal/abstract"
	"sflow/internal/flow"
	"sflow/internal/metrics"
	"sflow/internal/overlay"
	"sflow/internal/provision"
	"sflow/internal/qos"
	"sflow/internal/reduce"
	"sflow/internal/require"
)

// concentrateOverlay is the scenario topology: one fat two-hop path through
// hub A that the widest-first heuristic concentrates every admission onto,
// plus alts parallel thin paths the planner can migrate tenants to.
//
//	src 0 ──1000──▶ A=1 ──1000──▶ sink
//	src 0 ──130───▶ alt_i ──130──▶ sink   (i = 1..alts)
func concentrateOverlay(t testing.TB, alts int) (*overlay.Overlay, *require.Requirement, int) {
	t.Helper()
	ov := overlay.New()
	sink := alts + 2
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	check(ov.AddInstance(0, 0, -1))
	check(ov.AddInstance(1, 1, -1))
	for i := 0; i < alts; i++ {
		check(ov.AddInstance(2+i, 1, -1))
	}
	check(ov.AddInstance(sink, 2, -1))
	check(ov.AddLink(0, 1, 1000, 10))
	check(ov.AddLink(1, sink, 1000, 10))
	for i := 0; i < alts; i++ {
		check(ov.AddLink(0, 2+i, 130, 20))
		check(ov.AddLink(2+i, sink, 130, 20))
	}
	req, err := require.NewPath(0, 1, 2)
	check(err)
	return ov, req, sink
}

// heuristicAlg is the deterministic widest-then-shortest federation the tests
// admit with: it concentrates on the fat path until it thins out.
func heuristicAlg(ov *overlay.Overlay, req *require.Requirement, src int) (*flow.Graph, qos.Metric, error) {
	ag, err := abstract.Build(ov, req)
	if err != nil {
		return nil, qos.Unreachable, err
	}
	r, err := reduce.Solve(ag, src, nil)
	if err != nil {
		return nil, qos.Unreachable, err
	}
	return r.Flow, r.Metric, nil
}

// maskedAlg is heuristicAlg with one link removed from a cloned view — the
// stateless equivalent of the planner's session-masked solve, used by the
// replay oracle to rebuild "reopt:u-v"-tagged migrations.
func maskedAlg(u, v int) provision.Algorithm {
	return func(ov *overlay.Overlay, req *require.Requirement, src int) (*flow.Graph, qos.Metric, error) {
		view := ov.Clone()
		if view.HasLink(u, v) {
			if err := view.RemoveLink(u, v); err != nil {
				return nil, qos.Unreachable, err
			}
		}
		return heuristicAlg(view, req, src)
	}
}

// replayAlgFor rebuilds algorithms from event tags: "reopt:u-v" migrations
// re-solve with the hot link masked, everything else uses the plain
// heuristic.
func replayAlgFor(ev provision.Event) provision.Algorithm {
	if rest, ok := strings.CutPrefix(ev.Tag, "reopt:"); ok {
		var u, v int
		if _, err := fmt.Sscanf(rest, "%d-%d", &u, &v); err == nil {
			return maskedAlg(u, v)
		}
	}
	return heuristicAlg
}

// recount rebuilds per-link loads from scratch out of the allocator's active
// reservations: the ground truth the ledger must always agree with.
func recount(alloc *provision.Allocator) map[Link]int64 {
	out := make(map[Link]int64)
	for _, res := range alloc.Reservations() {
		for link, r := range res {
			out[link] += r.Amount
		}
	}
	return out
}

func sortedLinks(ov *overlay.Overlay) []overlay.Link {
	ls := ov.Links()
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].From != ls[j].From {
			return ls[i].From < ls[j].From
		}
		return ls[i].To < ls[j].To
	})
	return ls
}

// --- detector ---------------------------------------------------------------

func loadsOf(util ...float64) []LinkLoad {
	out := make([]LinkLoad, len(util))
	for i, u := range util {
		out[i] = LinkLoad{From: i, To: i + 100, Capacity: 1000, Load: int64(u * 1000)}
	}
	return out
}

// The detector must wait out the sustain guard, hold a hot link hot inside
// the hysteresis band, and release it only below the clear threshold.
func TestDetectorHysteresis(t *testing.T) {
	d := NewDetector(DetectorConfig{HotThreshold: 0.9, ClearThreshold: 0.7, Sustain: 2})

	if hot := d.Observe(loadsOf(0.95)); len(hot) != 0 {
		t.Fatalf("hot after one observation = %v, want none (sustain 2)", hot)
	}
	if hot := d.Observe(loadsOf(0.95)); len(hot) != 1 {
		t.Fatalf("hot after two observations = %v, want one", hot)
	}
	// Inside the band [0.7, 0.9): stays hot.
	if hot := d.Observe(loadsOf(0.8)); len(hot) != 1 {
		t.Fatalf("hot inside hysteresis band = %v, want still hot", hot)
	}
	// A dip into the band also resets the sustain streak: after clearing,
	// one spike must not re-arm instantly.
	if hot := d.Observe(loadsOf(0.6)); len(hot) != 0 {
		t.Fatalf("hot below clear threshold = %v, want none", hot)
	}
	if hot := d.Observe(loadsOf(0.95)); len(hot) != 0 {
		t.Fatalf("hot after single re-spike = %v, want none (streak was reset)", hot)
	}

	// A spike interrupted below sustain never fires.
	d2 := NewDetector(DetectorConfig{HotThreshold: 0.9, ClearThreshold: 0.7, Sustain: 3})
	d2.Observe(loadsOf(0.95))
	d2.Observe(loadsOf(0.95))
	d2.Observe(loadsOf(0.5))
	if hot := d2.Observe(loadsOf(0.95)); len(hot) != 0 {
		t.Fatalf("interrupted spike fired: %v", hot)
	}
}

// The hot set must come out utilization-descending with a deterministic tie
// order, and links that vanish from the observation must be forgotten.
func TestDetectorOrderingAndForgetting(t *testing.T) {
	d := NewDetector(DetectorConfig{HotThreshold: 0.5, Sustain: 1})
	links := []LinkLoad{
		{From: 3, To: 4, Capacity: 100, Load: 80},
		{From: 1, To: 2, Capacity: 100, Load: 95},
		{From: 2, To: 3, Capacity: 100, Load: 80},
	}
	hot := d.Observe(links)
	got := make([][2]int, len(hot))
	for i, h := range hot {
		got[i] = [2]int{h.From, h.To}
	}
	want := [][2]int{{1, 2}, {2, 3}, {3, 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hot order = %v, want %v", got, want)
	}
	if hot := d.Observe(nil); len(hot) != 0 {
		t.Fatalf("hot after empty observation = %v, want none", hot)
	}
	if d.Hot(Link{1, 2}) {
		t.Fatal("vanished link still marked hot")
	}
}

// --- ledger recount property ------------------------------------------------

// After any seeded interleaving of admits, releases, preemptions and
// migrations, the ledger must deep-equal a from-scratch recount of the
// allocator's active reservations.
func TestLedgerRecountSeeded(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ov, req, _ := concentrateOverlay(t, 4)
			ledger := NewLedger(ov, metrics.New())
			alloc := provision.NewAllocator(ov, provision.AllocatorOptions{
				Classes: 2, Preempt: true, Observer: ledger,
			})
			defer alloc.Close()

			rng := rand.New(rand.NewSource(seed))
			var live []uint64
			for op := 0; op < 300; op++ {
				switch k := rng.Intn(100); {
				case k < 55: // admit
					tkt, err := alloc.Admit(provision.AdmitRequest{
						Req: req, Src: 0, Demand: int64(5 + rng.Intn(60)),
						Class: rng.Intn(2), Tag: fmt.Sprintf("t%d", op),
						Alg: heuristicAlg,
					})
					if err == nil {
						live = append(live, tkt.ID)
					}
				case k < 80: // release (possibly of a preempted ticket: ErrNoTicket is fine)
					if len(live) == 0 {
						continue
					}
					i := rng.Intn(len(live))
					err := alloc.Release(live[i])
					if err != nil && !errors.Is(err, provision.ErrNoTicket) {
						t.Fatalf("release: %v", err)
					}
					live = append(live[:i], live[i+1:]...)
				default: // migrate in place (no gate)
					if len(live) == 0 {
						continue
					}
					id := live[rng.Intn(len(live))]
					_, err := alloc.Migrate(id, heuristicAlg, nil, "reopt:0-1")
					if err != nil && !errors.Is(err, provision.ErrNoTicket) &&
						!errors.Is(err, provision.ErrRejected) {
						t.Fatalf("migrate: %v", err)
					}
				}
				if op%50 == 0 {
					if got, want := ledger.Loads(), recount(alloc); !reflect.DeepEqual(got, want) {
						t.Fatalf("op %d: ledger %v != recount %v", op, got, want)
					}
				}
			}
			got, want := ledger.Loads(), recount(alloc)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("final ledger %v != recount %v", got, want)
			}
			// Tenant counts agree too.
			if got, want := len(alloc.Tenants()), lenTenants(ledger); got != want {
				t.Fatalf("allocator tenants %d, ledger tenants %d", got, want)
			}
		})
	}
}

// lenTenants counts the distinct tenants the ledger is carrying.
func lenTenants(l *Ledger) int {
	seen := map[uint64]bool{}
	for _, ll := range l.Links() {
		for _, ts := range l.TenantsOn(Link{ll.From, ll.To}) {
			seen[ts.Ticket] = true
		}
	}
	return len(seen)
}

// The same property under real concurrency: many goroutines admitting,
// releasing and migrating at once (run with -race). The ledger folds
// observer callbacks in writer-loop order, so after quiescing it must equal
// the recount exactly.
func TestLedgerRecountConcurrent(t *testing.T) {
	ov, req, _ := concentrateOverlay(t, 4)
	ledger := NewLedger(ov, nil)
	alloc := provision.NewAllocator(ov, provision.AllocatorOptions{
		Classes: 2, Preempt: true, Observer: ledger,
	})
	defer alloc.Close()

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			var mine []uint64
			for op := 0; op < 40; op++ {
				switch k := rng.Intn(100); {
				case k < 55:
					tkt, err := alloc.Admit(provision.AdmitRequest{
						Req: req, Src: 0, Demand: int64(5 + rng.Intn(40)),
						Class: rng.Intn(2), Tag: fmt.Sprintf("w%d-%d", w, op),
						Alg: heuristicAlg,
					})
					if err == nil {
						mine = append(mine, tkt.ID)
					}
				case k < 80:
					if len(mine) == 0 {
						continue
					}
					i := rng.Intn(len(mine))
					_ = alloc.Release(mine[i])
					mine = append(mine[:i], mine[i+1:]...)
				default:
					if len(mine) == 0 {
						continue
					}
					_, _ = alloc.Migrate(mine[rng.Intn(len(mine))], heuristicAlg, nil, "mig")
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := ledger.Loads(), recount(alloc); !reflect.DeepEqual(got, want) {
		t.Fatalf("ledger %v != recount %v", got, want)
	}
}

// TTL expiries flow through the same observer hook: once every lease lapses,
// the ledger must drain to empty.
func TestLedgerDrainsOnExpiry(t *testing.T) {
	ov, req, _ := concentrateOverlay(t, 2)
	ledger := NewLedger(ov, nil)
	alloc := provision.NewAllocator(ov, provision.AllocatorOptions{Observer: ledger})
	defer alloc.Close()

	for i := 0; i < 5; i++ {
		if _, err := alloc.Admit(provision.AdmitRequest{
			Req: req, Src: 0, Demand: 10, TTL: 10 * time.Millisecond,
			Tag: fmt.Sprintf("lease%d", i), Alg: heuristicAlg,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(ledger.Loads()) == 0 {
		t.Fatal("ledger empty while leases active")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(alloc.Tenants()) == 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := len(alloc.Tenants()); n != 0 {
		t.Fatalf("%d tenants still active after TTL deadline", n)
	}
	if got := ledger.Loads(); len(got) != 0 {
		t.Fatalf("ledger after all leases expired = %v, want empty", got)
	}
}

// --- planner ----------------------------------------------------------------

// admitConcentrated drives the concentrate scenario: smalls then bigs, all
// landing on the fat path (the heuristic picks the widest path and the fat
// path stays widest throughout — asserted, not assumed).
func admitConcentrated(t *testing.T, alloc *provision.Allocator, req *require.Requirement, alts int) (smalls []uint64) {
	t.Helper()
	for i := 0; i < alts; i++ {
		tkt, err := alloc.Admit(provision.AdmitRequest{
			Req: req, Src: 0, Demand: int64(16 + i%8), Tag: fmt.Sprintf("small%d", i),
			Alg: heuristicAlg,
		})
		if err != nil {
			t.Fatalf("small %d: %v", i, err)
		}
		smalls = append(smalls, tkt.ID)
	}
	for i := 0; i < 7; i++ {
		tkt, err := alloc.Admit(provision.AdmitRequest{
			Req: req, Src: 0, Demand: 120, Tag: fmt.Sprintf("big%d", i),
			Alg: heuristicAlg,
		})
		if err != nil {
			t.Fatalf("big %d: %v", i, err)
		}
		if _, hasHub := tkt.Reservations()[Link{0, 1}]; !hasHub {
			t.Fatalf("big %d avoided the fat path: %v", i, tkt.Reservations())
		}
	}
	return smalls
}

// One Routing struct reaches every table the planner builds: after a Step
// that re-places a tenant, the mirror session runs in the configured fill
// policy, its table holds the configured row bound, and the table's lazy
// counters and the planner's own land in the configured registry.
func TestPlannerRoutingReachesMirrorTable(t *testing.T) {
	const alts = 4
	ov, req, _ := concentrateOverlay(t, alts)
	ledger := NewLedger(ov, nil)
	alloc := provision.NewAllocator(ov, provision.AllocatorOptions{Observer: ledger})
	defer alloc.Close()
	admitConcentrated(t, alloc, req, alts)

	reg := metrics.New()
	p := NewPlanner(alloc, ledger, ov, PlannerConfig{
		Detector: DetectorConfig{HotThreshold: 0.85, Sustain: 1},
		Routing:  qos.Options{Workers: 1, Lazy: true, MaxRows: 2, Metrics: reg},
	})
	if p.sess != nil {
		t.Fatal("NewPlanner built its mirror session before any re-placement")
	}
	if rep := p.Step(); rep.Migrations+rep.Vetoes+rep.Failures == 0 {
		t.Fatalf("step re-placed no tenant: %+v", rep)
	}
	if p.sess == nil {
		t.Fatal("a step that re-placed a tenant left the mirror session unbuilt")
	}
	if !p.sess.Lazy() {
		t.Error("mirror session is eager, want Routing.Lazy")
	}
	if got := p.sess.Table().MaxRows(); got != 2 {
		t.Errorf("mirror table MaxRows = %d, want Routing.MaxRows 2", got)
	}
	if reg.Counter("qos_lazy_rows_computed_total").Value() == 0 {
		t.Error("mirror table computed rows outside Routing.Metrics")
	}
	if reg.Counter("reopt_steps_total").Value() != 1 {
		t.Error("planner counted its step outside Routing.Metrics")
	}
}

// The tentpole end-to-end property: traffic concentrates on the fat path,
// the detector flags it after the sustain guard, the planner migrates the
// cheapest tenants onto the parallel alts, the hot link drops below the
// threshold, no link ever exceeds the pre-migration maximum, and the whole
// recorded log replays to a byte-identical residual.
func TestPlannerRelievesHotspot(t *testing.T) {
	const alts = 4
	ov, req, _ := concentrateOverlay(t, alts)
	ledger := NewLedger(ov, nil)
	alloc := provision.NewAllocator(ov, provision.AllocatorOptions{Observer: ledger})
	defer alloc.Close()
	admitConcentrated(t, alloc, req, alts)

	hub := Link{0, 1}
	preUtil := ledger.Utilization(hub)
	if preUtil < 0.85 {
		t.Fatalf("scenario did not concentrate: hub at %.2f, want >= 0.85", preUtil)
	}

	p := NewPlanner(alloc, ledger, ov, PlannerConfig{
		Detector: DetectorConfig{HotThreshold: 0.85, Sustain: 2},
	})
	var migrations int
	var lastPre, lastPost float64
	for step := 0; step < 10; step++ {
		rep := p.Step()
		if rep.PostMax > rep.PreMax+1e-9 {
			t.Fatalf("step %d regressed the objective: pre %.4f post %.4f", step, rep.PreMax, rep.PostMax)
		}
		migrations += rep.Migrations
		lastPre, lastPost = rep.PreMax, rep.PostMax
		if step >= 1 && rep.Migrations == 0 {
			break
		}
	}
	_ = lastPre
	if migrations == 0 {
		t.Fatal("planner committed no migrations off the hot link")
	}
	if got := ledger.Utilization(hub); got >= 0.85 {
		t.Fatalf("hub still hot after planning: %.4f", got)
	}
	if lastPost > preUtil+1e-9 {
		t.Fatalf("final max utilization %.4f above original %.4f", lastPost, preUtil)
	}
	// No new hotspots: every link ends below the hot threshold and below the
	// original maximum.
	for _, ll := range ledger.Links() {
		if u := ll.Utilization(); u >= 0.85 || u > preUtil+1e-9 {
			t.Fatalf("hotspot on %d->%d after planning: %.4f (pre max %.4f)", ll.From, ll.To, u, preUtil)
		}
	}
	// Ledger still agrees with the ground truth after all the churn.
	if got, want := ledger.Loads(), recount(alloc); !reflect.DeepEqual(got, want) {
		t.Fatalf("ledger %v != recount %v", got, want)
	}
	// Class counters recorded the migrations.
	if cc := alloc.ClassCounters(); cc[0].Migrated != int64(migrations) {
		t.Fatalf("Migrated counter = %d, want %d", cc[0].Migrated, migrations)
	}

	// The serialization log — admissions plus session-solved migrations —
	// must replay against a pristine overlay to the exact same residual,
	// with migrations rebuilt by the stateless masked algorithm.
	replayed, err := provision.Replay(ov, provision.AllocatorOptions{}, alloc.Log(), replayAlgFor)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if got, want := sortedLinks(replayed.Residual()), sortedLinks(alloc.Residual()); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed residual diverged:\n got %v\nwant %v", got, want)
	}
	if got, want := replayed.Tenants(), alloc.Tenants(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed tenants diverged:\n got %v\nwant %v", got, want)
	}
}

// A gate that always vetoes must leave the residual, the ledger and the log
// untouched — the exact-rollback path.
func TestMigrateVetoRollsBackExactly(t *testing.T) {
	ov, req, _ := concentrateOverlay(t, 2)
	ledger := NewLedger(ov, nil)
	alloc := provision.NewAllocator(ov, provision.AllocatorOptions{Observer: ledger})
	defer alloc.Close()

	tkt, err := alloc.Admit(provision.AdmitRequest{Req: req, Src: 0, Demand: 40, Tag: "t", Alg: heuristicAlg})
	if err != nil {
		t.Fatal(err)
	}
	before := sortedLinks(alloc.Residual())
	loadsBefore := ledger.Loads()
	logBefore := len(alloc.Log())

	veto := func(old, next map[Link]provision.Reservation) error {
		return errors.New("never")
	}
	_, err = alloc.Migrate(tkt.ID, maskedAlg(0, 1), veto, "reopt:0-1")
	if !errors.Is(err, provision.ErrVetoed) {
		t.Fatalf("err = %v, want ErrVetoed", err)
	}
	if got := sortedLinks(alloc.Residual()); !reflect.DeepEqual(got, before) {
		t.Fatalf("vetoed migration mutated residual:\n got %v\nwant %v", got, before)
	}
	if got := ledger.Loads(); !reflect.DeepEqual(got, loadsBefore) {
		t.Fatalf("vetoed migration reached the ledger: %v != %v", got, loadsBefore)
	}
	if got := len(alloc.Log()); got != logBefore {
		t.Fatalf("vetoed migration was logged (%d events, want %d)", got, logBefore)
	}
	// The ticket is still releasable — the original placement survived.
	if err := alloc.Release(tkt.ID); err != nil {
		t.Fatal(err)
	}
	if got := ledger.Loads(); len(got) != 0 {
		t.Fatalf("ledger after release = %v, want empty", got)
	}
}

// Migrating an unknown or departed ticket must fail with ErrNoTicket.
func TestMigrateNoTicket(t *testing.T) {
	ov, req, _ := concentrateOverlay(t, 2)
	alloc := provision.NewAllocator(ov, provision.AllocatorOptions{})
	defer alloc.Close()
	if _, err := alloc.Migrate(99, heuristicAlg, nil, "x"); !errors.Is(err, provision.ErrNoTicket) {
		t.Fatalf("err = %v, want ErrNoTicket", err)
	}
	tkt, err := alloc.Admit(provision.AdmitRequest{Req: req, Src: 0, Demand: 10, Alg: heuristicAlg})
	if err != nil {
		t.Fatal(err)
	}
	if err := alloc.Release(tkt.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := alloc.Migrate(tkt.ID, heuristicAlg, nil, "x"); !errors.Is(err, provision.ErrNoTicket) {
		t.Fatalf("err after release = %v, want ErrNoTicket", err)
	}
}

// Every ledger reading must equal a brute-force recount of the allocator's
// active reservations after every single step — admits, releases, in-place
// migrations and the preemptions a higher class forces: Links (capacity,
// latency, load and tenant count of every boot link, in (From, To) order),
// Loads, and TenantsOn of every link.
func TestLedgerMatchesRecountEveryStep(t *testing.T) {
	ov, req, _ := concentrateOverlay(t, 3)
	ledger := NewLedger(ov, metrics.New())
	alloc := provision.NewAllocator(ov, provision.AllocatorOptions{
		Classes: 2, Preempt: true, Observer: ledger,
	})
	defer alloc.Close()

	check := func(step int) {
		t.Helper()
		res := alloc.Reservations()
		loads := recount(alloc)
		on := map[Link][]TenantShare{}
		for id, links := range res {
			for link, r := range links {
				on[link] = append(on[link], TenantShare{Ticket: id, Amount: r.Amount})
			}
		}
		var want []LinkLoad
		for _, lk := range sortedLinks(ov) {
			key := Link{lk.From, lk.To}
			want = append(want, LinkLoad{From: lk.From, To: lk.To, Capacity: lk.Bandwidth,
				Latency: lk.Latency, Load: loads[key], Tenants: len(on[key])})
			shares := on[key]
			sort.Slice(shares, func(i, j int) bool {
				if shares[i].Amount != shares[j].Amount {
					return shares[i].Amount < shares[j].Amount
				}
				return shares[i].Ticket < shares[j].Ticket
			})
			if got := ledger.TenantsOn(key); !reflect.DeepEqual(got, shares) {
				t.Fatalf("step %d: TenantsOn(%v) = %v, recount %v", step, key, got, shares)
			}
		}
		if got := ledger.Links(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: Links\n%v\nrecount\n%v", step, got, want)
		}
		if got := ledger.Loads(); !reflect.DeepEqual(got, loads) {
			t.Fatalf("step %d: Loads %v, recount %v", step, got, loads)
		}
	}

	rng := rand.New(rand.NewSource(7))
	var live []uint64
	check(-1)
	for step := 0; step < 400; step++ {
		switch k := rng.Intn(100); {
		case k < 55:
			tkt, err := alloc.Admit(provision.AdmitRequest{
				Req: req, Src: 0, Demand: int64(20 + rng.Intn(120)),
				Class: rng.Intn(2), Tag: fmt.Sprintf("t%d", step), Alg: heuristicAlg,
			})
			if err == nil {
				live = append(live, tkt.ID)
			}
		case k < 80:
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			if err := alloc.Release(live[i]); err != nil && !errors.Is(err, provision.ErrNoTicket) {
				t.Fatalf("release: %v", err)
			}
			live = append(live[:i], live[i+1:]...)
		default:
			if len(live) == 0 {
				continue
			}
			_, err := alloc.Migrate(live[rng.Intn(len(live))], heuristicAlg, nil, "reopt:0-1")
			if err != nil && !errors.Is(err, provision.ErrNoTicket) && !errors.Is(err, provision.ErrRejected) {
				t.Fatalf("migrate: %v", err)
			}
		}
		check(step)
	}
	kinds := map[provision.EventKind]int{}
	for _, ev := range alloc.Log() {
		kinds[ev.Kind]++
		kinds[provision.EventPreempt] += len(ev.Preempted)
	}
	for _, k := range []provision.EventKind{provision.EventAdmit, provision.EventRelease,
		provision.EventMigrate, provision.EventPreempt} {
		if kinds[k] == 0 {
			t.Errorf("the sequence logged no %s event: %v", k, kinds)
		}
	}
}

// NewPlanner routes nothing and a step that re-places no tenant builds no
// mirror session: an eager mirror's all-pairs runs at the first step that
// tries a candidate, not before.
func TestPlannerBuildsMirrorAtFirstReplacement(t *testing.T) {
	const alts = 4
	ov, req, _ := concentrateOverlay(t, alts)
	ledger := NewLedger(ov, nil)
	alloc := provision.NewAllocator(ov, provision.AllocatorOptions{Observer: ledger})
	defer alloc.Close()
	admitConcentrated(t, alloc, req, alts)

	reg := metrics.New()
	runs := reg.Counter("qos_shortest_widest_runs_total")
	p := NewPlanner(alloc, ledger, ov, PlannerConfig{
		Routing:  qos.Options{Metrics: reg},
		Detector: DetectorConfig{HotThreshold: 0.85, Sustain: 2},
	})
	if got := runs.Value(); got != 0 {
		t.Fatalf("NewPlanner ran %d rows", got)
	}
	// The hub is hot but not yet sustained: nothing to re-place.
	if rep := p.Step(); len(rep.Hot) != 0 || runs.Value() != 0 {
		t.Fatalf("unsustained step: hot %v, %d rows", rep.Hot, runs.Value())
	}
	if rep := p.Step(); rep.Migrations == 0 {
		t.Fatalf("sustained step migrated nobody: %+v", rep)
	}
	if got, want := runs.Value(), int64(ov.NumInstances()); got < want {
		t.Fatalf("first re-placing step ran %d rows, want the mirror's %d at least", got, want)
	}
}
