package daemon

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sflow/internal/metrics"
	"sflow/internal/provision"
	"sflow/internal/reopt"
	"sflow/internal/scenario"
)

// families lists the metric families of reg (keys without their labels)
// whose name starts with one of prefixes, sorted and deduplicated.
func families(reg *metrics.Registry, prefixes ...string) []string {
	snap := reg.Snapshot()
	var keys []string
	for _, c := range snap.Counters {
		keys = append(keys, c.Key)
	}
	for _, g := range snap.Gauges {
		keys = append(keys, g.Key)
	}
	for _, h := range snap.Histograms {
		keys = append(keys, h.Key)
	}
	var out []string
	for _, k := range keys {
		name, _, _ := strings.Cut(k, "{")
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				out = append(out, name)
				break
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// counterValue reads one counter of reg (0 when it is not registered).
func counterValue(reg *metrics.Registry, key string) int64 {
	for _, c := range reg.Snapshot().Counters {
		if c.Key == key {
			return c.Value
		}
	}
	return 0
}

// admissionFamilies is what building the admission side registers: the
// allocator's, the ledger's and the planner's families.
var admissionFamilies = []string{
	"alloc_active_tenants",
	"alloc_table_refreezes_total",
	"alloc_table_rows_dirtied_total",
	"alloc_table_rows_kept_total",
	"alloc_table_rows_recomputed_total",
	"alloc_utilization_pct",
	"reopt_failures_total",
	"reopt_ledger_updates_total",
	"reopt_max_utilization_pct",
	"reopt_migrations_total",
	"reopt_steps_total",
	"reopt_vetoes_total",
}

// New builds the serving state only: the session and its boot epoch. On the
// churn-eager scenario that is one all-pairs of 89 rows (a second one, for
// the planner's mirror session, made it 178); on the lazy 10k-node scenario
// it routes nothing and allocates about 12 MB (31 MB when New also built
// the ledger, the residual and the mirror). The allocator, ledger and
// planner families register at the first admission-side request, every one
// of them.
func TestDaemonBootBuildsServingStateOnly(t *testing.T) {
	eager, err := scenario.Generate(scenario.Config{Seed: 1, NetworkSize: 100, Services: 12,
		InstancesPerService: 8, Kind: scenario.KindGeneral})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	srv := New(eager.Overlay, Options{Routing: Routing{Metrics: reg}})
	defer srv.Close()
	if got := counterValue(reg, "qos_shortest_widest_runs_total"); got != 89 {
		t.Errorf("churn-eager boot ran %d shortest-widest rows, want 89", got)
	}
	if got := families(reg, "alloc_", "reopt_"); len(got) != 0 {
		t.Errorf("families registered before any admission-side request: %v", got)
	}
	if resp, _ := srv.Handle(&Request{Op: OpLinks}); resp.(*Response).Err != "" {
		t.Fatalf("links: %s", resp.(*Response).Err)
	}
	if got := families(reg, "alloc_", "reopt_"); !reflect.DeepEqual(got, admissionFamilies) {
		t.Errorf("families after the first links request:\n got %v\nwant %v", got, admissionFamilies)
	}
	if got := counterValue(reg, "qos_shortest_widest_runs_total"); got != 89 {
		t.Errorf("building the admission side ran %d rows in all, want the boot's 89", got)
	}

	large, err := scenario.GenerateLarge(scenario.LargeConfig{Seed: 1, Nodes: 10000,
		Services: 6, InstancesPerService: 6})
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 20 << 20
	reg = metrics.New()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lazy := New(large.Overlay, Options{Routing: Routing{Lazy: true, MaxRows: 16, Metrics: reg}})
	runtime.ReadMemStats(&after)
	defer lazy.Close()
	if got := counterValue(reg, "qos_shortest_widest_runs_total"); got != 0 {
		t.Errorf("lazy-large boot ran %d shortest-widest rows, want 0", got)
	}
	if got := families(reg, "alloc_", "reopt_"); len(got) != 0 {
		t.Errorf("families registered before any admission-side request: %v", got)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("lazy 10k-node New allocated %.1f MB (ceiling %d MB)", float64(alloc)/(1<<20), ceiling>>20)
	if !raceEnabled && alloc > ceiling {
		t.Errorf("lazy 10k-node New allocated %d B, ceiling %d B", alloc, ceiling)
	}
}

// An allocator built at the first admit, after several mutation epochs were
// published, must still reserve from the boot substrate: over a sequence
// that admits, rejects, preempts and releases, it grants byte-identical
// flows and logs the same events as an allocator built at boot on the same
// overlay.
func TestFirstAdmitAfterEpochsMatchesBootAllocator(t *testing.T) {
	sc := testScenario(t, 4)
	admOpts := provision.AllocatorOptions{Classes: 2, Preempt: true}
	ref := provision.NewAllocator(sc.Overlay, admOpts)
	defer ref.Close()
	srv := New(sc.Overlay, Options{Routing: Routing{Workers: 1}, Admission: admOpts})
	defer srv.Close()

	links := sc.Overlay.Links()
	for i, m := range []Mutation{
		{Kind: MutRemoveLink, From: links[0].From, To: links[0].To},
		{Kind: MutReduceBandwidth, From: links[1].From, To: links[1].To, Delta: links[1].Bandwidth / 2},
		{Kind: MutGrowBandwidth, From: links[2].From, To: links[2].To, Delta: 500},
	} {
		out, _ := srv.Handle(&Request{Op: OpMutate, Mutations: []Mutation{m}})
		if resp := out.(*Response); resp.Err != "" || resp.Epoch != uint64(i+2) {
			t.Fatalf("mutation %d: %+v", i, resp)
		}
	}

	algs := []string{"heuristic", "fixed", "random"}
	var held []uint64
	for i := 0; i < 24; i++ {
		if i%5 == 4 && len(held) > 0 {
			id := held[0]
			held = held[1:]
			out, _ := srv.Handle(&Request{Op: OpRelease, Ticket: id})
			rerr := ref.Release(id)
			if got := out.(*Response).Err; (got == "") != (rerr == nil) {
				t.Fatalf("release %d: daemon %q, boot allocator %v", id, got, rerr)
			}
			continue
		}
		name := algs[i%len(algs)]
		demand, class := int64(400+1700*i%3000), i%2
		out, _ := srv.Handle(&Request{Op: OpAdmit, Algorithm: name, Requirement: sc.Req,
			Source: sc.SourceNID, Demand: demand, Class: class})
		resp := out.(*Response)
		alg, err := admissionAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		tk, err := ref.Admit(provision.AdmitRequest{Req: sc.Req, Src: sc.SourceNID,
			Demand: demand, Class: class, Tag: name, Alg: alg})
		if (resp.Err == "") != (err == nil) {
			t.Fatalf("admit %d: daemon %q, boot allocator %v", i, resp.Err, err)
		}
		if err != nil {
			continue
		}
		want, err := tk.Flow.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Ticket != tk.ID || string(resp.Flow) != string(want) {
			t.Fatalf("admit %d: daemon granted ticket %d %s, boot allocator %d %s",
				i, resp.Ticket, resp.Flow, tk.ID, want)
		}
		held = append(held, tk.ID)
	}
	live := mustAllocator(t, srv)
	if got, want := live.Log(), ref.Log(); !reflect.DeepEqual(got, want) {
		t.Fatalf("logs diverge:\ndaemon %+v\n  boot %+v", got, want)
	}
	if got, want := sortedOverlayLinks(live.Residual()), sortedOverlayLinks(ref.Residual()); !reflect.DeepEqual(got, want) {
		t.Fatal("residual overlays diverge")
	}
}

// The links op on a fresh daemon lists every boot link with its capacity and
// no load. So does the first links request of a daemon that published a
// mutation epoch before it, and later requests after more epochs.
func TestLinksOnFreshDaemonListsBootLinks(t *testing.T) {
	sc := testScenario(t, 2)
	var want []LinkStatus
	for _, l := range sortedOverlayLinks(sc.Overlay) {
		want = append(want, LinkStatus{From: l.From, To: l.To, Capacity: l.Bandwidth})
	}
	links := func(srv *Server, when string) {
		t.Helper()
		out, _ := srv.Handle(&Request{Op: OpLinks})
		if got := out.(*Response).Links; !reflect.DeepEqual(got, want) {
			t.Fatalf("links %s:\n got %+v\nwant %+v", when, got, want)
		}
	}
	removeLink := func(srv *Server, l LinkStatus) {
		t.Helper()
		if out, _ := srv.Handle(&Request{Op: OpMutate, Mutations: []Mutation{
			{Kind: MutRemoveLink, From: l.From, To: l.To}}}); out.(*Response).Err != "" {
			t.Fatalf("mutate: %s", out.(*Response).Err)
		}
	}

	fresh := New(sc.Overlay, Options{Routing: Routing{Workers: 1}})
	defer fresh.Close()
	links(fresh, "on a fresh daemon")
	removeLink(fresh, want[0])
	links(fresh, "after a mutation epoch")

	mutated := New(sc.Overlay, Options{Routing: Routing{Workers: 1}})
	defer mutated.Close()
	removeLink(mutated, want[1])
	links(mutated, "first requested after a mutation epoch")
}

// countingObserver counts admissions.
type countingObserver struct {
	mu       sync.Mutex
	admitted int
}

func (o *countingObserver) TenantAdmitted(*provision.Ticket) {
	o.mu.Lock()
	o.admitted++
	o.mu.Unlock()
}
func (o *countingObserver) TenantDeparted(*provision.Ticket, provision.EventKind) {}
func (o *countingObserver) TenantMigrated(_, _ *provision.Ticket)                 {}

// Concurrent first admits from several TCP clients must build one allocator
// between them: every grant lands in the one log Allocator returns, with
// distinct tickets, and the one ledger counts each of them once.
func TestConcurrentFirstAdmitsBuildOneAllocator(t *testing.T) {
	sc := testScenario(t, 6)
	reg := metrics.New()
	obs := &countingObserver{}
	srv := startServer(t, sc, Options{
		Routing:   Routing{Workers: 1, Metrics: reg},
		Admission: provision.AllocatorOptions{Observer: obs},
	})

	const clients = 6
	var wg sync.WaitGroup
	start := make(chan struct{})
	granted := make([]uint64, clients)
	for g := 0; g < clients; g++ {
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func(g int, c *Client) {
			defer wg.Done()
			<-start
			resp, err := c.Admit("heuristic", sc.Req, sc.SourceNID, 5, 0, 0)
			if err != nil || resp.Err != "" {
				t.Errorf("client %d: %v %+v", g, err, resp)
				return
			}
			granted[g] = resp.Ticket
		}(g, c)
	}
	close(start)
	wg.Wait()

	var logged []uint64
	for _, ev := range mustAllocator(t, srv).Log() {
		if ev.Kind == provision.EventAdmit {
			logged = append(logged, ev.Ticket)
		}
	}
	slices.Sort(granted)
	if !reflect.DeepEqual(logged, granted) {
		t.Fatalf("allocator logged admits %v, clients were granted %v", logged, granted)
	}
	if obs.admitted != clients {
		t.Fatalf("observer saw %d admissions, want %d", obs.admitted, clients)
	}
	if got := counterValue(reg, "reopt_ledger_updates_total"); got != clients {
		t.Fatalf("ledger booked %d updates, want %d", got, clients)
	}
}

// Close on a daemon that never admitted leaves no goroutine behind — the
// reoptimizer loop included — and every later admission-side call gets the
// shutdown error instead of building the allocator.
func TestCloseWithoutAdmissionLeavesNoGoroutine(t *testing.T) {
	sc := testScenario(t, 1)
	base := runtime.NumGoroutine()
	srv := New(sc.Overlay, Options{
		Routing: Routing{Workers: 1},
		Reopt:   ReoptOptions{Enabled: true, Interval: time.Hour},
	})
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after Close, %d before New:\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}

	for _, req := range []*Request{
		{Op: OpAdmit, Algorithm: "heuristic", Requirement: sc.Req, Source: sc.SourceNID, Demand: 5},
		{Op: OpRelease, Ticket: 1},
		{Op: OpTenants},
		{Op: OpLinks},
	} {
		out, _ := srv.Handle(req)
		if got := out.(*Response).Err; got != ErrClosed.Error() {
			t.Errorf("%s after Close: err %q, want %q", req.Op, got, ErrClosed)
		}
	}
	if alloc, err := srv.Allocator(); alloc != nil || !errors.Is(err, ErrClosed) {
		t.Errorf("Allocator after Close = %v, %v; want nil, %v", alloc, err, ErrClosed)
	}
	if rep := srv.ReoptimizeOnce(); !reflect.DeepEqual(rep, reopt.StepReport{}) {
		t.Errorf("ReoptimizeOnce after Close = %+v, want an empty report", rep)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the calls, %d before New", n, base)
	}
}

// A reoptimizer step with no hot link re-places nobody, so it builds no
// mirror session: building the admission side and stepping it moves no qos
// counter beyond the boot epoch's all-pairs.
func TestReoptimizeOnceWithoutHotLinkBuildsNoMirror(t *testing.T) {
	ov, req := hotOverlay(t, 2)
	reg := metrics.New()
	srv := New(ov, Options{
		Routing: Routing{Workers: 1, Metrics: reg},
		Reopt:   ReoptOptions{Detector: reopt.DetectorConfig{HotThreshold: 0.85, Sustain: 1}},
	})
	defer srv.Close()
	boot := counterValue(reg, "qos_shortest_widest_runs_total")
	if boot == 0 {
		t.Fatal("the eager boot epoch routed nothing")
	}
	for step := 0; step < 3; step++ {
		if rep := srv.ReoptimizeOnce(); len(rep.Hot) != 0 || rep.Migrations != 0 {
			t.Fatalf("step %d on an idle overlay: %+v", step, rep)
		}
	}
	if got := counterValue(reg, "qos_shortest_widest_runs_total"); got != boot {
		t.Fatalf("idle reoptimizer steps ran %d rows beyond the boot's %d", got-boot, boot)
	}
	// A light tenant leaves every link cold: still no mirror.
	if out, _ := srv.Handle(&Request{Op: OpAdmit, Algorithm: "heuristic", Requirement: req,
		Demand: 10}); out.(*Response).Err != "" {
		t.Fatalf("admit: %s", out.(*Response).Err)
	}
	admitted := counterValue(reg, "qos_shortest_widest_runs_total")
	if rep := srv.ReoptimizeOnce(); len(rep.Hot) != 0 {
		t.Fatalf("step with one light tenant: %+v", rep)
	}
	if got := counterValue(reg, "qos_shortest_widest_runs_total"); got != admitted {
		t.Fatalf("a cold reoptimizer step ran %d rows", got-admitted)
	}
}
