package daemon

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sflow/internal/overlay"
	"sflow/internal/provision"
	"sflow/internal/reopt"
	"sflow/internal/require"
)

// hotOverlay is the concentrate topology: a fat two-hop path every heuristic
// admission lands on, plus alts thin parallel paths for the reoptimizer to
// migrate onto (mirrors internal/reopt's scenario).
func hotOverlay(t testing.TB, alts int) (*overlay.Overlay, *require.Requirement) {
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
	return ov, req
}

// The links RPC must account admitted load per link: admissions raise Load on
// exactly the links their flows reserve, releases drain it back to zero.
func TestLinksRPCTracksAdmittedLoad(t *testing.T) {
	ov, req := hotOverlay(t, 2)
	srv := New(ov, Options{Routing: Routing{Workers: 1}})
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	lr, err := c.Links()
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Links) != 6 { // 2 fat + 2×2 alt links
		t.Fatalf("links = %d, want 6", len(lr.Links))
	}
	for _, ls := range lr.Links {
		if ls.Load != 0 || ls.Hot {
			t.Fatalf("pristine link %d->%d = %+v, want idle", ls.From, ls.To, ls)
		}
	}

	ar, err := c.Admit("heuristic", req, 0, 50, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Err != "" {
		t.Fatalf("admit: %s", ar.Err)
	}
	lr, err = c.Links()
	if err != nil {
		t.Fatal(err)
	}
	byLink := map[[2]int]LinkStatus{}
	for _, ls := range lr.Links {
		byLink[[2]int{ls.From, ls.To}] = ls
	}
	// The widest-first heuristic lands on the fat path 0->1->sink.
	if got := byLink[[2]int{0, 1}]; got.Load != 50 || got.Tenants != 1 || got.Utilization != 0.05 {
		t.Fatalf("fat link after admit = %+v", got)
	}
	if got := byLink[[2]int{0, 2}]; got.Load != 0 {
		t.Fatalf("alt link carries load: %+v", got)
	}

	if rr, err := c.Release(ar.Ticket); err != nil || rr.Err != "" {
		t.Fatalf("release: %v %v", err, rr)
	}
	lr, err = c.Links()
	if err != nil {
		t.Fatal(err)
	}
	for _, ls := range lr.Links {
		if ls.Load != 0 {
			t.Fatalf("link %d->%d still loaded after release: %+v", ls.From, ls.To, ls)
		}
	}
}

// End-to-end through the daemon: concentrated admissions drive the fat path
// hot, the background reoptimizer loop detects it and migrates tenants onto
// the alts, and the links RPC shows the hot link relieved — without any new
// hotspot appearing.
func TestReoptLoopRelievesHotLink(t *testing.T) {
	const alts = 4
	ov, req := hotOverlay(t, alts)
	srv := New(ov, Options{
		Routing: Routing{Workers: 1},
		Reopt: ReoptOptions{
			Enabled:  true,
			Detector: reopt.DetectorConfig{HotThreshold: 0.85, Sustain: 2},
			Interval: 5 * time.Millisecond,
		},
	})
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < alts; i++ {
		if r, err := c.Admit("heuristic", req, 0, int64(16+i%8), 0, 0); err != nil || r.Err != "" {
			t.Fatalf("small %d: %v %v", i, err, r)
		}
	}
	for i := 0; i < 7; i++ {
		if r, err := c.Admit("heuristic", req, 0, 120, 0, 0); err != nil || r.Err != "" {
			t.Fatalf("big %d: %v %v", i, err, r)
		}
	}
	utilOf := func() (float64, []LinkStatus) {
		lr, err := c.Links()
		if err != nil {
			t.Fatal(err)
		}
		for _, ls := range lr.Links {
			if ls.From == 0 && ls.To == 1 {
				return ls.Utilization, lr.Links
			}
		}
		t.Fatal("fat link missing from links RPC")
		return 0, nil
	}
	pre, _ := utilOf()
	if pre < 0.85 {
		t.Fatalf("scenario did not concentrate: fat link at %.2f", pre)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		u, links := utilOf()
		if u < 0.85 {
			for _, ls := range links {
				if ls.Utilization > pre+1e-9 {
					t.Fatalf("link %d->%d above original max: %+v", ls.From, ls.To, ls)
				}
				if ls.Capacity == 130 && ls.Utilization >= 0.85 {
					t.Fatalf("new hotspot on alt %d->%d: %+v", ls.From, ls.To, ls)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fat link still at %.3f after deadline", u)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The allocator's class ledger recorded the migrations.
	tr, err := c.Tenants()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Classes[0].Migrated == 0 {
		t.Fatal("no migrations recorded despite hot link relieved")
	}
	if got := len(tr.Tenants); got != alts+7 {
		t.Fatalf("tenant count changed across migrations: %d, want %d", got, alts+7)
	}
}

// transitionLog records allocator transitions so the fanout path (ledger +
// caller-provided observer) is pinned: the daemon must not displace an
// observer the embedder installed.
type transitionLog struct {
	mu     sync.Mutex
	events []string
}

func (l *transitionLog) TenantAdmitted(t *provision.Ticket) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, fmt.Sprintf("admit:%d", t.ID))
}

func (l *transitionLog) TenantDeparted(t *provision.Ticket, kind provision.EventKind) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, fmt.Sprintf("depart:%d:%s", t.ID, kind))
}

func (l *transitionLog) TenantMigrated(old, fresh *provision.Ticket) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, fmt.Sprintf("migrate:%d", fresh.ID))
}

func (l *transitionLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.events...)
}

// ReoptimizeOnce is the synchronous entry point: with the background loop
// off, explicit steps must relieve the hot link, and a caller-provided
// observer must see every transition alongside the daemon's own ledger.
func TestReoptimizeOnceAndObserverFanout(t *testing.T) {
	const alts = 2
	obs := &transitionLog{}
	ov, req := hotOverlay(t, alts)
	srv := New(ov, Options{
		Routing:   Routing{Workers: 1},
		Admission: provision.AllocatorOptions{Observer: obs},
		Reopt:     ReoptOptions{Detector: reopt.DetectorConfig{HotThreshold: 0.85, Sustain: 2}},
	})
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var tickets []uint64
	for i := 0; i < alts; i++ {
		r, err := c.Admit("heuristic", req, 0, int64(16+i%8), 0, 0)
		if err != nil || r.Err != "" {
			t.Fatalf("small %d: %v %v", i, err, r)
		}
		tickets = append(tickets, r.Ticket)
	}
	for i := 0; i < 7; i++ {
		if r, err := c.Admit("heuristic", req, 0, 120, 0, 0); err != nil || r.Err != "" {
			t.Fatalf("big %d: %v %v", i, err, r)
		}
	}

	migrations := 0
	for step := 0; step < 6; step++ {
		rep := srv.ReoptimizeOnce()
		if rep.PostMax > rep.PreMax+1e-9 {
			t.Fatalf("step %d regressed: %+v", step, rep)
		}
		migrations += rep.Migrations
		if step >= 1 && rep.Migrations == 0 {
			break
		}
	}
	if migrations == 0 {
		t.Fatal("no synchronous migrations committed")
	}
	if rr, err := c.Release(tickets[0]); err != nil || rr.Err != "" {
		t.Fatalf("release: %v %v", err, rr)
	}

	var admits, migrates, departs int
	for _, e := range obs.snapshot() {
		switch {
		case strings.HasPrefix(e, "admit:"):
			admits++
		case strings.HasPrefix(e, "migrate:"):
			migrates++
		case strings.HasPrefix(e, "depart:"):
			departs++
		}
	}
	if admits != alts+7 || migrates != migrations || departs != 1 {
		t.Fatalf("observer saw admits=%d migrates=%d departs=%d, want %d/%d/1",
			admits, migrates, departs, alts+7, migrations)
	}

	// The stats op answers through the writer goroutine even while the
	// reoptimizer machinery is wired up.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Err != "" {
		t.Fatalf("stats: %s", st.Err)
	}
}

// Protocol failures must come back in Response.Err on a live connection —
// never as a dropped connection — for every read- and write-side op.
func TestRPCErrorResponses(t *testing.T) {
	ov, req := hotOverlay(t, 2)
	srv := New(ov, Options{Routing: Routing{Workers: 1}})
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for name, req := range map[string]*Request{
		"unknown op":             {Op: "frobnicate"},
		"unknown algorithm":      {Op: OpSolve, Algorithm: "nope", Requirement: req},
		"solve w/o requirement":  {Op: OpSolve, Algorithm: "heuristic"},
		"repair w/o requirement": {Op: OpRepair},
		"unknown mutation":       {Op: OpMutate, Mutations: []Mutation{{Kind: "warp"}}},
		"bad mutation":           {Op: OpMutate, Mutations: []Mutation{{Kind: MutRemoveLink, From: 7, To: 8}}},
	} {
		resp, err := c.Do(req)
		if err != nil {
			t.Fatalf("%s: transport error %v", name, err)
		}
		if resp.Err == "" {
			t.Fatalf("%s: no protocol error reported", name)
		}
	}

	// The connection survived all of the above.
	if resp, err := c.Solve("heuristic", req, 0); err != nil || resp.Err != "" {
		t.Fatalf("solve after protocol errors: %v %v", err, resp)
	}
}
