package daemon

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"sflow/internal/flow"
	"sflow/internal/overlay"
	"sflow/internal/provision"
)

// sortedOverlayLinks canonicalizes an overlay's links for deep comparison.
func sortedOverlayLinks(ov *overlay.Overlay) []overlay.Link {
	ls := ov.Links()
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].From != ls[j].From {
			return ls[i].From < ls[j].From
		}
		return ls[i].To < ls[j].To
	})
	return ls
}

// mustAllocator returns the server's allocator, failing the test if the
// server is closed.
func mustAllocator(t testing.TB, srv *Server) *provision.Allocator {
	t.Helper()
	alloc, err := srv.Allocator()
	if err != nil {
		t.Fatal(err)
	}
	return alloc
}

func TestAdmitReleaseTenantsRPC(t *testing.T) {
	sc := testScenario(t, 5)
	srv := startServer(t, sc, Options{
		Routing:   Routing{Workers: 1},
		Admission: provision.AllocatorOptions{Classes: 2},
	})

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Admit("heuristic", sc.Req, sc.SourceNID, 50, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" {
		t.Fatalf("admit: %s", resp.Err)
	}
	if resp.Ticket == 0 || resp.Metric == nil || len(resp.Flow) == 0 {
		t.Fatalf("admit response = %+v", resp)
	}
	// The served flow graph round-trips and is the allocator's flow.
	var fg flow.Graph
	if err := json.Unmarshal(resp.Flow, &fg); err != nil {
		t.Fatalf("decoding served flow: %v", err)
	}

	tr, err := c.Tenants()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Tenants) != 1 || tr.Tenants[0].Ticket != resp.Ticket || tr.Tenants[0].Class != 1 {
		t.Fatalf("tenants = %+v", tr.Tenants)
	}
	if tr.Classes[1].Admitted != 1 || tr.Classes[1].Active != 1 {
		t.Fatalf("classes = %+v", tr.Classes)
	}

	rr, err := c.Release(resp.Ticket)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Err != "" {
		t.Fatalf("release: %s", rr.Err)
	}
	// Double release reports the missing ticket in-band.
	rr2, err := c.Release(resp.Ticket)
	if err != nil {
		t.Fatal(err)
	}
	if rr2.Err == "" {
		t.Fatal("double release over RPC succeeded")
	}

	// Rejections travel with their machine-readable reason.
	bad, err := c.Admit("heuristic", sc.Req, sc.SourceNID, 1<<40, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Err == "" || bad.Reason == "" {
		t.Fatalf("oversized admit = %+v, want in-band rejection with reason", bad)
	}
	// Unknown algorithms are in-band errors too.
	ua, err := c.Admit("nope", sc.Req, sc.SourceNID, 10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ua.Err == "" {
		t.Fatal("unknown algorithm accepted")
	}
}

// The serving-layer acceptance criterion: concurrent clients admitting and
// releasing over RPC are pinned to the allocator's recorded serialization —
// a sequential replay of the log reproduces the admitted set, per-class
// counters and residual overlay exactly.
func TestConcurrentAdmitRPCMatchesSequentialReplay(t *testing.T) {
	const (
		clients   = 8
		perClient = 90 // 720 operations total
	)
	sc := testScenario(t, 9)
	admOpts := provision.AllocatorOptions{
		Classes: 3,
		Quotas:  []int{30, 0, 0},
		Preempt: true,
	}
	srv := startServer(t, sc, Options{Routing: Routing{Workers: 1}, Admission: admOpts})

	algs := []string{"heuristic", "fixed", "random"}
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			var mine []uint64
			for i := 0; i < perClient; i++ {
				if len(mine) > 0 && rng.Intn(4) == 0 {
					k := rng.Intn(len(mine))
					if _, err := c.Release(mine[k]); err != nil {
						t.Errorf("client %d: release: %v", g, err)
						return
					}
					// An in-band error is fine: the ticket may have been
					// preempted by another client's class-2 admission.
					mine = append(mine[:k], mine[k+1:]...)
					continue
				}
				resp, err := c.Admit(algs[rng.Intn(len(algs))], sc.Req, sc.SourceNID,
					int64(20+rng.Intn(120)), rng.Intn(3), 0)
				if err != nil {
					t.Errorf("client %d: admit transport: %v", g, err)
					return
				}
				if resp.Err == "" {
					mine = append(mine, resp.Ticket)
				}
			}
		}(g)
	}
	wg.Wait()

	alloc := mustAllocator(t, srv)
	log := alloc.Log()
	if len(log) < 500 {
		t.Fatalf("log has %d events, want >= 500", len(log))
	}

	seq, err := provision.Replay(sc.Overlay, admOpts, log,
		func(ev provision.Event) provision.Algorithm {
			alg, err := admissionAlgorithm(ev.Tag)
			if err != nil {
				t.Fatalf("log event with unknown algorithm tag %q", ev.Tag)
			}
			return alg
		})
	if err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
	if got, want := alloc.Tenants(), seq.Tenants(); !reflect.DeepEqual(got, want) {
		t.Fatalf("tenants diverge:\nlive %+v\n seq %+v", got, want)
	}
	if got, want := alloc.ClassCounters(), seq.ClassCounters(); !reflect.DeepEqual(got, want) {
		t.Fatalf("class counters diverge:\nlive %+v\n seq %+v", got, want)
	}
	if got, want := sortedOverlayLinks(alloc.Residual()), sortedOverlayLinks(seq.Residual()); !reflect.DeepEqual(got, want) {
		t.Fatalf("residual overlays diverge")
	}

	// The tenants RPC reports the same final state.
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tr, err := c.Tenants()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Tenants, alloc.Tenants()) {
		t.Fatalf("tenants RPC diverges from allocator:\nrpc  %+v\nlive %+v", tr.Tenants, alloc.Tenants())
	}
	if !reflect.DeepEqual(tr.Classes, alloc.ClassCounters()) {
		t.Fatalf("classes RPC diverges from allocator")
	}
}

// Admissions account against the boot overlay independent of epoch
// mutations: an epoch change must not disturb admitted reservations.
func TestAdmissionIndependentOfEpochMutations(t *testing.T) {
	sc := testScenario(t, 3)
	srv := startServer(t, sc, Options{Routing: Routing{Workers: 1}})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Admit("heuristic", sc.Req, sc.SourceNID, 40, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" {
		t.Fatalf("admit: %s", resp.Err)
	}
	before := sortedOverlayLinks(mustAllocator(t, srv).Residual())

	// Mutate the served overlay: a fresh epoch publishes.
	links := sc.Overlay.Links()
	mr, err := c.Mutate(Mutation{Kind: MutRemoveLink, From: links[0].From, To: links[0].To})
	if err != nil {
		t.Fatal(err)
	}
	if mr.Err != "" {
		t.Fatalf("mutate: %s", mr.Err)
	}
	if got := sortedOverlayLinks(mustAllocator(t, srv).Residual()); !reflect.DeepEqual(got, before) {
		t.Fatal("epoch mutation leaked into the admission residual")
	}
	// And the tenant is still admitted.
	tr, err := c.Tenants()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Tenants) != 1 {
		t.Fatalf("tenants after mutation = %+v", tr.Tenants)
	}
}
