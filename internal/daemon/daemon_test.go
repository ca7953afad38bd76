package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"sflow/internal/abstract"
	"sflow/internal/metrics"
	"sflow/internal/qos"
	"sflow/internal/reduce"
	"sflow/internal/scenario"
)

// testScenario builds a small seeded workload.
func testScenario(t testing.TB, seed int64) *scenario.Scenario {
	t.Helper()
	s, err := scenario.Generate(scenario.Config{
		Seed: seed, NetworkSize: 20, Services: 5,
		InstancesPerService: 3, Kind: scenario.KindGeneral,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// startServer builds a server over the scenario and serves it on loopback.
func startServer(t testing.TB, sc *scenario.Scenario, opts Options) *Server {
	t.Helper()
	srv := New(sc.Overlay, opts)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		srv.Close()
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func TestSolveOverTCPMatchesDirectComputation(t *testing.T) {
	sc := testScenario(t, 1)
	srv := startServer(t, sc, Options{Routing: Routing{Workers: 1}})

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Solve("heuristic", sc.Req, sc.SourceNID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" {
		t.Fatalf("solve failed: %s", resp.Err)
	}
	if resp.Epoch == 0 {
		t.Fatal("solve response carries no epoch")
	}

	// The served answer must equal the same algorithm run directly over the
	// same state.
	ap := qos.ComputeAllPairsWorkers(sc.Overlay, 1)
	ag, err := abstract.FromAllPairs(sc.Overlay, sc.Req, ap)
	if err != nil {
		t.Fatal(err)
	}
	want, err := reduce.Solve(ag, sc.SourceNID, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantFlow, err := json.Marshal(want.Flow)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Flow, wantFlow) {
		t.Fatalf("served flow %s\nwant %s", resp.Flow, wantFlow)
	}
	if resp.Metric == nil || *resp.Metric != want.Metric {
		t.Fatalf("served metric %+v, want %+v", resp.Metric, want.Metric)
	}
}

func TestMutatePublishesNewEpochAndReadsOwnWrites(t *testing.T) {
	sc := testScenario(t, 2)
	srv := startServer(t, sc, Options{Routing: Routing{Workers: 1}})

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	before, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}

	// Grow bandwidth on some existing link (kind-independent, always legal).
	links := sc.Overlay.Links()
	if len(links) == 0 {
		t.Fatal("scenario has no links")
	}
	l := links[0]
	resp, err := c.Mutate(Mutation{Kind: MutGrowBandwidth, From: l.From, To: l.To, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" {
		t.Fatalf("mutate failed: %s", resp.Err)
	}
	if resp.Epoch <= before.Epoch {
		t.Fatalf("mutation did not advance the epoch: %d then %d", before.Epoch, resp.Epoch)
	}

	// A solve on the same connection must observe at least that epoch.
	after, err := c.Solve("heuristic", sc.Req, sc.SourceNID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Epoch < resp.Epoch {
		t.Fatalf("read after write saw epoch %d, mutation published %d", after.Epoch, resp.Epoch)
	}

	// Unknown mutation kinds fail without publishing.
	bad, err := c.Mutate(Mutation{Kind: "teleport"})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Err == "" {
		t.Fatal("unknown mutation kind accepted")
	}
	if bad.Epoch != after.Epoch {
		t.Fatalf("failed mutation published an epoch: %d -> %d", after.Epoch, bad.Epoch)
	}
}

func TestRepairRemovesUnresponsiveInstances(t *testing.T) {
	sc := testScenario(t, 3)
	srv := startServer(t, sc, Options{Routing: Routing{Workers: 1}})

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Pick a non-source instance with a spare sibling.
	victim := -1
	for _, sid := range sc.Req.Services() {
		if sid == sc.Req.Source() {
			continue
		}
		if insts := sc.Overlay.InstancesOf(sid); len(insts) > 1 {
			victim = insts[0]
			break
		}
	}
	if victim < 0 {
		t.Skip("no spare instance to fail")
	}
	before, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Repair(sc.Req, sc.SourceNID, []int{victim})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Epoch <= before.Epoch {
		t.Fatal("repair did not publish a new epoch")
	}
	after, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if after.Instances != before.Instances-1 {
		t.Fatalf("repair left %d instances, want %d", after.Instances, before.Instances-1)
	}
}

func TestEpochRetirementWaitsForReaders(t *testing.T) {
	sc := testScenario(t, 4)
	srv := New(sc.Overlay, Options{Routing: Routing{Workers: 1}})
	defer srv.Close()

	// Pin the current epoch as a slow reader would.
	pinned := srv.pin()
	firstID := pinned.id

	// Publish two new epochs directly (the writer is idle; publish is
	// writer-side code and the test is the only writer here).
	srv.publish(srv.sess.Snapshot())
	srv.publish(srv.sess.Snapshot())

	if got := srv.Epoch(); got != firstID+2 {
		t.Fatalf("epoch = %d, want %d", got, firstID+2)
	}
	// The pinned epoch must survive both sweeps; the intermediate epoch
	// (published and superseded with no readers) must be gone.
	if got := srv.LiveEpochs(); got != 2 {
		t.Fatalf("live epochs = %d, want 2 (current + pinned)", got)
	}
	// The pinned epoch still answers from its frozen state.
	if want := qos.ComputeAllPairsWorkers(pinned.ov, 1); !qos.TablesEqual(pinned.ap, want) {
		t.Fatal("pinned epoch no longer matches its own overlay")
	}

	// Unpin; the next publication sweeps it away.
	unpin(pinned)
	srv.publish(srv.sess.Snapshot())
	if got := srv.LiveEpochs(); got != 1 {
		t.Fatalf("live epochs after drain = %d, want 1", got)
	}
}

func TestRetiredCounterMatchesSweeps(t *testing.T) {
	sc := testScenario(t, 5)
	reg := metrics.New()
	srv := New(sc.Overlay, Options{Routing: Routing{Workers: 1, Metrics: reg}})
	defer srv.Close()

	for i := 0; i < 4; i++ {
		srv.publish(srv.sess.Snapshot())
	}
	if got, want := srv.retiredTotal.Value(), int64(4); got != want {
		t.Fatalf("retired counter = %d, want %d", got, want)
	}
	if got, want := srv.published.Value(), int64(5); got != want {
		t.Fatalf("published counter = %d, want %d (initial + 4)", got, want)
	}
}

// lockOwner names the function that locked the mutex a contention sample was
// taken on: the innermost frame that is not a method of the lock itself.
func lockOwner(stack []string) string {
	for _, fn := range stack {
		if !strings.HasPrefix(fn, "sync.(*Mutex).") && !strings.HasPrefix(fn, "sync.(*RWMutex).") &&
			!strings.HasPrefix(fn, "internal/sync.(*Mutex).") {
			return fn
		}
	}
	return ""
}

// TestSolveReadPathAcquiresNoMutexes pins the acceptance criterion that the
// RPC read path acquires no mutex of ours: with mutex profiling at its most
// sensitive setting and many goroutines hammering Solve concurrently, the
// contention profile must not contain a single sample on a lock that sflow
// code took. (The profile records contended acquisitions; a path that takes
// no mutex can never appear in it, while the old-style "one big lock" server
// saturates it instantly under this load.) Locks the standard library takes
// on its own behalf below us are not ours to avoid: encoding/json draws its
// encoder state from a sync.Pool, whose slow path locks a package-level
// mutex in sync and does show up here now and then.
func TestSolveReadPathAcquiresNoMutexes(t *testing.T) {
	sc := testScenario(t, 6)
	srv := New(sc.Overlay, Options{Routing: Routing{Workers: 1, Metrics: metrics.New()}})
	defer srv.Close()

	// Warm up once so lazy initialisation (JSON type caches and friends)
	// does not count against the steady-state path.
	if _, err := srv.Handle(&Request{Op: OpSolve, Algorithm: "heuristic", Requirement: sc.Req, Source: sc.SourceNID}); err != nil {
		t.Fatal(err)
	}

	old := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(old)

	const goroutines, iters = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				out, err := srv.Handle(&Request{Op: OpSolve, Algorithm: "heuristic", Requirement: sc.Req, Source: sc.SourceNID})
				if err != nil || out.(*Response).Err != "" {
					panic(fmt.Sprintf("solve failed: %v %v", err, out))
				}
			}
		}()
	}
	wg.Wait()

	n, _ := runtime.MutexProfile(nil)
	records := make([]runtime.BlockProfileRecord, n+64)
	n, ok := runtime.MutexProfile(records)
	if !ok {
		t.Fatal("mutex profile grew while it was read")
	}
	for _, rec := range records[:n] {
		var stack []string
		for frames := runtime.CallersFrames(rec.Stack()); ; {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		onReadPath := slices.ContainsFunc(stack, func(fn string) bool {
			return strings.HasSuffix(fn, "daemon.(*Server).solve") || strings.HasSuffix(fn, "daemon.(*Server).pin") ||
				strings.HasSuffix(fn, "abstract.FromAllPairs") || strings.HasSuffix(fn, "reduce.Solve")
		})
		if owner := lockOwner(stack); onReadPath && strings.HasPrefix(owner, "sflow/") {
			t.Fatalf("mutex contention on the read path, on a lock taken by %s:\n%s", owner, strings.Join(stack, "\n"))
		}
	}
}

// TestLockOwner pins the judgement the test above rests on, on the two
// stacks that matter: the standard library's pool lock under our solve path
// (not ours) and a lock our own code takes (ours).
func TestLockOwner(t *testing.T) {
	pool := []string{
		"internal/sync.(*Mutex).Unlock", "sync.(*Mutex).Unlock", "sync.(*Pool).pinSlow", "sync.(*Pool).pin",
		"sync.(*Pool).Get", "encoding/json.newEncodeState", "encoding/json.Marshal",
		"sflow/internal/daemon.(*Server).solve", "sflow/internal/daemon.(*Server).Handle",
	}
	if got := lockOwner(pool); got != "sync.(*Pool).pinSlow" {
		t.Fatalf("owner of the pool lock = %q", got)
	}
	ours := []string{"sync.(*Mutex).Unlock", "sflow/internal/metrics.(*Registry).Counter", "sflow/internal/daemon.(*Server).solve"}
	if got := lockOwner(ours); got != "sflow/internal/metrics.(*Registry).Counter" {
		t.Fatalf("owner of our lock = %q", got)
	}
	if got := lockOwner([]string{"runtime.unlock", "runtime.chansend", "sflow/internal/daemon.(*Server).solve"}); got != "runtime.unlock" {
		t.Fatalf("owner of a runtime lock = %q", got)
	}
}

// TestConcurrentClientsUnderChurn is the package-level race smoke: many TCP
// clients solving while another client streams mutations. Run with -race in
// `make check`; correctness of the answers is pinned by the root-level
// equivalence battery.
func TestConcurrentClientsUnderChurn(t *testing.T) {
	sc := testScenario(t, 7)
	srv := startServer(t, sc, Options{Routing: Routing{Workers: 1}})

	links := sc.Overlay.Links()
	if len(links) < 2 {
		t.Skip("not enough links to churn")
	}

	const clients, calls = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients+1)

	wg.Add(1)
	go func() { // writer client
		defer wg.Done()
		c, err := Dial(srv.Addr())
		if err != nil {
			errs <- err
			return
		}
		defer c.Close()
		for i := 0; i < calls; i++ {
			l := links[i%len(links)]
			delta := int64(1)
			kind := MutGrowBandwidth
			if i%2 == 1 {
				kind = MutReduceBandwidth
			}
			if _, err := c.Mutate(Mutation{Kind: kind, From: l.From, To: l.To, Delta: delta}); err != nil {
				errs <- err
				return
			}
		}
	}()
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() { // reader clients
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			lastEpoch := uint64(0)
			for i := 0; i < calls; i++ {
				resp, err := c.Solve("heuristic", sc.Req, sc.SourceNID)
				if err != nil {
					errs <- err
					return
				}
				if resp.Epoch < lastEpoch {
					errs <- fmt.Errorf("epoch went backwards: %d then %d", lastEpoch, resp.Epoch)
					return
				}
				lastEpoch = resp.Epoch
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
