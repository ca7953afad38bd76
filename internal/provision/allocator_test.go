package provision

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"sflow/internal/abstract"
	"sflow/internal/flow"
	"sflow/internal/metrics"
	"sflow/internal/overlay"
	"sflow/internal/qos"
	"sflow/internal/reduce"
	"sflow/internal/require"
	"sflow/internal/scenario"
)

// heuristicAlg adapts the deterministic reduction heuristic to the Algorithm
// shape, building its abstract graph from scratch; the oracle tests depend
// on its determinism.
func heuristicAlg(ov *overlay.Overlay, req *require.Requirement, src int) (*flow.Graph, qos.Metric, error) {
	ag, err := abstract.Build(ov, req)
	if err != nil {
		return nil, qos.Unreachable, err
	}
	return heuristicPlace(ag, src)
}

// heuristicPlace is heuristicAlg without its graph build: the placement an
// allocator's Placement binds to the maintained residual table.
func heuristicPlace(ag *abstract.Graph, src int) (*flow.Graph, qos.Metric, error) {
	r, err := reduce.Solve(ag, src, nil)
	if err != nil {
		return nil, qos.Unreachable, err
	}
	return r.Flow, r.Metric, nil
}

// sortedLinks canonicalizes an overlay's link set for byte-level comparison.
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

// --- regression tests for the Manager bugfixes -----------------------------

// An uninstrumented NewManager must reject without panicking (the metrics
// registry is nil-safe by convention; reject relies on it), and every
// rejection must carry a typed machine-readable reason.
func TestRejectionTypedWithoutMetrics(t *testing.T) {
	o, req := chainOverlay(t)
	m := NewManager(o, nil) // no registry: nil *metrics.Registry throughout

	// Bandwidth rejection: no link is 200 wide.
	_, err := m.Admit(req, 10, 200, optimalAlg)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	var aerr *AdmissionError
	if !errors.As(err, &aerr) || aerr.Reason != ReasonBandwidth {
		t.Fatalf("err = %#v, want *AdmissionError{ReasonBandwidth}", err)
	}

	// Compute rejection: saturate the source instance's compute capacity.
	m2 := NewManager(o, nil)
	m2.SetInstanceCapacity(1)
	if _, err := m2.Admit(req, 10, 10, optimalAlg); err != nil {
		t.Fatal(err)
	}
	_, err = m2.Admit(req, 10, 10, optimalAlg)
	if !errors.As(err, &aerr) || aerr.Reason != ReasonCompute {
		t.Fatalf("err = %v, want *AdmissionError{ReasonCompute}", err)
	}

	// No-flow rejection: saturate both links away entirely.
	m3 := NewManager(o, nil)
	if _, err := m3.Admit(req, 10, 100, optimalAlg); err != nil {
		t.Fatal(err)
	}
	if _, err := m3.Admit(req, 10, 60, optimalAlg); err != nil {
		t.Fatal(err)
	}
	_, err = m3.Admit(req, 10, 1, optimalAlg)
	if !errors.As(err, &aerr) || aerr.Reason != ReasonNoFlow {
		t.Fatalf("err = %v, want *AdmissionError{ReasonNoFlow}", err)
	}
}

// Admitted snapshots must not alias live reservation state: releasing a
// snapshot copy has to fail and must not corrupt the books.
func TestAdmittedSnapshotsCarryNoReservations(t *testing.T) {
	o, req := chainOverlay(t)
	m := NewManager(o, nil)
	a, err := m.Admit(req, 10, 40, optimalAlg)
	if err != nil {
		t.Fatal(err)
	}
	snaps := m.Admitted()
	if len(snaps) != 1 {
		t.Fatalf("admitted = %d, want 1", len(snaps))
	}
	if err := m.Release(&snaps[0]); err == nil {
		t.Fatal("releasing an Admitted() snapshot succeeded; snapshots alias live reservations")
	}
	// The failed snapshot release must not have touched the residual.
	if mtr, _ := m.Residual().LinkMetric(10, 20); mtr.Bandwidth != 60 {
		t.Fatalf("snapshot release mutated residual: %+v", mtr)
	}
	// The live admission still releases exactly once.
	if err := m.Release(a); err != nil {
		t.Fatal(err)
	}
	if mtr, _ := m.Residual().LinkMetric(10, 20); mtr.Bandwidth != 100 {
		t.Fatalf("residual after live release = %+v", mtr)
	}
}

// restore must be the exact inverse of Release, byte for byte: the
// preemption rollback path depends on it.
func TestRestoreInvertsRelease(t *testing.T) {
	o, req := chainOverlay(t)
	m := NewManager(o, nil)
	m.SetInstanceCapacity(4)
	a, err := m.Admit(req, 10, 100, optimalAlg) // saturates 10->20 away
	if err != nil {
		t.Fatal(err)
	}
	want := sortedLinks(m.Residual())
	wantBW := m.reservedBW
	wantLoad := m.InstanceLoad(10)
	if err := m.Release(a); err != nil {
		t.Fatal(err)
	}
	if err := m.restore(a); err != nil {
		t.Fatal(err)
	}
	if got := sortedLinks(m.Residual()); !reflect.DeepEqual(got, want) {
		t.Fatalf("restore drifted:\n got %+v\nwant %+v", got, want)
	}
	if m.reservedBW != wantBW || m.InstanceLoad(10) != wantLoad {
		t.Fatalf("books drifted: bw=%d load=%d", m.reservedBW, m.InstanceLoad(10))
	}
	// A restored admission is live again: normal release works.
	if err := m.Release(a); err != nil {
		t.Fatal(err)
	}
	// Restoring an un-released admission is rejected.
	b, err := m.Admit(req, 10, 10, optimalAlg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.restore(b); err == nil {
		t.Fatal("restore of a live admission accepted")
	}
}

// --- allocator unit tests --------------------------------------------------

func TestAllocatorAdmitReleaseLifecycle(t *testing.T) {
	o, req := chainOverlay(t)
	reg := metrics.New()
	a := NewAllocator(o, AllocatorOptions{Classes: 2, Metrics: reg})
	defer a.Close()

	tk, err := a.Admit(AdmitRequest{Req: req, Src: 10, Demand: 40, Class: 1, Tag: "t1", Alg: optimalAlg})
	if err != nil {
		t.Fatal(err)
	}
	if tk.ID != 1 || tk.Class != 1 || tk.Flow == nil {
		t.Fatalf("ticket = %+v", tk)
	}
	tenants := a.Tenants()
	if len(tenants) != 1 || tenants[0].Ticket != 1 || tenants[0].Tag != "t1" {
		t.Fatalf("tenants = %+v", tenants)
	}
	if u := a.Utilization(); u != 25 { // 40 of 160 aggregate
		t.Fatalf("utilization = %d, want 25", u)
	}
	if err := a.Release(tk.ID); err != nil {
		t.Fatal(err)
	}
	if err := a.Release(tk.ID); err == nil {
		t.Fatal("double release accepted")
	}
	cc := a.ClassCounters()
	if cc[1].Admitted != 1 || cc[1].Released != 1 || cc[1].Active != 0 {
		t.Fatalf("class 1 counters = %+v", cc[1])
	}
	log := a.Log()
	if len(log) != 2 || log[0].Kind != EventAdmit || log[1].Kind != EventRelease {
		t.Fatalf("log = %+v", log)
	}
	a.Close()
	if _, err := a.Admit(AdmitRequest{Req: req, Src: 10, Demand: 1, Alg: optimalAlg}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close admit err = %v, want ErrClosed", err)
	}
}

func TestAllocatorQuotaThrottling(t *testing.T) {
	o, req := chainOverlay(t)
	a := NewAllocator(o, AllocatorOptions{Classes: 2, Quotas: []int{1}})
	defer a.Close()
	if _, err := a.Admit(AdmitRequest{Req: req, Src: 10, Demand: 10, Alg: optimalAlg}); err != nil {
		t.Fatal(err)
	}
	_, err := a.Admit(AdmitRequest{Req: req, Src: 10, Demand: 10, Alg: optimalAlg})
	var aerr *AdmissionError
	if !errors.As(err, &aerr) || aerr.Reason != ReasonQuota {
		t.Fatalf("err = %v, want *AdmissionError{ReasonQuota}", err)
	}
	if aerr.Class != 0 {
		t.Fatalf("rejection class = %d, want 0", aerr.Class)
	}
	// Class 1 has no quota: still admitted.
	if _, err := a.Admit(AdmitRequest{Req: req, Src: 10, Demand: 10, Class: 1, Alg: optimalAlg}); err != nil {
		t.Fatal(err)
	}
	cc := a.ClassCounters()
	if cc[0].Rejected != 1 || cc[0].Active != 1 || cc[1].Active != 1 {
		t.Fatalf("counters = %+v", cc)
	}
}

func TestAllocatorRequestValidation(t *testing.T) {
	o, req := chainOverlay(t)
	a := NewAllocator(o, AllocatorOptions{Classes: 2})
	defer a.Close()
	for _, r := range []AdmitRequest{
		{Req: req, Src: 10, Demand: 10, Class: 2, Alg: optimalAlg},  // class out of range
		{Req: req, Src: 10, Demand: 10, Class: -1, Alg: optimalAlg}, // negative class
		{Req: req, Src: 10, Demand: 10, TTL: -time.Second, Alg: optimalAlg},
		{Req: req, Src: 10, Demand: 10}, // no algorithm
	} {
		_, err := a.Admit(r)
		if err == nil {
			t.Fatalf("request %+v accepted", r)
		}
		if errors.Is(err, ErrRejected) {
			t.Fatalf("request %+v rejected (%v), want a plain validation error", r, err)
		}
	}
	// Validation failures are not recorded: the log stays replayable.
	if log := a.Log(); len(log) != 0 {
		t.Fatalf("validation failures logged: %+v", log)
	}
}

// A high-priority request evicts strictly-lower-class tenants, lowest class
// first and youngest first, until it fits.
func TestAllocatorPreemption(t *testing.T) {
	o, req := chainOverlay(t)
	a := NewAllocator(o, AllocatorOptions{Classes: 3, Preempt: true})
	defer a.Close()
	v1, err := a.Admit(AdmitRequest{Req: req, Src: 10, Demand: 100, Class: 0, Alg: optimalAlg})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := a.Admit(AdmitRequest{Req: req, Src: 10, Demand: 60, Class: 0, Alg: optimalAlg})
	if err != nil {
		t.Fatal(err)
	}
	// Demand 80 only fits on the 100-wide link held by v1; the youngest
	// victim v2 is evicted first (not enough), then v1.
	hi, err := a.Admit(AdmitRequest{Req: req, Src: 10, Demand: 80, Class: 2, Alg: optimalAlg})
	if err != nil {
		t.Fatalf("preempting admission rejected: %v", err)
	}
	log := a.Log()
	last := log[len(log)-1]
	if want := []uint64{v2.ID, v1.ID}; !reflect.DeepEqual(last.Preempted, want) {
		t.Fatalf("preempted = %v, want %v", last.Preempted, want)
	}
	tenants := a.Tenants()
	if len(tenants) != 1 || tenants[0].Ticket != hi.ID {
		t.Fatalf("tenants = %+v", tenants)
	}
	cc := a.ClassCounters()
	if cc[0].Preempted != 2 || cc[0].Active != 0 || cc[2].Admitted != 1 {
		t.Fatalf("counters = %+v", cc)
	}
}

// When even full eviction cannot fit the request, every victim is restored
// byte-identically and the request is rejected.
func TestAllocatorPreemptionRollback(t *testing.T) {
	o, req := chainOverlay(t)
	a := NewAllocator(o, AllocatorOptions{Classes: 2, Preempt: true})
	defer a.Close()
	if _, err := a.Admit(AdmitRequest{Req: req, Src: 10, Demand: 70, Class: 0, Alg: optimalAlg}); err != nil {
		t.Fatal(err)
	}
	wantTenants := a.Tenants()
	wantLinks := sortedLinks(a.Residual())
	// Demand 200 does not fit even on the pristine overlay.
	_, err := a.Admit(AdmitRequest{Req: req, Src: 10, Demand: 200, Class: 1, Alg: optimalAlg})
	var aerr *AdmissionError
	if !errors.As(err, &aerr) {
		t.Fatalf("err = %v, want *AdmissionError", err)
	}
	if aerr.Class != 1 {
		t.Fatalf("rejection class = %d, want 1", aerr.Class)
	}
	if got := a.Tenants(); !reflect.DeepEqual(got, wantTenants) {
		t.Fatalf("tenants after rollback = %+v, want %+v", got, wantTenants)
	}
	if got := sortedLinks(a.Residual()); !reflect.DeepEqual(got, wantLinks) {
		t.Fatalf("residual after rollback drifted:\n got %+v\nwant %+v", got, wantLinks)
	}
	cc := a.ClassCounters()
	if cc[0].Preempted != 0 || cc[0].Active != 1 || cc[1].Rejected != 1 {
		t.Fatalf("counters = %+v", cc)
	}
	// Class 0 never preempts, even with preemption enabled.
	_, err = a.Admit(AdmitRequest{Req: req, Src: 10, Demand: 100, Class: 0, Alg: optimalAlg})
	if !errors.As(err, &aerr) {
		t.Fatalf("class-0 err = %v, want rejection", err)
	}
}

// Regression: after the eviction loop fails, the rejection must come from
// the recorded attempts — never from re-running the algorithm. An extra try
// that happened to succeed (possible with a non-deterministic algorithm)
// would return a ticket while the evicted victims' tickets still sit in the
// ledger over released reservations.
func TestAllocatorPreemptionNeverRetriesAfterFailure(t *testing.T) {
	o, req := chainOverlay(t)
	a := NewAllocator(o, AllocatorOptions{Classes: 2, Preempt: true})
	defer a.Close()
	victim, err := a.Admit(AdmitRequest{Req: req, Src: 10, Demand: 100, Class: 0, Alg: optimalAlg})
	if err != nil {
		t.Fatal(err)
	}

	// Fails the pre-preemption attempt and the post-eviction trial, would
	// succeed on any further call — the shape of a non-deterministic
	// algorithm that got lucky on a retry.
	calls := 0
	flaky := func(ov *overlay.Overlay, r *require.Requirement, src int) (*flow.Graph, qos.Metric, error) {
		calls++
		if calls <= 2 {
			return nil, qos.Unreachable, errors.New("transient")
		}
		return optimalAlg(ov, r, src)
	}
	_, err = a.Admit(AdmitRequest{Req: req, Src: 10, Demand: 100, Class: 1, Alg: flaky})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("flaky admit err = %v, want rejection", err)
	}
	if calls != 2 {
		t.Fatalf("algorithm ran %d times, want exactly 2", calls)
	}
	// The victim rolled back intact: still listed, still releasable.
	if got := a.Tenants(); len(got) != 1 || got[0].Ticket != victim.ID {
		t.Fatalf("tenants after failed preemption = %+v", got)
	}
	if err := a.Release(victim.ID); err != nil {
		t.Fatalf("release of rolled-back victim: %v", err)
	}
}

func TestAllocatorTTLExpiry(t *testing.T) {
	o, req := chainOverlay(t)
	a := NewAllocator(o, AllocatorOptions{})
	defer a.Close()
	tk, err := a.Admit(AdmitRequest{Req: req, Src: 10, Demand: 40, TTL: 10 * time.Millisecond, Alg: optimalAlg})
	if err != nil {
		t.Fatal(err)
	}
	if tk.Expires.IsZero() {
		t.Fatal("TTL admission without a deadline")
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(a.Tenants()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cc := a.ClassCounters()
	if cc[0].Expired != 1 || cc[0].Released != 0 {
		t.Fatalf("counters = %+v", cc)
	}
	log := a.Log()
	if last := log[len(log)-1]; last.Kind != EventExpire || last.Ticket != tk.ID {
		t.Fatalf("last event = %+v", last)
	}
	// The expiry released the capacity.
	if mtr, _ := a.Residual().LinkMetric(10, 20); mtr.Bandwidth != 100 {
		t.Fatalf("residual after expiry = %+v", mtr)
	}
	// An explicit release after expiry is a clean error.
	if err := a.Release(tk.ID); err == nil {
		t.Fatal("release after expiry accepted")
	}
}

// --- the sequential-equivalence oracle -------------------------------------

// allocScenario builds a multi-instance scenario overlay for contention tests.
func allocScenario(t testing.TB, seed int64) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.Generate(scenario.Config{
		Seed:                seed,
		NetworkSize:         24,
		Services:            5,
		InstancesPerService: 3,
		Kind:                scenario.KindGeneral,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// replayAgainst runs the oracle: replays live's log over the pristine overlay
// and asserts the final tenants, class counters, residual overlay and
// instance loads deep-equal the live allocator's.
func replayAgainst(t *testing.T, live *Allocator, ov *overlay.Overlay, opts AllocatorOptions) {
	t.Helper()
	log := live.Log()
	seq, err := Replay(ov, opts, log, func(Event) Algorithm { return heuristicAlg })
	if err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
	if got, want := live.Tenants(), seq.Tenants(); !reflect.DeepEqual(got, want) {
		t.Fatalf("tenants diverge:\nlive %+v\n seq %+v", got, want)
	}
	if got, want := live.ClassCounters(), seq.ClassCounters(); !reflect.DeepEqual(got, want) {
		t.Fatalf("class counters diverge:\nlive %+v\n seq %+v", got, want)
	}
	if got, want := sortedLinks(live.Residual()), sortedLinks(seq.Residual()); !reflect.DeepEqual(got, want) {
		t.Fatalf("residual overlays diverge:\nlive %+v\n seq %+v", got, want)
	}
	for _, p := range ov.Instances() {
		if got, want := live.InstanceLoad(p.NID), seq.InstanceLoad(p.NID); got != want {
			t.Fatalf("instance %d load %d, want %d", p.NID, got, want)
		}
	}
}

// The acceptance-criteria oracle: >=500 mixed-class requests from >=8
// concurrent goroutines (with interleaved releases) collapse to the recorded
// serialization — replaying the log sequentially reproduces the admitted
// set, residual overlay and per-class counters exactly.
func TestConcurrentAdmissionMatchesSequentialReplay(t *testing.T) {
	const (
		goroutines   = 8
		perGoroutine = 80 // 640 operations total
	)
	sc := allocScenario(t, 7)
	opts := AllocatorOptions{
		Classes:          3,
		Quotas:           []int{24, 0, 0},
		Preempt:          true,
		InstanceCapacity: 64,
	}
	a := NewAllocator(sc.Overlay, opts)
	defer a.Close()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			var mine []uint64
			for i := 0; i < perGoroutine; i++ {
				// One release per ~4 admissions keeps capacity churning. A
				// ticket may already be gone: another worker's higher-class
				// admission can preempt it.
				if len(mine) > 0 && rng.Intn(4) == 0 {
					k := rng.Intn(len(mine))
					if err := a.Release(mine[k]); err != nil && !errors.Is(err, ErrNoTicket) {
						t.Errorf("worker %d: release %d: %v", g, mine[k], err)
						return
					}
					mine = append(mine[:k], mine[k+1:]...)
					continue
				}
				tk, err := a.Admit(AdmitRequest{
					Req:    sc.Req,
					Src:    sc.SourceNID,
					Demand: int64(20 + rng.Intn(120)),
					Class:  rng.Intn(3),
					Tag:    fmt.Sprintf("w%d.%d", g, i),
					Alg:    heuristicAlg,
				})
				if err == nil {
					mine = append(mine, tk.ID)
					continue
				}
				if !errors.Is(err, ErrRejected) {
					t.Errorf("worker %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	log := a.Log()
	if len(log) < 500 {
		t.Fatalf("log has %d events, want >= 500", len(log))
	}
	admits := 0
	for _, ev := range log {
		if ev.Kind == EventAdmit {
			admits++
		}
	}
	if admits == 0 {
		t.Fatal("no admissions at all: the stream never exercised the overlay")
	}
	replayAgainst(t, a, sc.Overlay, opts)
}

// Replay is a real oracle: a tampered log is rejected, not silently accepted.
func TestReplayDetectsDivergence(t *testing.T) {
	o, req := chainOverlay(t)
	a := NewAllocator(o, AllocatorOptions{})
	defer a.Close()
	if _, err := a.Admit(AdmitRequest{Req: req, Src: 10, Demand: 40, Alg: heuristicAlg}); err != nil {
		t.Fatal(err)
	}
	log := a.Log()
	log[0].Ticket = 99
	if _, err := Replay(o, AllocatorOptions{}, log, func(Event) Algorithm { return heuristicAlg }); err == nil {
		t.Fatal("tampered ticket ID accepted")
	}
	// A reject event that actually admits is caught too.
	log2 := a.Log()
	log2[0].Kind = EventReject
	log2[0].Reason = ReasonBandwidth
	if _, err := Replay(o, AllocatorOptions{}, log2, func(Event) Algorithm { return heuristicAlg }); err == nil {
		t.Fatal("flipped admit/reject accepted")
	}
}

// --- lossless admit/release property (satellite) ---------------------------

// Admitting then releasing any seeded sequence of requests leaves the
// residual overlay byte-identical to the pristine overlay: links, bandwidths,
// latencies, and InstanceLoad all restored.
func TestSeededAdmitReleaseIsLossless(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		sc := allocScenario(t, seed)
		pristine := sortedLinks(sc.Overlay)
		a := NewAllocator(sc.Overlay, AllocatorOptions{
			Classes: 3, Preempt: seed%2 == 0, InstanceCapacity: 32,
		})
		rng := rand.New(rand.NewSource(seed * 97))
		var live []uint64
		for i := 0; i < 60; i++ {
			tk, err := a.Admit(AdmitRequest{
				Req:    sc.Req,
				Src:    sc.SourceNID,
				Demand: int64(10 + rng.Intn(150)),
				Class:  rng.Intn(3),
				Alg:    heuristicAlg,
			})
			if err == nil {
				live = append(live, tk.ID)
			} else if !errors.Is(err, ErrRejected) {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		// Preemption may have evicted some of "ours" already; release the
		// survivors in seeded shuffle order.
		active := make(map[uint64]bool)
		for _, ti := range a.Tenants() {
			active[ti.Ticket] = true
		}
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		for _, id := range live {
			if !active[id] {
				continue
			}
			if err := a.Release(id); err != nil {
				t.Fatalf("seed %d: release %d: %v", seed, id, err)
			}
		}
		if got := sortedLinks(a.Residual()); !reflect.DeepEqual(got, pristine) {
			t.Fatalf("seed %d: residual differs from pristine:\n got %+v\nwant %+v", seed, got, pristine)
		}
		for _, p := range sc.Overlay.Instances() {
			if l := a.InstanceLoad(p.NID); l != 0 {
				t.Fatalf("seed %d: instance %d load %d after full release", seed, p.NID, l)
			}
		}
		if len(a.Tenants()) != 0 {
			t.Fatalf("seed %d: tenants remain: %+v", seed, a.Tenants())
		}
		a.Close()
	}
}

// --- admission throughput benchmark (benchjson) ----------------------------

func BenchmarkAllocatorAdmitRelease(b *testing.B) {
	sc := allocScenario(b, 7)
	a := NewAllocator(sc.Overlay, AllocatorOptions{Classes: 3})
	defer a.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk, err := a.Admit(AdmitRequest{
			Req: sc.Req, Src: sc.SourceNID, Demand: 50,
			Class: i % 3, Alg: heuristicAlg,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Release(tk.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocatorAdmitReleaseTable is BenchmarkAllocatorAdmitRelease with
// the algorithm bound to the allocator's maintained residual table: each
// admit recomputes only the rows the previous release dirtied instead of
// running abstract.Build's full all-pairs.
func BenchmarkAllocatorAdmitReleaseTable(b *testing.B) {
	sc := allocScenario(b, 7)
	a := NewAllocator(sc.Overlay, AllocatorOptions{Classes: 3})
	defer a.Close()
	alg := a.Placement(heuristicPlace)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk, err := a.Admit(AdmitRequest{
			Req: sc.Req, Src: sc.SourceNID, Demand: 50,
			Class: i % 3, Alg: alg,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Release(tk.ID); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllocatorAdmitReleaseParallel(b *testing.B) {
	sc := allocScenario(b, 7)
	a := NewAllocator(sc.Overlay, AllocatorOptions{Classes: 3})
	defer a.Close()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tk, err := a.Admit(AdmitRequest{
				Req: sc.Req, Src: sc.SourceNID, Demand: 50, Alg: heuristicAlg,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := a.Release(tk.ID); err != nil {
				b.Fatal(err)
			}
		}
	})
}
