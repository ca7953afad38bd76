package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"sflow"
	"sflow/internal/daemon"
)

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for q, want := range map[float64]float64{0: 10, 0.5: 30, 0.9: 46, 1: 50} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%g) = %g, want %g", q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %g, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %g, want 5", got)
	}
}

func TestRelGapFollowsDirection(t *testing.T) {
	if got := relGap(100, 110, "lower"); got != 0.1 {
		t.Errorf("lower-is-better gap = %g, want 0.1", got)
	}
	if got := relGap(100, 90, "higher"); got != 0.1 {
		t.Errorf("higher-is-better gap = %g, want 0.1", got)
	}
	if got := relGap(100, 90, "lower"); got >= 0 {
		t.Errorf("an improvement reads as gap %g", got)
	}
}

// A parent with two children, one of which has a child of its own and one of
// which runs past the parent's end.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "shadow", Start: 100, End: 200, Parent: -1},
		{Name: "handle", Start: 110, End: 150, Parent: 0},
		{Name: "solve", Start: 120, End: 140, Parent: 1},
		{Name: "encode", Start: 190, End: 230, Parent: 0},
		{Name: "request", Start: 0, End: 90, Parent: -1},
	}
	want := []int64{100 - 40 - 10, 40 - 20, 20, 40, 90}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := tracer{t0: time.Now()}
	root := tr.begin("shadow", -1, 7)
	child := tr.begin("reduce.solve", root, 7)
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Request != 7 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if c, r := tr.spans[child], tr.spans[root]; c.Start < r.Start || c.End > r.End || c.End < c.Start {
		t.Errorf("child %+v does not nest in %+v", c, r)
	}
}

func TestOverSlicesIsTheMedianOfSlices(t *testing.T) {
	leg := &legResult{slices: make([]windowSlice, 4)}
	for i, lat := range [][]float64{{10}, {500, 700}, {30}, nil} {
		leg.slices[i].lat[opSolve] = lat
	}
	got := leg.overSlices(func(sl *windowSlice) (float64, bool) {
		xs := sl.lat[opSolve]
		return quantile(sortedCopy(xs), 0.5), len(xs) > 0
	})
	if got != 30 {
		t.Errorf("overSlices = %g, want 30: the stalled slice and the empty slice must not move it", got)
	}
}

// sequences builds the plan twice per seed and fingerprints it.
func sequences(t *testing.T, def *workloadDef, seed int64) string {
	t.Helper()
	conns := 1
	if def.Open {
		conns = 2
	}
	p, err := buildPlan(def, seed, conns, 0.5)
	if err != nil {
		t.Fatalf("%s seed %d: %v", def.Name, seed, err)
	}
	h, err := p.sequenceHash(200)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestSameSeedSameSequence(t *testing.T) {
	for i := range workloads {
		def := &workloads[i]
		a, b, c := sequences(t, def, 3), sequences(t, def, 3), sequences(t, def, 4)
		if a != b {
			t.Errorf("%s: seed 3 gave two different request sequences", def.Name)
		}
		if a == c {
			t.Errorf("%s: seeds 3 and 4 gave the same request sequence", def.Name)
		}
	}
}

// Every seed sends the same mix: a deck holds each entry exactly as often as
// its weight says.
func TestDeckStreamDealsExactShares(t *testing.T) {
	p, err := buildPlan(findWorkload("solve-hot"), 9, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	next := p.stream(0)
	counts := make([]int, len(p.pool))
	deck := 4 * (len(p.pool) - 1) // 3 DAG requests for every chain
	for i := 0; i < 5*deck; i++ {
		o, _ := next()
		counts[o.pool]++
	}
	if counts[0] != 5*deck*3/4 {
		t.Errorf("the DAG was %d of %d requests, want exactly 3 in 4", counts[0], 5*deck)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] != 5 {
			t.Errorf("chain %d was dealt %d times in 5 decks, want 5", i, counts[i])
		}
	}
}

func TestLazyLargePoolInvariants(t *testing.T) {
	p, err := buildPlan(findWorkload("lazy-large"), 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.pool) < 5 {
		t.Fatalf("pool of %d requirements, want at least 5", len(p.pool))
	}
	union := map[int]bool{}
	for i := range p.pool {
		rows := p.readSet(i)
		if len(rows) > 7 {
			t.Errorf("requirement %d reads %d rows, want at most 7", i, len(rows))
		}
		for _, r := range rows {
			union[r] = true
		}
	}
	if len(union) != 25 || len(union) <= lazyMaxRows {
		t.Errorf("the pool reads %d rows in union, want 25 and more than -max-rows %d", len(union), lazyMaxRows)
	}
	if got := len(p.readSet(lazyFirst)); got != 7 {
		t.Errorf("set-up's requirement reads %d rows, want 7 so that setup_s covers cold rows", got)
	}
}

// Each churn perturbation is undone by the batch after it, so the mirror
// overlay is back at boot after every pair.
func TestChurnPairsRestoreTheOverlay(t *testing.T) {
	p, err := buildPlan(findWorkload("churn-eager"), 5, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sess := sflow.NewSession(p.sc.Overlay, sflow.SessionOptions{Workers: 1})
	kinds := map[string]int{}
	next := p.stream(0)
	batches := 0
	for o, ok := next(); ok; o, ok = next() {
		if o.kind != opMutate {
			continue
		}
		for _, m := range o.req.Mutations {
			kinds[m.Kind]++
			if err := applyMutation(sess.Session, m); err != nil {
				t.Fatalf("batch %d: %v", batches, err)
			}
		}
		batches++
		if batches%2 == 0 {
			got, want := sess.Overlay().Links(), p.sc.Overlay.Links()
			if !reflect.DeepEqual(got, want) || sess.Overlay().NumInstances() != p.sc.Overlay.NumInstances() {
				t.Fatalf("after %d batches the overlay is not the boot overlay again", batches)
			}
		}
	}
	if batches < 12 || len(p.answers) != batches+1 {
		t.Fatalf("%d batches, %d oracle answers", batches, len(p.answers))
	}
	for _, k := range []string{daemon.MutGrowBandwidth, daemon.MutReduceBandwidth, daemon.MutAddLink,
		daemon.MutRemoveLink, daemon.MutAddInstance, daemon.MutRemoveInstance} {
		if kinds[k] == 0 {
			t.Errorf("no %s mutation in %d batches", k, batches)
		}
	}
}

// fakeClock advances only when told to; Sleep overshoots by a fixed slack.
type fakeClock struct {
	now       time.Duration
	overshoot time.Duration
}

func (f *fakeClock) Now() time.Duration { return f.now }
func (f *fakeClock) Sleep(d time.Duration) {
	f.now += d + f.overshoot
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const ms = time.Millisecond
	clk := &fakeClock{overshoot: 1 * ms}
	mutate := func(due time.Duration) op {
		return op{kind: opMutate, pool: -1, due: due, req: &daemon.Request{Op: daemon.OpMutate, Mutations: make([]daemon.Mutation, 1)}}
	}
	p := &plan{def: &workloadDef{Open: true}, conns: 1,
		stream: sliceStreams([][]op{{mutate(10 * ms), mutate(20 * ms), mutate(30 * ms), mutate(100 * ms)}})}
	epoch := uint64(1)
	c := &conn{p: p, clk: clk, base: 1, warmEnd: 15 * ms, end: 200 * ms}
	c.send = func(*daemon.Request) (*daemon.Response, error) {
		clk.now += 15 * ms // the service time
		epoch++
		return &daemon.Response{Epoch: epoch}, nil
	}
	c.runOpen()

	// Due 10: before the window. Due 20: the connection is busy until 26, so
	// it is sent then, not late, and done at 41. Due 30: sent at 41, done at
	// 56. Due 100: the sleep from 56 overshoots by 1, done at 116.
	if c.attempted != 3 || c.faults != 0 || len(c.samples) != 3 {
		t.Fatalf("attempted %d faults %d samples %d, want 3 0 3 (%v)", c.attempted, c.faults, len(c.samples), c.failures)
	}
	wantLat := []time.Duration{21 * ms, 26 * ms, 16 * ms}
	wantLate := []int64{0, 0, int64(1 * ms)}
	for i, sm := range c.samples {
		if sm.lat != wantLat[i] {
			t.Errorf("op %d latency %v, want %v", i, sm.lat, wantLat[i])
		}
		if c.late[i] != wantLate[i] {
			t.Errorf("op %d fired %v late, want %v", i, time.Duration(c.late[i]), time.Duration(wantLate[i]))
		}
	}
	if lat, late := openTiming(20*ms, 26*ms, 41*ms, 26*ms); lat != 21*ms || late != 0 {
		t.Errorf("openTiming = %v, %v", lat, late)
	}
}

func TestClosedLoopWindowMembership(t *testing.T) {
	const ms = time.Millisecond
	clk := &fakeClock{}
	p := &plan{def: &workloadDef{}, conns: 1, pool: []poolEntry{{want: []byte("f")}}, static: true}
	p.stream = func(int) func() (op, bool) {
		return func() (op, bool) { return op{kind: opSolve, req: &daemon.Request{Op: daemon.OpSolve}}, true }
	}
	c := &conn{p: p, clk: clk, warmEnd: 10 * ms, end: 30 * ms}
	c.send = func(*daemon.Request) (*daemon.Response, error) {
		clk.now += 4 * ms
		return &daemon.Response{Epoch: 1, Flow: []byte("f")}, nil
	}
	c.runClosed()
	// Starts at 0, 4, 8 are warm-up; 12, 16, 20, 24, 28 are in the window.
	if c.attempted != 5 || len(c.samples) != 5 || c.sent[opSolve] != 8 {
		t.Errorf("attempted %d samples %d sent %d, want 5 5 8", c.attempted, len(c.samples), c.sent[opSolve])
	}
}

func TestWrongAnswersFail(t *testing.T) {
	p := &plan{def: &workloadDef{}, pool: []poolEntry{{want: []byte("right")}}, static: true}
	c := &conn{p: p, clk: &fakeClock{}}
	c.send = func(*daemon.Request) (*daemon.Response, error) {
		return &daemon.Response{Epoch: 1, Flow: []byte("wrong")}, nil
	}
	if c.do(op{kind: opSolve, req: &daemon.Request{}}) || c.faults != 1 {
		t.Errorf("a flow that differs from the stateless solve passed")
	}
	c.send = func(*daemon.Request) (*daemon.Response, error) { return &daemon.Response{Epoch: 1, Err: "boom"}, nil }
	if c.do(op{kind: opSolve, req: &daemon.Request{}}) {
		t.Errorf("an unexpected Response.Err passed")
	}
}

func TestParseProcStat(t *testing.T) {
	// The command holds spaces and a parenthesis; utime 1234 and stime 566.
	const stat = "4242 (sflowd (v2) x) S 1 4242 4242 0 -1 4194304 901 0 0 0 1234 566 0 0 20 0 9 0 88 1267 2 1 0"
	got, err := parseProcStat(stat)
	if err != nil || got != 18.0 {
		t.Errorf("parseProcStat = %g, %v; want 18 s", got, err)
	}
	for _, bad := range []string{"", "12 sflowd S 1", "12 (sflowd) S 1 2 3"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) passed", bad)
		}
	}
}

func TestParseProcStatus(t *testing.T) {
	const status = "Name:\tsflowd\nVmPeak:\t 1234 kB\nVmHWM:\t  20480 kB\nVmRSS:\t   10240 kB\nThreads:\t9\n"
	hwm, rss, err := parseProcStatus(status)
	if err != nil || hwm != 20 || rss != 10 {
		t.Errorf("parseProcStatus = %g, %g, %v; want 20, 10", hwm, rss, err)
	}
	if _, _, err := parseProcStatus("Name:\tsflowd\nVmRSS:\t 1 kB\n"); err == nil {
		t.Error("a status without VmHWM passed")
	}
}

func TestParseCounters(t *testing.T) {
	dump := "sflowd: shutting down\ncounter daemon_solves_total 1401\ncounter alloc_admitted_total{class=\"1\"} 7\nhistogram x count=0\n"
	got := parseCounters(dump)
	if got["daemon_solves_total"] != 1401 || got[`alloc_admitted_total{class="1"}`] != 7 || len(got) != 2 {
		t.Errorf("parseCounters = %v", got)
	}
}

func TestCrossCheckNamesTheCounterThatDiffers(t *testing.T) {
	c := &conn{}
	c.sent[opSolve], c.mutations, c.granted, c.released = 10, 4, 3, 2
	counters := map[string]int64{"daemon_solves_total": 10, "daemon_mutations_total": 4, "daemon_admits_total": 3, "daemon_releases_total": 2}
	if problems := crossCheck(counters, []*conn{c}); len(problems) != 0 {
		t.Errorf("matching counters reported %v", problems)
	}
	counters["daemon_admits_total"] = 5
	if problems := crossCheck(counters, []*conn{c}); len(problems) != 1 {
		t.Errorf("a differing counter reported %v", problems)
	}
}

// A granted flow must ride routes of the boot overlay at a width between the
// demand and the route's.
func TestValidGrant(t *testing.T) {
	sc, err := sflow.GenerateScenario(sflow.ScenarioConfig{Seed: scenarioSeed, NetworkSize: 20, Services: 5,
		InstancesPerService: 3, Kind: sflow.KindGeneral})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := sflow.Solve("heuristic", sc.Overlay, sc.Req, sc.SourceNID, sflow.SolveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(sol.Flow)
	if err != nil {
		t.Fatal(err)
	}
	if err := validGrant(grant{demand: 10, flow: data}, sc.Req, sc.Overlay); err != nil {
		t.Errorf("the stateless flow is no valid grant: %v", err)
	}
	if err := validGrant(grant{demand: 1 << 40, flow: data}, sc.Req, sc.Overlay); err == nil {
		t.Error("a flow narrower than its demand passed")
	}
	chain, err := sflow.PathRequirement(sc.Req.Source(), sc.Req.Downstream(sc.Req.Source())[0])
	if err != nil {
		t.Fatal(err)
	}
	part, err := sflow.Solve("heuristic", sc.Overlay, chain, sc.SourceNID, sflow.SolveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if data, err = json.Marshal(part.Flow); err != nil {
		t.Fatal(err)
	}
	if err := validGrant(grant{demand: 10, flow: data}, sc.Req, sc.Overlay); err == nil {
		t.Error("a flow that leaves requirement edges out passed")
	}
	if err := validGrant(grant{demand: 10, flow: []byte("{")}, sc.Req, sc.Overlay); err == nil {
		t.Error("a flow that does not decode passed")
	}
}

// benchmarkJSON mirrors the keys of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the harness defaults to %g", b.RunSeconds, runSeconds)
	}
	if len(b.Workloads) != len(workloads) || len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; spec.go %d, %d and %d",
			len(b.Workloads), len(b.EndToEnd), len(b.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go %q", i, b.Workloads[i].Name, w.Name)
		}
	}
	for i, m := range endToEnd {
		if g := b.EndToEnd[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, spec.go %+v", i, g, m)
		}
	}
	for i, m := range perLayer {
		if g := b.PerLayer[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, spec.go %+v", i, g, m)
		}
	}
}

// The limits the driver puts on names, units and lines.
func TestSpecWithinTheDriversLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why of %d characters", w.Name, len(w.Why))
		}
	}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			check(m.Name)
			if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
			}
		}
	}
	largest := 0.0
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = max(largest, m.Bound)
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Bound != largest {
		t.Errorf("setup_s must come with the largest bound")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) > 8 {
		t.Errorf("too many entries")
	}
}
