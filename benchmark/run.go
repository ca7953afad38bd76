package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"sflow"
	"sflow/internal/daemon"
	"sflow/internal/flow"
)

// clock is what the load loops read time from; tests substitute a fake.
type clock interface {
	// Now is the time since the start of warm-up.
	Now() time.Duration
	Sleep(d time.Duration)
}

type wallClock struct{ start time.Time }

func (w wallClock) Now() time.Duration { return time.Since(w.start) }

// Sleep sleeps all but the last sleepSlack of d and yields through the rest:
// a sleeping thread wakes about a millisecond late on this kind of machine,
// which is the size of the latencies the open loops measure.
func (w wallClock) Sleep(d time.Duration) {
	deadline := time.Now().Add(d)
	if d > sleepSlack {
		time.Sleep(d - sleepSlack)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// epochPool keys lazy-large's consistency check: two answers for the same
// requirement at the same epoch must be the same bytes.
type epochPool struct {
	epoch uint64
	pool  int
}

// conn drives one connection's share of a plan and checks every answer.
type conn struct {
	id   int
	p    *plan
	clk  clock
	send func(*daemon.Request) (*daemon.Response, error)
	// base is the boot epoch; the k-th mutation batch publishes base+k.
	base uint64
	// warmEnd and end bound the measured window on clk.
	warmEnd, end time.Duration

	samples   []sample // in-window ops that completed correctly
	late      []int64  // open loop: generator lateness, ns
	attempted int      // in-window ops
	faults    int      // wrong or missing answers, in the window or not
	failures  []string // the first few of their messages
	// sent counts every op this connection completed on the daemon, warm-up
	// included, for the cross-check against the daemon's own counters.
	sent      [numOpKinds]int64
	mutations int64 // individual mutations acknowledged
	granted   int64
	released  int64

	batches int                  // mutation batches acknowledged (connection 0)
	held    []uint64             // admit-mix: tickets not yet released
	grants  []grant              // admit-mix: granted flows, validated after the window
	seen    map[epochPool][]byte // lazy-large: first answer per (epoch, requirement)
}

func (c *conn) fail(format string, args ...any) bool {
	c.faults++
	if len(c.failures) < 5 {
		c.failures = append(c.failures, fmt.Sprintf("conn %d: ", c.id)+fmt.Sprintf(format, args...))
	}
	return false
}

// do sends one op and reports whether the answer was correct.
func (c *conn) do(o op) bool {
	resp, err := c.send(o.req)
	if err != nil {
		return c.fail("%v: %v", o.kind, err)
	}
	c.sent[o.kind]++
	switch o.kind {
	case opSolve:
		return c.checkSolve(o, resp)
	case opMutate:
		c.batches++
		if resp.Err != "" {
			return c.fail("mutate: %s", resp.Err)
		}
		c.mutations += int64(len(o.req.Mutations))
		if want := c.base + uint64(c.batches); resp.Epoch != want {
			return c.fail("mutate acknowledged at epoch %d, want %d (one epoch per batch)", resp.Epoch, want)
		}
	case opAdmit:
		if resp.Err != "" {
			if resp.Reason == "" {
				return c.fail("admit: %s", resp.Err)
			}
			return true // an in-band rejection is a served decision
		}
		if resp.Ticket == 0 || len(resp.Flow) == 0 {
			return c.fail("admit granted without ticket or flow")
		}
		c.granted++
		c.held = append(c.held, resp.Ticket)
		c.grants = append(c.grants, grant{demand: o.req.Demand, flow: resp.Flow})
	case opRelease:
		switch {
		case resp.Err == "":
			c.released++
		case strings.Contains(resp.Err, "no such active ticket"):
			// A higher class preempted the tenant meanwhile: expected.
		default:
			return c.fail("release: %s", resp.Err)
		}
	case opLinks:
		if resp.Err != "" || len(resp.Links) != c.p.sc.Overlay.NumLinks() {
			return c.fail("links: %d links, err %q", len(resp.Links), resp.Err)
		}
	}
	return true
}

func (c *conn) checkSolve(o op, resp *daemon.Response) bool {
	entry := c.p.pool[o.pool]
	switch {
	case c.p.answers != nil: // churn-eager: the mirror session answered every epoch
		k := int(resp.Epoch - c.base)
		if resp.Epoch < c.base || k >= len(c.p.answers) {
			return c.fail("solve answered from unknown epoch %d", resp.Epoch)
		}
		ans := c.p.answers[k]
		if ans.failed != (resp.Err != "") {
			return c.fail("solve at epoch %d: err %q, oracle failed=%v", resp.Epoch, resp.Err, ans.failed)
		}
		if !ans.failed && !bytes.Equal(resp.Flow, ans.flow) {
			return c.fail("solve at epoch %d differs from the mirror session", resp.Epoch)
		}
	case resp.Err != "":
		return c.fail("solve: %s", resp.Err)
	case entry.want != nil && (c.p.static || resp.Epoch == c.base):
		if !bytes.Equal(resp.Flow, entry.want) {
			return c.fail("solve differs from the stateless solve")
		}
	default: // lazy-large past boot: replayed after the window
		key := epochPool{resp.Epoch, o.pool}
		if first, ok := c.seen[key]; !ok {
			if c.seen == nil {
				c.seen = map[epochPool][]byte{}
			}
			c.seen[key] = resp.Flow
		} else if !bytes.Equal(first, resp.Flow) {
			return c.fail("two answers for requirement %d at epoch %d differ", o.pool, resp.Epoch)
		}
	}
	return true
}

// sample is one in-window op that completed correctly.
type sample struct {
	kind opKind
	// at decides which slice of the window the op belongs to: its start in
	// the closed loop, its due time in the open loop.
	at  time.Duration
	lat time.Duration
}

func (c *conn) record(kind opKind, at time.Duration, ok bool, lat time.Duration) {
	if at < c.warmEnd {
		return
	}
	c.attempted++
	if ok {
		c.samples = append(c.samples, sample{kind, at, lat})
	}
}

// runClosed keeps one call outstanding until the window ends. An op belongs
// to the window when it starts inside it.
func (c *conn) runClosed() {
	next := c.p.stream(c.id)
	for {
		start := c.clk.Now()
		if start >= c.end {
			return
		}
		o, _ := next()
		ok := c.do(o)
		c.record(o.kind, start, ok, c.clk.Now()-start)
	}
}

// openTiming is the open loop's arithmetic: latency runs from the due time,
// so a stall is charged to every op it delays; lateness is how long the
// generator took to fire once the op was due and the connection free.
func openTiming(due, sent, done, prevDone time.Duration) (latency, late time.Duration) {
	free := due
	if prevDone > free {
		free = prevDone
	}
	return done - due, sent - free
}

// runOpen fires each op at its due time, or as soon after as the connection
// is free. An op belongs to the window when it is due inside it.
func (c *conn) runOpen() {
	next := c.p.stream(c.id)
	var prevDone time.Duration
	for {
		o, more := next()
		if !more {
			return
		}
		if wait := o.due - c.clk.Now(); wait > 0 {
			c.clk.Sleep(wait)
		}
		sent := c.clk.Now()
		ok := c.do(o)
		done := c.clk.Now()
		latency, late := openTiming(o.due, sent, done, prevDone)
		c.record(o.kind, o.due, ok, latency)
		if o.due >= c.warmEnd {
			c.late = append(c.late, late.Nanoseconds())
		}
		if len(c.held) > admitHold {
			c.release(o.due)
		}
		prevDone = c.clk.Now()
	}
}

// releaseOp pops the oldest held ticket into the op that returns it.
func (c *conn) releaseOp() op {
	ticket := c.held[0]
	c.held = c.held[1:]
	return op{kind: opRelease, pool: -1, req: &daemon.Request{Op: daemon.OpRelease, Ticket: ticket}}
}

// release returns the oldest held ticket, as part of the op scheduled at `at`.
func (c *conn) release(at time.Duration) {
	start := c.clk.Now()
	ok := c.do(c.releaseOp())
	c.record(opRelease, at, ok, c.clk.Now()-start)
}

// windowSlice is one of the equal parts the window is cut into. Latency
// percentiles are taken per slice and reported as the median over slices:
// this machine stalls for tenths of a second when a neighbour wakes, and a
// median over slices forgets the slices that caught it.
type windowSlice struct {
	lat [numOpKinds][]float64 // us
}

// legResult is what one drive of a real sflowd measured.
type legResult struct {
	setups     []float64 // seconds, one per spawn
	slices     []windowSlice
	lat        [numOpKinds][]float64 // us, the whole window
	lateUS     []float64
	attempted  int
	failed     int
	windowS    float64
	cpuS       float64 // sflowd user+sys over the window
	harnessCPU float64 // generator user+sys over the window
	hwmMB      float64
	rssMB      float64
	failures   []string
}

// overSlices is the median over the window's slices of f, skipping slices f
// has nothing to say about.
func (r *legResult) overSlices(f func(*windowSlice) (float64, bool)) float64 {
	var xs []float64
	for i := range r.slices {
		if x, ok := f(&r.slices[i]); ok {
			xs = append(xs, x)
		}
	}
	return median(xs)
}

func (r *legResult) completed() int { return r.attempted - r.failed }

// invalid explains why the numbers describe the generator instead of sflowd,
// or returns "".
func (r *legResult) invalid(open bool) string {
	if share := r.harnessCPU / r.windowS; share > 1 {
		return fmt.Sprintf("generator used %.2f cores (limit 1)", share)
	}
	if open {
		if p90 := quantile(sortedCopy(r.lateUS), 0.9); p90 > genLateLimitUS {
			return fmt.Sprintf("open-loop generator fired %.0fus late at p90 (limit %.0fus)", p90, genLateLimitUS)
		}
	}
	return ""
}

// driveDaemon runs plan p against a real sflowd child for `seconds` of
// window after warm-up, spawning the daemon up to `rounds` times for setup_s
// and measuring on the last. outDir receives the daemon's shutdown metrics
// dump.
func driveDaemon(p *plan, bin string, seconds float64, rounds int, outDir string) (res *legResult, err error) {
	res = &legResult{}
	var ch *child
	var clients []*daemon.Client
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
		if ch != nil {
			ch.reap()
		}
	}()

	// Spawn until setup_s has its rounds: at least setupMinRounds, more while
	// they are cheap. The last daemon stays up for the window.
	var first *conn
	for spent := 0.0; ; {
		if ch, err = spawn(bin, p.daemonArgs); err != nil {
			return nil, err
		}
		cl, err := daemon.Dial(ch.addr)
		if err != nil {
			return nil, err
		}
		clients = append(clients, cl)
		if first, err = setupAnswer(p, cl); err != nil {
			return nil, err
		}
		if len(first.failures) > 0 {
			return nil, fmt.Errorf("first answer wrong: %s", first.failures[0])
		}
		took := time.Since(ch.started).Seconds()
		res.setups = append(res.setups, took)
		spent += took
		n := len(res.setups)
		if n >= rounds || (n >= setupMinRounds && spent >= setupBudget) {
			break
		}
		cl.Close()
		clients = nil
		ch.reap()
		ch = nil
	}

	for len(clients) < p.conns {
		cl, err := daemon.Dial(ch.addr)
		if err != nil {
			return nil, err
		}
		clients = append(clients, cl)
	}
	clk := wallClock{start: time.Now()}
	warmEnd := time.Duration(warmupSeconds * float64(time.Second))
	end := warmEnd + time.Duration(seconds*float64(time.Second))
	conns := make([]*conn, p.conns)
	var wg sync.WaitGroup
	for i := range conns {
		c := &conn{id: i, p: p, clk: clk, send: clients[i].Do, base: first.base,
			warmEnd: warmEnd, end: end}
		conns[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			if p.def.Open {
				c.runOpen()
			} else {
				c.runClosed()
			}
		}()
	}
	time.Sleep(warmEnd - clk.Now())
	t0, self0 := clk.Now(), selfCPUSeconds()
	cpu0, err0 := ch.cpuSeconds()
	time.Sleep(end - clk.Now())
	cpu1, err1 := ch.cpuSeconds()
	res.windowS, res.cpuS, res.harnessCPU = (clk.Now() - t0).Seconds(), cpu1-cpu0, selfCPUSeconds()-self0
	hwm, rss, err2 := ch.memoryMB()
	wg.Wait()
	for _, e := range []error{err0, err1, err2} {
		if e != nil {
			return nil, fmt.Errorf("reading /proc of sflowd: %w", e)
		}
	}
	res.hwmMB, res.rssMB = hwm, rss

	// After the window: drain what the workload left in the daemon, run the
	// deferred checks, then stop the daemon and compare its counters.
	all := append([]*conn{first}, conns...)
	var problems []string
	if p.def.Name == "admit-mix" {
		problems = append(problems, drainAdmissions(p, conns)...)
	}
	if p.def.Name == "lazy-large" {
		problems = append(problems, replayLazy(p, conns)...)
	}
	for _, cl := range clients {
		cl.Close()
	}
	clients = nil
	ch.reap()
	dump := ch.stderr.String()
	ch = nil
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, p.def.Name+".sflowd-metrics.txt"), []byte(dump), 0o644); err != nil {
		return nil, err
	}
	problems = append(problems, crossCheck(parseCounters(dump), all)...)

	// The window is cut into slices of about sliceSeconds.
	n := max(int(seconds/sliceSeconds), 1)
	res.slices = make([]windowSlice, n)
	for _, c := range conns {
		for _, sm := range c.samples {
			us := float64(sm.lat.Nanoseconds()) / 1e3
			res.lat[sm.kind] = append(res.lat[sm.kind], us)
			// An op the loop was late to start can begin past the last cut.
			sl := &res.slices[min(int((sm.at-warmEnd)*time.Duration(n)/(end-warmEnd)), n-1)]
			sl.lat[sm.kind] = append(sl.lat[sm.kind], us)
		}
		res.lateUS = append(res.lateUS, usOf(c.late)...)
		res.attempted += c.attempted
		// A wrong answer during warm-up or the drain fails the run like one in
		// the window.
		res.failed += c.faults
		res.failures = append(res.failures, c.failures...)
	}
	// A miss found after the window has no op to charge it to: it counts as
	// one failed op.
	res.failures = append(res.failures, problems...)
	res.failed = min(res.failed+len(problems), res.attempted)
	return res, nil
}

// setupAnswer sends the workload's first request on a fresh daemon and
// checks it. The returned conn carries the boot epoch, the op counts and any
// failure.
func setupAnswer(p *plan, cl *daemon.Client) (*conn, error) {
	c := &conn{id: -1, p: p, clk: wallClock{start: time.Now()}, send: cl.Do}
	var o op
	switch p.def.Name {
	case "admit-mix":
		next := p.stream(0)
		for o, _ = next(); o.kind != opAdmit; o, _ = next() {
		}
	case "lazy-large":
		o = op{kind: opSolve, pool: lazyFirst, req: p.pool[lazyFirst].req}
	default:
		o = op{kind: opSolve, req: p.pool[0].req}
	}
	// The boot epoch is whatever the first answer names: nothing has mutated
	// the daemon yet.
	probe := c.send
	c.send = func(r *daemon.Request) (*daemon.Response, error) {
		resp, err := probe(r)
		if err == nil && c.base == 0 {
			c.base = resp.Epoch
		}
		return resp, err
	}
	if !c.do(o) && len(c.failures) == 0 {
		c.fail("first request failed")
	}
	if o.kind == opAdmit {
		// Nothing is admitted on a fresh daemon, so the first admit must be
		// granted; it is released at once so the window starts from zero.
		if len(c.held) != 1 {
			c.fail("first admit was not granted")
		} else {
			c.release(0)
		}
	}
	if c.base == 0 {
		return nil, fmt.Errorf("%s: no answer from sflowd: %v", p.def.Name, c.failures)
	}
	return c, nil
}

// drainAdmissions releases every ticket still held, then requires the
// daemon to report zero tenants and zero utilization, and validates every
// flow the window was granted against the boot overlay.
func drainAdmissions(p *plan, conns []*conn) []string {
	var problems []string
	for _, c := range conns {
		for len(c.held) > 0 {
			c.release(0) // a refused release is a fault of its connection
		}
	}
	resp, err := conns[0].send(&daemon.Request{Op: daemon.OpTenants})
	switch {
	case err != nil:
		problems = append(problems, fmt.Sprintf("tenants: %v", err))
	case len(resp.Tenants) != 0 || resp.Utilization != 0:
		problems = append(problems, fmt.Sprintf("daemon ends with %d tenants and utilization %d, want 0 and 0",
			len(resp.Tenants), resp.Utilization))
	}
	for _, c := range conns {
		for _, g := range c.grants {
			if err := validGrant(g, p.sc.Req, p.sc.Overlay); err != nil {
				problems = append(problems, fmt.Sprintf("granted flow invalid: %v", err))
			}
		}
	}
	return problems
}

// grant is one admission the daemon granted.
type grant struct {
	demand int64
	flow   []byte
}

// validGrant checks a granted flow against the requirement and the boot
// overlay: what flow.Graph.Validate checks, except that an edge's bandwidth
// need not equal its route's. An admitted flow carries the bandwidth of the
// allocator's residual overlay at admission time, which the harness does not
// know under two connections; it must lie between the demand and the boot
// width of the route.
func validGrant(g grant, req *sflow.Requirement, boot *sflow.Overlay) error {
	fg := new(sflow.FlowGraph)
	if err := json.Unmarshal(g.flow, fg); err != nil {
		return fmt.Errorf("does not decode: %w", err)
	}
	for _, e := range fg.Edges() {
		m, err := flow.PathMetric(boot, e.Path)
		if err != nil {
			return fmt.Errorf("edge %d->%d: %w", e.FromSID, e.ToSID, err)
		}
		from, _ := fg.Assigned(e.FromSID)
		to, _ := fg.Assigned(e.ToSID)
		if e.Path[0] != from || e.Path[len(e.Path)-1] != to {
			return fmt.Errorf("edge %d->%d route %v does not join instances %d and %d", e.FromSID, e.ToSID, e.Path, from, to)
		}
		if e.Metric.Bandwidth < g.demand || e.Metric.Bandwidth > m.Bandwidth || e.Metric.Latency != m.Latency {
			return fmt.Errorf("edge %d->%d claims %+v for demand %d on a route of %+v", e.FromSID, e.ToSID, e.Metric, g.demand, m)
		}
	}
	if !fg.Complete(req) {
		return fmt.Errorf("incomplete for the requirement")
	}
	for sid, nid := range fg.Assignment() {
		if got := boot.SIDOf(nid); got != sid {
			return fmt.Errorf("service %d assigned to instance %d which provides %d", sid, nid, got)
		}
	}
	return nil
}

// lazyReplayPairs bounds how many (epoch, requirement) answers replayLazy
// recomputes: each costs up to seven 10000-node rows.
const lazyReplayPairs = 12

// replayLazy is lazy-large's oracle. Every answer was already required to
// equal the first one for its (epoch, requirement); here the mutations are
// replayed on a private overlay and up to lazyReplayPairs of those first
// answers, spread evenly over the epochs the run reached, are compared with
// a stateless lazy solve.
func replayLazy(p *plan, conns []*conn) []string {
	seen := map[epochPool][]byte{}
	var keys []epochPool
	for _, c := range conns {
		for k, v := range c.seen {
			if prev, ok := seen[k]; ok {
				if !bytes.Equal(prev, v) {
					return []string{fmt.Sprintf("connections disagree on requirement %d at epoch %d", k.pool, k.epoch)}
				}
				continue
			}
			seen[k] = v
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].epoch != keys[j].epoch {
			return keys[i].epoch < keys[j].epoch
		}
		return keys[i].pool < keys[j].pool
	})
	if len(keys) > lazyReplayPairs {
		step := float64(len(keys)) / lazyReplayPairs
		picked := make([]epochPool, lazyReplayPairs)
		for i := range picked {
			picked[i] = keys[int(float64(i)*step)]
		}
		keys = picked
	}
	base := conns[0].base
	ov := p.sc.Overlay.Clone()
	applied := 0
	var problems []string
	for _, k := range keys {
		for ; applied < int(k.epoch-base); applied++ {
			m := p.mutations[applied]
			if err := ov.GrowLinkBandwidth(m.From, m.To, m.Delta); err != nil {
				return append(problems, fmt.Sprintf("replaying mutation %d: %v", applied, err))
			}
		}
		req := p.pool[k.pool].req
		want, err := statelessFlow(req.Algorithm, ov, req.Requirement, req.Source, true)
		if err != nil || !bytes.Equal(want, seen[k]) {
			problems = append(problems, fmt.Sprintf("requirement %d at epoch %d differs from the stateless solve (err %v)", k.pool, k.epoch, err))
		}
	}
	return problems
}

// crossCheck compares the daemon's shutdown counters with what the harness
// completed on it, set-up and warm-up included.
func crossCheck(counters map[string]int64, conns []*conn) []string {
	var solves, mutations, admits, releases int64
	for _, c := range conns {
		solves += c.sent[opSolve]
		mutations += c.mutations
		admits += c.granted
		releases += c.released
	}
	var problems []string
	for _, x := range []struct {
		name string
		want int64
	}{
		{"daemon_solves_total", solves},
		{"daemon_mutations_total", mutations},
		{"daemon_admits_total", admits},
		{"daemon_releases_total", releases},
	} {
		if got := counters[x.name]; got != x.want {
			problems = append(problems, fmt.Sprintf("sflowd counted %s=%d, the harness completed %d", x.name, got, x.want))
		}
	}
	return problems
}
