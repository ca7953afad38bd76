package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"sflow"
	"sflow/internal/abstract"
	"sflow/internal/daemon"
	"sflow/internal/provision"
)

// op is one request of a workload's sequence.
type op struct {
	kind opKind
	req  *daemon.Request
	// pool indexes plan.pool for solves (the oracle's key); -1 otherwise.
	pool int
	// due is the open-loop send time, from the start of warm-up.
	due time.Duration
}

// poolEntry is one solve request the workload draws from.
type poolEntry struct {
	req *daemon.Request
	// want is the stateless sflow.Solve answer on the boot overlay, set for
	// the static workloads whose overlay never changes.
	want []byte
}

// epochAnswer is the oracle's answer for one epoch of churn-eager: the flow
// the scenario requirement must federate to, or that it cannot.
type epochAnswer struct {
	flow   []byte
	failed bool
}

// plan is a workload made concrete by a seed: the daemon's configuration and
// every request it will see. The daemon's overlay comes from scenarioSeed,
// because sflowd can build its overlay from scenario flags alone; the seed
// decides which requests arrive, in which order.
type plan struct {
	def   *workloadDef
	seed  int64
	conns int
	// daemonArgs configures the sflowd child; opts is the same configuration
	// for the traced run's in-process daemon.New.
	daemonArgs []string
	opts       daemon.Options
	scenario   func() (*sflow.Scenario, error)
	sc         *sflow.Scenario
	pool       []poolEntry
	// hot is the pool entry drawn most often: the one the layer loops use.
	hot int
	// stream returns a fresh iterator over connection conn's ops. Closed-loop
	// streams never end; open-loop streams cover warm-up plus window.
	stream func(conn int) func() (op, bool)
	// static marks the workloads that never mutate the daemon: every answer
	// must equal the pool entry's want.
	static bool
	// answers[k] is churn-eager's oracle after k mutation batches.
	answers []epochAnswer
	// mutations lists lazy-large's mutations in the order connection 0 sends
	// them, for the post-window replay.
	mutations []daemon.Mutation
}

func solveRequest(alg string, req *sflow.Requirement, src int) *daemon.Request {
	return &daemon.Request{Op: daemon.OpSolve, Algorithm: alg, Requirement: req, Source: src}
}

// statelessFlow is the oracle: the canonical JSON of a from-scratch solve.
func statelessFlow(alg string, ov *sflow.Overlay, req *sflow.Requirement, src int, lazy bool) ([]byte, error) {
	sol, err := sflow.Solve(alg, ov, req, src, sflow.SolveOptions{Workers: 1, Lazy: lazy})
	if err != nil {
		return nil, err
	}
	return json.Marshal(sol.Flow)
}

// connRand is connection conn's private random stream under seed.
func connRand(seed int64, conn int) *rand.Rand {
	return rand.New(rand.NewSource(seed*31 + int64(conn)))
}

// deckStream yields solves of the pool forever. Each connection deals from a
// deck that holds entry i weights[i] times and is reshuffled, from the
// connection's own stream, whenever it runs out: every seed sends the same
// mix, exactly, and only the order differs. Independent draws would let the
// count of the rare, expensive entries swing by a seventh between seeds.
func (p *plan) deckStream(weights []int) func(int) func() (op, bool) {
	return func(conn int) func() (op, bool) {
		rng := connRand(p.seed, conn)
		var deck []int
		for i, w := range weights {
			for ; w > 0; w-- {
				deck = append(deck, i)
			}
		}
		next := len(deck)
		return func() (op, bool) {
			if next == len(deck) {
				rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
				next = 0
			}
			i := deck[next]
			next++
			return op{kind: opSolve, pool: i, req: p.pool[i].req}, true
		}
	}
}

// sliceStreams yields each connection's pre-generated ops once.
func sliceStreams(perConn [][]op) func(int) func() (op, bool) {
	return func(conn int) func() (op, bool) {
		i := 0
		return func() (op, bool) {
			if i >= len(perConn[conn]) {
				return op{}, false
			}
			i++
			return perConn[conn][i-1], true
		}
	}
}

// buildPlan derives workload def's inputs from seed. seconds is the measured
// window; open-loop schedules cover warm-up plus window.
func buildPlan(def *workloadDef, seed int64, conns int, seconds float64) (*plan, error) {
	p := &plan{def: def, seed: seed, conns: conns}
	horizon := time.Duration((warmupSeconds + seconds) * float64(time.Second))
	scenarioArgs := func(size, services, instances int) {
		p.daemonArgs = []string{"-seed", strconv.Itoa(scenarioSeed), "-size", strconv.Itoa(size),
			"-services", strconv.Itoa(services), "-instances", strconv.Itoa(instances), "-kind", "general"}
		p.scenario = func() (*sflow.Scenario, error) {
			return sflow.GenerateScenario(sflow.ScenarioConfig{Seed: scenarioSeed, NetworkSize: size,
				Services: services, InstancesPerService: instances, Kind: sflow.KindGeneral})
		}
	}
	var err error
	switch def.Name {
	case "solve-hot":
		scenarioArgs(20, 5, 3)
		if p.sc, err = p.scenario(); err != nil {
			return nil, err
		}
		// The scenario's DAG, then every source-to-sink chain through it. The
		// DAG is 3 requests in 4, so the median and the 90th percentile both
		// sit inside its latency mode, never on the step between two.
		reqs := []*sflow.Requirement{p.sc.Req}
		chains, err := chainRequirements(p.sc.Req)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, chains...)
		weights := make([]int, len(reqs))
		for i := range weights {
			weights[i] = 1
		}
		weights[0] = 3 * len(chains)
		if err := p.staticPool("heuristic", reqs, weights); err != nil {
			return nil, err
		}

	case "wire-min":
		scenarioArgs(20, 5, 3)
		if p.sc, err = p.scenario(); err != nil {
			return nil, err
		}
		// The smallest legal requests: the 2-service path along each edge
		// leaving the source service, drawn evenly.
		src := p.sc.Req.Source()
		var reqs []*sflow.Requirement
		for _, next := range p.sc.Req.Downstream(src) {
			req, err := sflow.PathRequirement(src, next)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, req)
		}
		weights := make([]int, len(reqs))
		for i := range weights {
			weights[i] = 1
		}
		if err := p.staticPool("fixed", reqs, weights); err != nil {
			return nil, err
		}

	case "churn-eager":
		scenarioArgs(100, 12, 8)
		if p.sc, err = p.scenario(); err != nil {
			return nil, err
		}
		if err := p.planChurn(horizon); err != nil {
			return nil, err
		}

	case "admit-mix":
		scenarioArgs(50, 8, 4)
		p.daemonArgs = append(p.daemonArgs, "-classes", "2", "-preempt")
		p.opts.Admission = provision.AllocatorOptions{Classes: 2, Preempt: true}
		if p.sc, err = p.scenario(); err != nil {
			return nil, err
		}
		p.planAdmit(horizon)

	case "lazy-large":
		p.daemonArgs = []string{"-seed", strconv.Itoa(scenarioSeed), "-lazy", "-large", "10000",
			"-services", "6", "-instances", "6", "-max-rows", strconv.Itoa(lazyMaxRows)}
		p.opts.Lazy, p.opts.MaxRows = true, lazyMaxRows
		p.scenario = func() (*sflow.Scenario, error) {
			return sflow.GenerateLargeScenario(sflow.LargeScenarioConfig{Seed: scenarioSeed, Nodes: 10000,
				Services: 6, InstancesPerService: 6})
		}
		if p.sc, err = p.scenario(); err != nil {
			return nil, err
		}
		if err := p.planLazy(); err != nil {
			return nil, err
		}

	default:
		return nil, fmt.Errorf("unknown workload %q", def.Name)
	}
	return p, nil
}

// chainRequirements lists every source-to-sink chain of req as a path
// requirement, in depth-first order of the service ids.
func chainRequirements(req *sflow.Requirement) ([]*sflow.Requirement, error) {
	var out []*sflow.Requirement
	var walk func(chain []int) error
	walk = func(chain []int) error {
		next := req.Downstream(chain[len(chain)-1])
		if len(next) == 0 {
			r, err := sflow.PathRequirement(chain...)
			out = append(out, r)
			return err
		}
		for _, sid := range next {
			// chain[:len] is shared between siblings; PathRequirement copies.
			if err := walk(append(chain[:len(chain):len(chain)], sid)); err != nil {
				return err
			}
		}
		return nil
	}
	return out, walk([]int{req.Source()})
}

// staticPool fills the pool of a workload that never mutates the daemon:
// every entry gets its stateless answer up front, and each connection deals
// entries by weights.
func (p *plan) staticPool(alg string, reqs []*sflow.Requirement, weights []int) error {
	for i, req := range reqs {
		want, err := statelessFlow(alg, p.sc.Overlay, req, p.sc.SourceNID, false)
		if err != nil {
			return fmt.Errorf("%s: oracle solve of pool entry %d: %w", p.def.Name, i, err)
		}
		p.pool = append(p.pool, poolEntry{req: solveRequest(alg, req, p.sc.SourceNID), want: want})
	}
	for i, w := range weights {
		if w > weights[p.hot] {
			p.hot = i
		}
	}
	p.static = true
	p.stream = p.deckStream(weights)
	return nil
}

// planChurn schedules churn-eager: churnMutateRate mutation batches per second
// on connection 0, each applied to a mirror session that also answers the
// oracle for the epoch it creates, and solves of the scenario requirement at
// churnSolveRate on the other connections.
//
// The batches come in pairs, a perturbation and the batch that undoes it:
// grow a link then reduce it, remove a link then add it back, remove an
// instance then add it back with its links; the seed picks the link or the
// instance. session.NewChurn is not used: its random walk adds and removes
// instances for good, so the overlay, and with it the cost of every later
// solve and flush, drifts apart between seeds by a factor of two.
func (p *plan) planChurn(horizon time.Duration) error {
	sc := p.sc
	p.pool = []poolEntry{{req: solveRequest("heuristic", sc.Req, sc.SourceNID)}}
	mirror := sflow.NewSession(sc.Overlay, sflow.SessionOptions{Workers: 1})
	answer := func() epochAnswer {
		sol, err := mirror.Solve("heuristic", sc.Req, sc.SourceNID, sflow.SolveOptions{})
		if err != nil {
			return epochAnswer{failed: true}
		}
		data, err := json.Marshal(sol.Flow)
		return epochAnswer{flow: data, failed: err != nil}
	}
	p.answers = []epochAnswer{answer()}

	rng := rand.New(rand.NewSource(p.seed))
	boot := sc.Overlay
	links := boot.Links()
	var movable []int // every instance but the consumer's entry point
	for _, nid := range boot.Nodes() {
		if nid != sc.SourceNID {
			movable = append(movable, nid)
		}
	}
	addLink := func(from, to int) daemon.Mutation {
		m, _ := boot.LinkMetric(from, to)
		return daemon.Mutation{Kind: daemon.MutAddLink, From: from, To: to, Bandwidth: m.Bandwidth, Latency: m.Latency}
	}
	var undo []daemon.Mutation
	perturbations := 0
	nextBatch := func() []daemon.Mutation {
		if undo != nil {
			batch := undo
			undo = nil
			return batch
		}
		perturbations++
		switch perturbations % 3 {
		case 0:
			l := links[rng.Intn(len(links))]
			delta := 1 + rng.Int63n(l.Bandwidth)
			undo = []daemon.Mutation{{Kind: daemon.MutReduceBandwidth, From: l.From, To: l.To, Delta: delta}}
			return []daemon.Mutation{{Kind: daemon.MutGrowBandwidth, From: l.From, To: l.To, Delta: delta}}
		case 1:
			l := links[rng.Intn(len(links))]
			undo = []daemon.Mutation{addLink(l.From, l.To)}
			return []daemon.Mutation{{Kind: daemon.MutRemoveLink, From: l.From, To: l.To}}
		default:
			in, _ := boot.Instance(movable[rng.Intn(len(movable))])
			// The instance and its links come back as one batch, so the
			// return still publishes exactly one epoch.
			undo = []daemon.Mutation{{Kind: daemon.MutAddInstance, NID: in.NID, SID: in.SID, Host: in.Host}}
			for _, a := range boot.Out(in.NID) {
				undo = append(undo, addLink(in.NID, a.To))
			}
			for _, a := range boot.In(in.NID) {
				undo = append(undo, addLink(a.To, in.NID))
			}
			return []daemon.Mutation{{Kind: daemon.MutRemoveInstance, NID: in.NID}}
		}
	}

	perConn := make([][]op, p.conns)
	solveGap := time.Second / churnSolveRate
	mutateGap := time.Second / churnMutateRate
	nextMutate := mutateGap / 2 // off the solve grid, so the two never tie
	for j := 0; ; j++ {
		due := time.Duration(j) * solveGap
		if due >= horizon {
			break
		}
		for nextMutate < due {
			batch := nextBatch()
			for _, m := range batch {
				if err := applyMutation(mirror.Session, m); err != nil {
					return fmt.Errorf("churn-eager: mirror session: %w", err)
				}
			}
			perConn[0] = append(perConn[0], op{kind: opMutate, pool: -1, due: nextMutate,
				req: &daemon.Request{Op: daemon.OpMutate, Mutations: batch}})
			p.answers = append(p.answers, answer())
			nextMutate += mutateGap
		}
		// Solves keep off connection 0 when there is another: a mutation that
		// is due while its own connection still waits for a solve would be
		// charged the generator's queue, not the daemon's.
		c := p.conns - 1 - j%max(p.conns-1, 1)
		perConn[c] = append(perConn[c], op{kind: opSolve, req: p.pool[0].req, due: due})
	}
	p.stream = sliceStreams(perConn)
	return nil
}

// admitDemands is the demand palette of admit-mix, in Kbit/s.
var admitDemands = []int64{10, 50, 200}

// planAdmit schedules admit-mix: admitRate ops per second round-robin over
// the connections; one in admitLinksEvery is a links read, the rest admit
// the scenario requirement with a seeded demand and class. Releases are not
// scheduled: a connection releases its oldest ticket right after the admit
// that takes it past admitHold (see conn.runOpen).
func (p *plan) planAdmit(horizon time.Duration) {
	rng := rand.New(rand.NewSource(p.seed))
	perConn := make([][]op, p.conns)
	gap := time.Second / admitRate
	for j := 0; ; j++ {
		due := time.Duration(j) * gap
		if due >= horizon {
			break
		}
		o := op{kind: opLinks, pool: -1, due: due, req: &daemon.Request{Op: daemon.OpLinks}}
		if j%admitLinksEvery != admitLinksEvery-1 {
			o.kind = opAdmit
			o.req = &daemon.Request{Op: daemon.OpAdmit, Algorithm: "heuristic", Requirement: p.sc.Req,
				Source: p.sc.SourceNID, Demand: admitDemands[rng.Intn(len(admitDemands))], Class: rng.Intn(2)}
		}
		perConn[j%p.conns] = append(perConn[j%p.conns], o)
	}
	p.stream = sliceStreams(perConn)
}

// lazyPopularity weighs lazy-large's pool. Entry 0 reads only the source row
// and always hits; the other four each read the source row plus the six rows
// of one service, 25 rows in union against a cache of lazyMaxRows, so the
// least popular entries find their rows evicted.
var lazyPopularity = []int{15, 20, 9, 4, 2}

// lazyFirst is the pool entry lazy-large's set-up asks for: the most popular
// seven-row requirement, so setup_s covers cold rows.
const lazyFirst = 1

// planLazy builds lazy-large: path requirements 1→s→6 for s in 2..5 (and the
// bare 1→2), dealt by lazyPopularity on each connection, with every
// lazyMutateEvery-th op of connection 0 a grow-bandwidth on a seeded link.
func (p *plan) planLazy() error {
	sc := p.sc
	paths := [][]int{{1, 2}, {1, 2, 6}, {1, 3, 6}, {1, 4, 6}, {1, 5, 6}}
	for _, sids := range paths {
		req, err := sflow.PathRequirement(sids...)
		if err != nil {
			return err
		}
		p.pool = append(p.pool, poolEntry{req: solveRequest("heuristic", req, sc.SourceNID)})
	}
	// Set-up asks for this entry on the boot overlay, so it gets a stateless
	// answer up front; the rest are replayed after the window.
	p.hot = lazyFirst
	first := &p.pool[lazyFirst]
	var err error
	if first.want, err = statelessFlow("heuristic", sc.Overlay, first.req.Requirement, sc.SourceNID, true); err != nil {
		return fmt.Errorf("lazy-large: oracle solve: %w", err)
	}
	links := sc.Overlay.Links()
	// Connection 0's mutations come from their own stream so that the list
	// kept for the replay is the list sent, however many ops the run gets to.
	mutRng := rand.New(rand.NewSource(p.seed ^ 0x6d7574))
	nextMutation := func(k int) daemon.Mutation {
		for len(p.mutations) <= k {
			l := links[mutRng.Intn(len(links))]
			p.mutations = append(p.mutations, daemon.Mutation{Kind: daemon.MutGrowBandwidth,
				From: l.From, To: l.To, Delta: 1 + mutRng.Int63n(512)})
		}
		return p.mutations[k]
	}
	draw := p.deckStream(lazyPopularity)
	p.stream = func(conn int) func() (op, bool) {
		solves := draw(conn)
		i, sent := 0, 0
		return func() (op, bool) {
			i++
			if conn == 0 && i%lazyMutateEvery == 0 {
				m := nextMutation(sent)
				sent++
				return op{kind: opMutate, pool: -1, req: &daemon.Request{Op: daemon.OpMutate, Mutations: []daemon.Mutation{m}}}, true
			}
			return solves()
		}
	}
	return nil
}

// readSet is the rows a solve of pool entry `entry` reads: the instances of
// every service with an outgoing requirement edge.
func (p *plan) readSet(entry int) []int {
	return abstract.SlotSources(p.sc.Overlay, p.pool[entry].req.Requirement)
}

// sequenceHash fingerprints the plan: the daemon's flags and the first n ops
// of every connection, request bytes and due times included.
func (p *plan) sequenceHash(n int) (string, error) {
	h := sha256.New()
	fmt.Fprintln(h, p.daemonArgs)
	for c := 0; c < p.conns; c++ {
		next := p.stream(c)
		for i := 0; i < n; i++ {
			o, ok := next()
			if !ok {
				break
			}
			data, err := json.Marshal(o.req)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(h, "%d %d %d %s\n", c, o.kind, o.due, data)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
