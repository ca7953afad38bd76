package main

import "time"

// The benchmark's vocabulary: workload names, metric names, units, directions
// and bounds. BENCHMARK.json at the repository root repeats this table for
// the driver; TestSpecMatchesBenchmarkJSON keeps the two identical.

// metricDef names one reported number.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median an end-to-end metric may worsen by; 0 for per-layer
	Doc    string
}

// endToEnd lists the gated metrics, measured with tracing off against a real
// sflowd child over loopback TCP. Every workload reports every one of them.
// "op" is the workload's primary operation (workloadDef.Primary): the request
// kind the workload exists to price.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "spawn of sflowd to the first correct answer to the workload's first request; median over the run's spawns"},
	{"op_p50_us", "us", "lower", 0.25, "client-observed latency of the primary op: median per three-second slice of the window, median over slices; open loop timed from the due time"},
	{"op_p90_us", "us", "lower", 0.25, "same, 90th percentile"},
	{"ops_per_s", "1/s", "higher", 0.25, "completed correct ops of every kind / window (closed loop: capacity; open loop: the offered rate, lower means backlog)"},
	{"cpu_us_per_op", "us", "lower", 0.25, "sflowd user+sys CPU over the window (/proc/<pid>/stat) per completed op"},
	{"peak_rss_mb", "MB", "lower", 0.25, "VmHWM of sflowd at window end"},
}

// perLayer lists the numbers of single layers, reported by the traced run
// (--trace 1). A metric that does not exist on a workload (no admission on
// lazy-large, no mutation on solve-hot) reads 0 there.
var perLayer = []metricDef{
	{"transport.echo_rtt_us", "us", "lower", 0, "RPCClient.Call against an echo RPCServer with a pass-through codec and the workload's median payload sizes"},
	{"transport.echo_parked_rtt_us", "us", "lower", 0, "the same echo when the handler first burns daemon.handle_us of CPU, less the burn: both sides' threads park, and the round trip pays their wake-ups"},
	{"transport.echo_allocs", "count", "lower", 0, "heap allocations per echo round trip, both sides"},
	{"transport.req_bytes", "B", "lower", 0, "median encoded request size over the traced sequence (exact)"},
	{"transport.resp_bytes", "B", "lower", 0, "median encoded response size over the traced sequence (exact)"},
	{"daemon.served_rtt_us", "us", "lower", 0, "daemon.Client.Do of a solve against an in-process daemon.New+Serve: the no-queue reference for solve latency"},
	{"daemon.handle_us", "us", "lower", 0, "Server.Handle(req) of the same solve, no transport"},
	{"daemon.handle_allocs", "count", "lower", 0, "heap allocations per Server.Handle of the workload's most drawn solve"},
	{"daemon.handle_bytes", "B", "lower", 0, "heap bytes per Server.Handle of the workload's most drawn solve"},
	{"daemon.wire_us", "us", "lower", 0, "derived: served_rtt - echo_rtt - handle (codec both sides, dispatch, thread wake-ups)"},
	{"daemon.codec_us", "us", "lower", 0, "json.Marshal + json.Unmarshal of the most drawn solve's Request and Response: the codec share of wire_us"},
	{"daemon.handle_self_us", "us", "lower", 0, "derived: handle - (abstract.from_table + reduce.solve + flow.encode)"},
	{"daemon.mutate_us", "us", "lower", 0, "Client.Do of a mutate batch against the in-process daemon: the no-queue reference for mutate latency"},
	{"daemon.admit_us", "us", "lower", 0, "Client.Do of an admit against the in-process daemon: the no-queue reference for admit latency"},
	{"daemon.epochs_published", "count", "lower", 0, "daemon_epochs_published_total over the traced sequence (exact)"},
	{"daemon.mutations_per_epoch", "ratio", "higher", 0, "daemon_mutations_total / epochs published after boot"},
	{"abstract.from_table_us", "us", "lower", 0, "abstract.FromAllPairs on the snapshot of the epoch the response named"},
	{"abstract.build_full_us", "us", "lower", 0, "abstract.Build(alloc.Residual(), req): the full all-pairs each admission pays"},
	{"reduce.solve_us", "us", "lower", 0, "the placement algorithm on the abstract graph: reduce.Solve, or control.Fixed on wire-min"},
	{"reduce.solve_allocs", "count", "lower", 0, "heap allocations per placement run of the workload's most drawn solve"},
	{"qos.table_reads_per_solve", "count", "lower", 0, "Metric+Path+From calls a solve makes on the qos.Table, median (exact)"},
	{"qos.table_read_us", "us", "lower", 0, "Table.Metric on a resident row"},
	{"flow.encode_us", "us", "lower", 0, "json.Marshal(flow)"},
	{"flow.encode_bytes", "B", "lower", 0, "median encoded flow size (exact)"},
	{"qos.row_us", "us", "lower", 0, "qos.ShortestWidestCSR over the workload's slot sources on a frozen graph"},
	{"qos.row_bytes", "B", "lower", 0, "heap bytes allocated per row"},
	{"qos.relaxations_per_row", "count", "lower", 0, "qos_relaxations_total / qos_shortest_widest_runs_total of the traced daemon"},
	{"qos.freeze_us", "us", "lower", 0, "qos.FreezeGraph of the boot overlay"},
	{"qos.allpairs_us", "us", "lower", 0, "qos.ComputeAllPairsWorkers(ov, 1); 0 on lazy-large, which never builds it"},
	{"qos.rows_computed_per_op", "ratio", "lower", 0, "qos_lazy_rows_computed_total per traced request, counted around the served call (exact on the serial run)"},
	{"qos.row_hit_ratio", "ratio", "higher", 0, "lazy row hits / (hits + computed), counted around the served call"},
	{"qos.lru_evicted_per_op", "ratio", "lower", 0, "qos_lazy_lru_evicted_rows_total per traced request"},
	{"qos.flush_recomputed_per_mutation", "ratio", "lower", 0, "qos_incremental_recomputed_sources_total per mutation"},
	{"qos.flush_saved_ratio", "ratio", "higher", 0, "saved / (saved + recomputed) sources over the traced flushes"},
	{"session.mutate_flush_us", "us", "lower", 0, "mirror session event methods of one batch + Flush()"},
	{"session.snapshot_us", "us", "lower", 0, "Session.Snapshot() on the flushed mirror session"},
	{"session.snapshot_bytes", "B", "lower", 0, "heap bytes per Session.Snapshot()"},
	{"overlay.clone_us", "us", "lower", 0, "Overlay.Clone()"},
	{"provision.admit_us", "us", "lower", 0, "mirror provision.Allocator Admit with the traced sequence"},
	{"provision.release_us", "us", "lower", 0, "mirror provision.Allocator Release"},
	{"provision.admit_allocs", "count", "lower", 0, "heap allocations per mirror Admit+Release pair on the idle allocator"},
	{"provision.reject_ratio", "ratio", "lower", 0, "alloc_rejected_total / admits attempted (exact on the serial run)"},
	{"provision.preempted_per_admit", "ratio", "lower", 0, "alloc_preempted_total / alloc_admitted_total"},
	{"reopt.links_us", "us", "lower", 0, "Ledger.Links() on the mirror ledger"},
	{"reopt.ledger_updates_per_op", "ratio", "lower", 0, "reopt_ledger_updates_total per traced request"},
	{"scenario.generate_us", "us", "lower", 0, "scenario.Generate / GenerateLarge with the workload's flags"},
	{"sflowd.solve_p50_us", "us", "lower", 0, "real daemon, short window: solve latency, also where solve is not the primary op"},
	{"sflowd.solve_p99_us", "us", "lower", 0, "real daemon: solve tail (swings 2x between identical runs, so not gated)"},
	{"sflowd.mutate_p50_us", "us", "lower", 0, "real daemon: mutate RPC to ack (ack means published)"},
	{"sflowd.admit_p50_us", "us", "lower", 0, "real daemon: admit RPC, grant or in-band rejection"},
	{"sflowd.release_p50_us", "us", "lower", 0, "real daemon: release RPC"},
	{"sflowd.links_p50_us", "us", "lower", 0, "real daemon: links read"},
	{"sflowd.cpu_us_per_op", "us", "lower", 0, "real daemon, short window: user+sys CPU per completed op"},
	{"sflowd.gen_late_p90_us", "us", "lower", 0, "open loop: how late the generator fired after the op was due and its connection free"},
	{"sflowd.harness_cpu_share", "ratio", "lower", 0, "the generator's own CPU in cores over the window"},
	{"sflowd.rss_end_mb", "MB", "lower", 0, "VmRSS of sflowd at window end"},
	{"trace.overhead_share", "ratio", "lower", 0, "(read-op round trip with span recording - without) / without"},
}

// Operation kinds a workload issues.
type opKind uint8

const (
	opSolve opKind = iota
	opMutate
	opAdmit
	opRelease
	opLinks
	numOpKinds
)

func (k opKind) String() string {
	return [...]string{"solve", "mutate", "admit", "release", "links"}[k]
}

// workloadDef is the static description of one workload; plan.go turns it
// and a seed into concrete daemon flags and request sequences.
type workloadDef struct {
	Name string
	// Why is the one line BENCHMARK.json carries.
	Why string
	// Open selects the open loop (ops fire on a schedule and are timed from
	// their due time); otherwise each connection keeps one call outstanding.
	Open bool
	// Rate is the open loop's scheduled ops per second.
	Rate int
	// Primary is the op kind op_p50_us/op_p90_us report.
	Primary opKind
	// TraceRequests is the length of the serial traced sequence, TraceBatch
	// how many of its requests go out back to back before their shadows run.
	// lazy-large replays at once: a replay then finds the rows its request
	// just read, and leaves the row cache as the request left it.
	TraceRequests, TraceBatch int
}

var workloads = []workloadDef{
	{
		Name:          "solve-hot",
		Why:           "20-node scenario, heuristic solve of its DAG (3 draws in 4) or one of its chains, closed loop: ~90% reduce.Solve + qos.Table reads; codec and transport stay under 15%",
		Primary:       opSolve,
		TraceRequests: 2000,
		TraceBatch:    100,
	},
	{
		Name:          "wire-min",
		Why:           "same daemon, smallest legal requests (2-service paths, alg fixed), closed loop: per-message codec, framing and dispatch dominate; an algorithm change must show nothing here",
		Primary:       opSolve,
		TraceRequests: 2000,
		TraceBatch:    100,
	},
	{
		Name:          "churn-eager",
		Why:           "size 100, 12 services x 8 instances, open loop 200 solves/s beside 40 mutation batches/s (perturb, then undo): Incremental.Flush, Session.Snapshot and epoch publish beside reads; op is mutate",
		Open:          true,
		Rate:          churnSolveRate + churnMutateRate,
		Primary:       opMutate,
		TraceRequests: 900, // 150 mutations of ~10 ms, each applied twice (daemon, mirror)
		TraceBatch:    100,
	},
	{
		Name:          "admit-mix",
		Why:           "size 50, 2 classes with preemption, open loop 150 ops/s: admits (demand 10/50/200), last 8 tickets held, 1 in 20 a links read: allocator writer loop and abstract.Build on the residual; op is admit",
		Open:          true,
		Rate:          admitRate,
		Primary:       opAdmit,
		TraceRequests: 2000,
		TraceBatch:    100,
	},
	{
		Name:          "lazy-large",
		Why:           "lazy 10000-node overlay, row cache of 16 under a 25-row skewed read set, closed loop, every 40th op a grow-bandwidth: the qos dense kernel and row memory; p50 is the hit path, p90 and CPU the kernel",
		Primary:       opSolve,
		TraceRequests: 300,
		TraceBatch:    1,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Run shape. One run = a few spawns for setup_s, then warm-up (its samples
// are discarded) and the measured window on the last daemon.
const (
	// scenarioSeed is the -seed every sflowd is started with. It is part of
	// the workload, like -size: two scenario seeds differ 2x in solve cost,
	// so the overlay and its requirement stay fixed and --seed drives the
	// request sequence only.
	scenarioSeed = 1

	runSeconds      = 15.0 // the default window: BENCHMARK.json's run_seconds
	warmupSeconds   = 2.0
	sliceSeconds    = 1.0         // the window is cut into slices of about this length
	traceWarmup     = time.Second // read requests served before the traced sequence
	sleepSlack      = 1500 * time.Microsecond
	churnSolveRate  = 200 // churn-eager solves per second, across the connections
	churnMutateRate = 40  // churn-eager mutation batches per second, on connection 0
	admitRate       = 150 // admit-mix scheduled ops per second, across the connections
	admitHold       = 8   // tickets a connection holds before releasing FIFO
	admitLinksEvery = 20  // 1 scheduled op in this many is a links read
	lazyMutateEvery = 40  // every n-th op on connection 0 of lazy-large mutates
	lazyMaxRows     = 16

	// setup_s is the median over at least setupMinRounds spawns; cheap boots
	// (4 ms on solve-hot) repeat until setupBudget is spent or setupMaxRounds
	// is reached, because a median of five 4 ms spawns is mostly fork jitter.
	setupMinRounds = 5
	setupMaxRounds = 41
	setupBudget    = 1.0 // seconds

	// genLateLimitUS and one core of generator CPU are the validity limits:
	// beyond them the run measured the generator, not sflowd.
	genLateLimitUS = 1000.0
)
