// Command benchmark is the repository's benchmark: it builds the real
// ./cmd/sflowd, drives it as a child process over loopback TCP from this one
// generator process, checks every answer and prints every end-to-end metric
// by name and unit. With -trace 1 it runs the same seeded request sequences
// in-process and times the calls into each layer's public functions from
// outside. See README.md beside this file.
//
// The driver's contract (one workload, JSON on the last line):
//
//	bash benchmark/run.sh --workload solve-hot --seed 1 --seconds 15 --trace 0
//
// Without -workload every workload runs in turn; -repeat runs two full sets
// and compares them against the bounds; -list prints the vocabulary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// result is one workload's outcome, traced or not.
type result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Trace     bool   `json:"trace"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Invalid   string `json:"invalid,omitempty"`
	// Tail names the metric that holds the primary op's highest percentile
	// with at least ten samples beyond it.
	Tail    string             `json:"tail,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
	// Samples records how many samples stand behind each percentile.
	Samples map[string]int `json:"samples,omitempty"`
	// Slices lists, per slice of the window, the values whose medians the
	// end-to-end metrics are.
	Slices   map[string][]float64 `json:"slices,omitempty"`
	Failures []string             `json:"failures,omitempty"`
}

type environment struct {
	bin, outDir string
	// openConns is how many connections an open loop spreads its schedule
	// over. A closed loop uses one: with two, four busy threads (two
	// handlers, two generator loops) share this machine's two processors and
	// which pair runs decides the latency.
	openConns int
	seconds   float64
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		root     = fs.String("root", ".", "repository root (the directory holding cmd/sflowd)")
		workload = fs.String("workload", "", "run this workload only and end with the driver's JSON line (default: all)")
		seed     = fs.Int64("seed", 1, "workload seed: every request sequence derives from it")
		seconds  = fs.Float64("seconds", runSeconds, "measured window per workload, after warm-up")
		trace    = fs.Int("trace", 0, "1 runs the traced in-process sequence and prints the per-layer metrics")
		repeat   = fs.Bool("repeat", false, "run two full sets and fail on any end-to-end gap beyond its bound")
		list     = fs.Bool("list", false, "list workloads and metrics, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2, nil
	}
	if *list {
		printList()
		return 0, nil
	}
	if *seconds <= 0 {
		return 2, fmt.Errorf("-seconds must be positive")
	}
	defs := workloads
	if *workload != "" {
		def := findWorkload(*workload)
		if def == nil {
			return 2, fmt.Errorf("unknown workload %q (see -list)", *workload)
		}
		defs = []workloadDef{*def}
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return 1, err
	}
	env := &environment{outDir: filepath.Join(absRoot, "benchmark", "out"),
		openConns: min(runtime.NumCPU(), 2), seconds: *seconds}
	if env.bin, err = buildSflowd(absRoot); err != nil {
		return 1, err
	}
	// A signal must not leave a sflowd behind: children are reaped by the
	// deferred calls in driveDaemon, which run when the main goroutine
	// unwinds, so a signal only asks the process to stop starting work.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	interrupted := func() bool {
		select {
		case <-sig:
			return true
		default:
			return false
		}
	}

	fmt.Printf("env: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d connections=1 (closed loop) or %d (open loop) traffic=loopback-tcp\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commitOf(absRoot), *seed, env.openConns)

	sets := 1
	if *repeat {
		sets = 2
	}
	all := make([][]*result, sets)
	ok := true
	for s := range all {
		for i := range defs {
			if interrupted() {
				return 130, fmt.Errorf("interrupted")
			}
			r, err := runWorkload(env, &defs[i], *seed, *trace == 1)
			if err != nil {
				return 1, fmt.Errorf("%s: %w", defs[i].Name, err)
			}
			printResult(r)
			all[s] = append(all[s], r)
			ok = ok && r.Correct && r.Invalid == ""
		}
	}
	if *repeat && !compareSets(all[0], all[1]) {
		ok = false
	}
	if err := writeJSON(filepath.Join(env.outDir, "report.json"), all); err != nil {
		return 1, err
	}
	if *workload != "" && !*repeat {
		// The driver's line: exactly these four keys, last on stdout.
		r := all[0][0]
		metrics := map[string]any{}
		for _, m := range metricsFor(r.Trace) {
			metrics[m.Name] = map[string]any{"value": r.Metrics[m.Name], "unit": m.Unit}
		}
		line, err := json.Marshal(map[string]any{"correct": r.Correct, "attempted": r.Attempted,
			"failed": r.Failed, "metrics": metrics})
		if err != nil {
			return 1, err
		}
		fmt.Println(string(line))
		if !r.Correct {
			return 1, nil
		}
		return 0, nil
	}
	if !ok {
		return 1, nil
	}
	return 0, nil
}

func (e *environment) connsFor(def *workloadDef) int {
	if def.Open {
		return e.openConns
	}
	return 1
}

func metricsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// runWorkload measures one workload: the end-to-end leg, or the traced one.
func runWorkload(env *environment, def *workloadDef, seed int64, traced bool) (*result, error) {
	if traced {
		return runTraced(env, def, seed)
	}
	p, err := buildPlan(def, seed, env.connsFor(def), env.seconds)
	if err != nil {
		return nil, err
	}
	leg, err := driveDaemon(p, env.bin, env.seconds, setupMaxRounds, env.outDir)
	if err != nil {
		return nil, err
	}
	r := &result{Workload: def.Name, Seed: seed, Attempted: max(leg.attempted, 1), Failed: leg.failed,
		Correct: leg.failed == 0 && leg.attempted > 0, Invalid: leg.invalid(def.Open),
		Failures: leg.failures, Metrics: map[string]float64{}, Samples: map[string]int{}}
	perSlice := func(q float64) func(*windowSlice) (float64, bool) {
		return func(sl *windowSlice) (float64, bool) {
			xs := sl.lat[def.Primary]
			return quantile(sortedCopy(xs), q), len(xs) > 0
		}
	}
	r.Slices = map[string][]float64{}
	for i := range leg.slices {
		sl := &leg.slices[i]
		p50, _ := perSlice(0.5)(sl)
		p90, _ := perSlice(0.9)(sl)
		r.Slices["op_p50_us"] = append(r.Slices["op_p50_us"], p50)
		r.Slices["op_p90_us"] = append(r.Slices["op_p90_us"], p90)
	}
	r.Metrics["setup_s"] = median(leg.setups)
	r.Metrics["op_p50_us"] = leg.overSlices(perSlice(0.5))
	r.Metrics["op_p90_us"] = leg.overSlices(perSlice(0.9))
	// Rates are taken over the whole window: a slice holds too few of
	// lazy-large's 100 ms solves for a steady count, and the CPU clock of
	// /proc ticks only every 10 ms.
	r.Metrics["ops_per_s"] = float64(leg.completed()) / leg.windowS
	r.Metrics["cpu_us_per_op"] = leg.cpuS * 1e6 / float64(max(leg.completed(), 1))
	r.Metrics["peak_rss_mb"] = leg.hwmMB
	r.Samples["setup_s"] = len(leg.setups)
	r.Samples["op_p50_us"] = len(leg.lat[def.Primary])
	r.Samples["op_p90_us"] = len(leg.lat[def.Primary])
	addDaemonDetail(r, leg, def)
	return r, nil
}

// addDaemonDetail records the sflowd.* group: every op kind's latency, the
// tail, and the numbers that say whether the run measured sflowd at all.
func addDaemonDetail(r *result, leg *legResult, def *workloadDef) {
	for k := opKind(0); k < numOpKinds; k++ {
		s := sortedCopy(leg.lat[k])
		name := "sflowd." + k.String() + "_p50_us"
		r.Metrics[name] = quantile(s, 0.5)
		r.Samples[name] = len(s)
	}
	solves := sortedCopy(leg.lat[opSolve])
	r.Metrics["sflowd.solve_p99_us"] = quantile(solves, 0.99)
	r.Samples["sflowd.solve_p99_us"] = len(solves)
	if top := highestPercentile(len(leg.lat[def.Primary])); top > 0 {
		r.Tail = fmt.Sprintf("sflowd.op_p%g_us", top*100)
		r.Metrics[r.Tail] = quantile(sortedCopy(leg.lat[def.Primary]), top)
		r.Samples[r.Tail] = len(leg.lat[def.Primary])
	}
	r.Metrics["sflowd.cpu_us_per_op"] = leg.cpuS * 1e6 / float64(max(leg.completed(), 1))
	r.Metrics["sflowd.gen_late_p90_us"] = quantile(sortedCopy(leg.lateUS), 0.9)
	r.Metrics["sflowd.harness_cpu_share"] = leg.harnessCPU / leg.windowS
	r.Metrics["sflowd.rss_end_mb"] = leg.rssMB
}

func printResult(r *result) {
	def := findWorkload(r.Workload)
	loop := "closed loop"
	if def.Open {
		loop = "open loop, timed from due time"
	}
	fmt.Printf("workload %s seed=%d %s, op=%s: attempted=%d failed=%d failed_share=%.6f\n",
		r.Workload, r.Seed, loop, def.Primary, r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
	for _, f := range r.Failures {
		fmt.Printf("  FAILURE %s\n", f)
	}
	if r.Invalid != "" {
		// An invalid leg measured the generator, not sflowd: its numbers are
		// withheld from the table (the driver's line still carries them).
		fmt.Printf("  invalid: %s\n", r.Invalid)
		if !r.Trace {
			return
		}
	}
	for _, m := range metricsFor(r.Trace) {
		if r.Invalid == "" || !strings.HasPrefix(m.Name, "sflowd.") {
			printMetric(r, m.Name, m.Unit, m.Better, m.Bound)
		}
	}
	if !r.Trace {
		// Beside the gated metrics: what the leg knows of the sflowd.* group.
		for _, m := range perLayer {
			if r.Metrics[m.Name] != 0 {
				printMetric(r, m.Name, m.Unit, m.Better, 0)
			}
		}
		if r.Tail != "" {
			printMetric(r, r.Tail, "us", "lower", 0)
		}
		return
	}
	for _, d := range dominance {
		if d.workload != r.Workload {
			continue
		}
		share, verdict := d.share(r.Metrics), "holds"
		if share < d.min || share > d.max {
			verdict = "DOES NOT HOLD"
		}
		fmt.Printf("  share %-62s %8.4f, predicted within [%g, %g]: %s\n", d.what, share, d.min, d.max, verdict)
	}
}

func printMetric(r *result, name, unit, better string, bound float64) {
	line := fmt.Sprintf("  %-34s %14.4f %-6s %s is better", name, r.Metrics[name], unit, better)
	if bound > 0 {
		line += fmt.Sprintf(", bound %.0f%%", bound*100)
	}
	if n, ok := r.Samples[name]; ok {
		line += fmt.Sprintf(", n=%d", n)
	}
	fmt.Println(line)
}

// compareSets prints both values of every workload x end-to-end metric, their
// relative gap and the bound, and reports whether every gap is within bound.
func compareSets(a, b []*result) bool {
	ok := true
	fmt.Println("repeat: two sets of the same code")
	for i := range a {
		for _, m := range metricsFor(a[i].Trace) {
			if m.Bound == 0 {
				continue
			}
			x, y := a[i].Metrics[m.Name], b[i].Metrics[m.Name]
			gap := relGap(x, y, m.Better)
			if gap < 0 {
				gap = relGap(y, x, m.Better)
			}
			verdict := "ok"
			if gap > m.Bound {
				verdict, ok = "BEYOND BOUND", false
			}
			fmt.Printf("  %-12s %-14s %14.4f %14.4f %-5s gap %6.2f%% bound %3.0f%% %s\n",
				a[i].Workload, m.Name, x, y, m.Unit, gap*100, m.Bound*100, verdict)
		}
		if a[i].Failed+b[i].Failed > 0 {
			ok = false
		}
	}
	return ok
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-12s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics (-trace 0):")
	for _, m := range endToEnd {
		fmt.Printf("  %-34s %-6s %s is better, bound %.0f%%: %s\n", m.Name, m.Unit, m.Better, m.Bound*100, m.Doc)
	}
	fmt.Println("per-layer metrics (-trace 1):")
	for _, m := range perLayer {
		fmt.Printf("  %-34s %-6s %s\n", m.Name, m.Unit, m.Doc)
	}
}

func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
