// Command sflowd is the long-lived serving daemon: it owns one service
// overlay and answers Solve, Repair, mutation and multi-tenant admission
// RPCs from many concurrent clients. Reads are lock-free (handlers route
// against an immutable epoch fetched with one atomic load); writes are
// serialized through a single writer goroutine that batches mutations and
// publishes fresh epochs — see DESIGN.md, "Serving architecture". Admission
// (admit/release/tenants ops) runs through a capacity allocator configured
// by -classes/-quota/-preempt/-instance-capacity; see DESIGN.md,
// "Multi-tenant allocator". With -reopt the daemon also runs the
// congestion-driven reoptimizer: every -reopt-interval it inspects per-link
// admitted load (served by the `links` op), flags links sustained above
// -hot-threshold, and live-migrates the cheapest tenants off them under a
// no-regression gate — see DESIGN.md, "Re-optimization loop".
//
// The overlay is generated reproducibly from the scenario flags, so a load
// generator started with the same flags (the benchmark harness) targets the same
// requirement without any side channel.
//
// Usage:
//
//	sflowd -addr 127.0.0.1:0 -addrfile /tmp/sflowd.addr -seed 1 -size 20
//
// The served address is printed to stdout (and written to -addrfile when
// given) once the listener is up. SIGINT or SIGTERM shuts down cleanly and
// prints the stable metrics snapshot to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sflow"
	"sflow/internal/daemon"
	"sflow/internal/provision"
	"sflow/internal/reopt"
)

// parseQuotas turns "100,50,0" into per-class admission quotas.
func parseQuotas(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	quotas := make([]int, len(parts))
	for i, p := range parts {
		q, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || q < 0 {
			return nil, fmt.Errorf("bad -quota entry %q (want non-negative integers)", p)
		}
		quotas[i] = q
	}
	return quotas, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sflowd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sflowd", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:0", "address to serve on (:0 picks a free port)")
		addrfile = fs.String("addrfile", "", "write the served address to this file once listening")

		seed      = fs.Int64("seed", 1, "scenario seed")
		size      = fs.Int("size", 20, "underlay network size")
		services  = fs.Int("services", 5, "number of required services")
		instances = fs.Int("instances", 3, "instances per non-source service")
		kind      = fs.String("kind", "general", "requirement shape: path, disjoint, split-merge or general")
		workers   = fs.Int("workers", 0, "recompute fan-out (0 = GOMAXPROCS)")
		lazy      = fs.Bool("lazy", false, "demand-driven routing: no all-pairs computation at boot, rows materialize on first read, churn evicts instead of recomputing (for -large overlays)")
		large     = fs.Int("large", 0, "serve a directly generated large overlay with this many nodes instead of the underlay scenario (path requirement; pair with -lazy)")
		maxRows   = fs.Int("max-rows", 0, "bound the lazy row cache: keep at most this many materialized routing rows, LRU-evicting beyond it (0 = unbounded; requires -lazy)")

		classes = fs.Int("classes", 1, "number of admission priority classes")
		quota   = fs.String("quota", "", "per-class admission quotas, comma-separated (0 = unlimited), e.g. 100,50")
		preempt = fs.Bool("preempt", false, "let higher classes preempt strictly lower ones when capacity runs out")
		percap  = fs.Int("instance-capacity", 0, "concurrent admissions per service instance (0 = unlimited)")

		reoptOn  = fs.Bool("reopt", false, "run the congestion-driven reoptimizer loop (live migration off hot links)")
		hotTh    = fs.Float64("hot-threshold", 0.9, "link utilization at which the reoptimizer considers a link hot")
		reoptIvl = fs.Duration("reopt-interval", time.Second, "reoptimizer step period")
		sustain  = fs.Int("reopt-sustain", 2, "consecutive hot observations before a link is declared congested")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	quotas, err := parseQuotas(*quota)
	if err != nil {
		return err
	}
	if *maxRows > 0 && !*lazy {
		return fmt.Errorf("-max-rows bounds the lazy row cache and requires -lazy")
	}

	k, err := sflow.ParseScenarioKind(*kind)
	if err != nil {
		return err
	}
	var sc *sflow.Scenario
	if *large > 0 {
		sc, err = sflow.GenerateLargeScenario(sflow.LargeScenarioConfig{
			Seed: *seed, Nodes: *large, Services: *services,
			InstancesPerService: *instances,
		})
		k = sflow.KindPath
	} else {
		sc, err = sflow.GenerateScenario(sflow.ScenarioConfig{
			Seed: *seed, NetworkSize: *size, Services: *services,
			InstancesPerService: *instances, Kind: k,
		})
	}
	if err != nil {
		return err
	}

	reg := sflow.NewMetrics()
	srv := daemon.New(sc.Overlay, daemon.Options{
		Routing: daemon.Routing{Workers: *workers, Lazy: *lazy, MaxRows: *maxRows, Metrics: reg},
		Admission: provision.AllocatorOptions{
			Classes:          *classes,
			Quotas:           quotas,
			Preempt:          *preempt,
			InstanceCapacity: *percap,
		},
		Reopt: daemon.ReoptOptions{
			Enabled:  *reoptOn,
			Detector: reopt.DetectorConfig{HotThreshold: *hotTh, Sustain: *sustain},
			Interval: *reoptIvl,
		},
	})
	if err := srv.Serve(*addr); err != nil {
		srv.Close()
		return err
	}
	scale := *size
	if *large > 0 {
		scale = *large
	}
	fmt.Printf("sflowd: serving seed=%d size=%d services=%d kind=%s on %s\n",
		*seed, scale, *services, k, srv.Addr())
	// The handler goes in before the address file appears: whoever waits
	// for the file may signal the daemon the moment it does.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if *addrfile != "" {
		if err := os.WriteFile(*addrfile, []byte(srv.Addr()+"\n"), 0o644); err != nil {
			srv.Close()
			return err
		}
	}
	<-sig
	fmt.Fprintln(os.Stderr, "sflowd: shutting down")
	srv.Close()
	// The full rendering, volatile levels included: a live daemon's numbers
	// depend on its load anyway, and the row-cache gauges are among them.
	fmt.Fprint(os.Stderr, reg.Snapshot().Text())
	return nil
}
