package reopt

import (
	"fmt"
	"testing"

	"sflow/internal/abstract"
	"sflow/internal/provision"
	"sflow/internal/qos"
	"sflow/internal/reduce"
)

// BenchmarkPlannerMigration prices one committed live migration end to end:
// the session-masked re-solve (ledger diff → incremental flush → abstract →
// reduce) plus the allocator's release/re-admit swap on the writer loop. The
// tenant ping-pongs between the fat path and an alt by masking whichever
// first-hop link it currently uses, so every iteration commits exactly one
// migration against steady background load. Gated by results/BENCH_reopt.json
// (make reopt-check).
func BenchmarkPlannerMigration(b *testing.B) {
	const alts = 4
	ov, req, _ := concentrateOverlay(b, alts)
	ledger := NewLedger(ov, nil)
	alloc := provision.NewAllocator(ov, provision.AllocatorOptions{Observer: ledger})
	defer alloc.Close()

	// Background tenants so the ledger diffs are non-trivial.
	for i := 0; i < 5; i++ {
		if _, err := alloc.Admit(provision.AdmitRequest{
			Req: req, Src: 0, Demand: 60, Tag: fmt.Sprintf("bg%d", i), Alg: heuristicAlg,
		}); err != nil {
			b.Fatal(err)
		}
	}
	mover, err := alloc.Admit(provision.AdmitRequest{Req: req, Src: 0, Demand: 40, Tag: "mover", Alg: heuristicAlg})
	if err != nil {
		b.Fatal(err)
	}
	p := NewPlanner(alloc, ledger, ov, PlannerConfig{Routing: qos.Options{Workers: 1}})

	// firstHop finds the link the mover currently leaves the source on — the
	// link to mask so the next solve must re-place it elsewhere.
	firstHop := func(t *provision.Ticket) Link {
		for link := range t.Reservations() {
			if link[0] == 0 {
				return link
			}
		}
		b.Fatal("mover has no first-hop reservation")
		return Link{}
	}

	cur := mover
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hot := firstHop(cur)
		fresh, err := alloc.Migrate(cur.ID, p.algorithm(hot, cur.ID), nil,
			fmt.Sprintf("reopt:%d-%d", hot[0], hot[1]))
		if err != nil {
			b.Fatal(err)
		}
		cur = fresh
	}
}

// BenchmarkReoptCalibration is the machine-speed proxy the regression gate
// normalizes BenchmarkPlannerMigration against (benchjson -normalize): one
// stateless abstract build + reduce solve on the same topology, no planner
// machinery involved.
func BenchmarkReoptCalibration(b *testing.B) {
	ov, req, _ := concentrateOverlay(b, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ag, err := abstract.Build(ov, req)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := reduce.Solve(ag, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}
