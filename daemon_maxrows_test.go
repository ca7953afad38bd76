package sflow_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	sflow "sflow"
	"sflow/internal/daemon"
	"sflow/internal/metrics"
	"sflow/internal/qos"
	"sflow/internal/session"
)

// The -max-rows acceptance battery: a lazy daemon over a GenerateLarge
// overlay with a bounded row cache, driven by a read set that drifts across
// requirement shapes inside every epoch, must (a) keep each published
// table's resident rows at or below the bound while the bound demonstrably
// fires, and (b) serve every answer byte-identical to a stateless
// sflow.Solve over the frozen overlay of the epoch the answer names —
// eviction is a memory decision, never a correctness one.

// checkEquivalentLazy is checkEquivalent for the large-overlay regime: the
// stateless oracle itself solves demand-driven (byte-identical to eager by
// the lazy equivalence battery), so the comparison stays feasible at 20k
// nodes.
func checkEquivalentLazy(oracle *epochOracle, alg string, req *sflow.Requirement, src int, resp *daemon.Response) error {
	rec := oracle.lookup(resp.Epoch)
	if rec == nil {
		return fmt.Errorf("response names epoch %d that was never fully published", resp.Epoch)
	}
	sol, err := sflow.Solve(alg, rec.Overlay, req, src, sflow.SolveOptions{Lazy: true, Workers: 1})
	switch {
	case resp.Err == "":
		if err != nil {
			return fmt.Errorf("epoch %d %s: daemon succeeded, stateless solve failed: %v", resp.Epoch, alg, err)
		}
		wantFlow, merr := json.Marshal(sol.Flow)
		if merr != nil {
			return merr
		}
		if !bytes.Equal(resp.Flow, wantFlow) {
			return fmt.Errorf("epoch %d %s: served flow diverged\n  got  %s\n  want %s", resp.Epoch, alg, resp.Flow, wantFlow)
		}
		if resp.Metric == nil || *resp.Metric != sol.Metric {
			return fmt.Errorf("epoch %d %s: served metric %+v, want %+v", resp.Epoch, alg, resp.Metric, sol.Metric)
		}
	case resp.Partial:
		var partial *sflow.PartialFederationError
		if !errors.As(err, &partial) {
			return fmt.Errorf("epoch %d %s: daemon reported partial, stateless solve gave %v", resp.Epoch, alg, err)
		}
		wantFlow, merr := json.Marshal(partial.Flow)
		if merr != nil {
			return merr
		}
		if !bytes.Equal(resp.Flow, wantFlow) {
			return fmt.Errorf("epoch %d %s: partial flow diverged", resp.Epoch, alg)
		}
	default:
		if err == nil {
			return fmt.Errorf("epoch %d %s: daemon failed (%s), stateless solve succeeded", resp.Epoch, alg, resp.Err)
		}
	}
	return nil
}

func TestDaemonLazyMaxRowsDriftingReadSet(t *testing.T) {
	// 20000 nodes is the sflowd -large regime the flag exists for; maxRows 8
	// is deliberately below the widest requirement's ~13-row read set, so
	// the bound fires both across requirement drift and inside single
	// solves.
	const nodes, maxRows = 20000, 8
	sc, err := sflow.GenerateLargeScenario(sflow.LargeScenarioConfig{Seed: 7, Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}

	oracle := &epochOracle{byID: make(map[uint64]*session.Snapshot)}
	var mu sync.Mutex
	var published []*session.Snapshot
	reg := metrics.New()
	srv := daemon.New(sc.Overlay, daemon.Options{
		Workers: 1, Lazy: true, MaxRows: maxRows, Metrics: reg,
		PublishHook: func(sn *session.Snapshot) {
			oracle.record(sn)
			mu.Lock()
			published = append(published, sn)
			mu.Unlock()
		},
	})
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := daemon.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The drifting read set: each requirement reads the rows of its own
	// slot instances, so cycling shapes keeps forcing the cache to turn
	// over. GenerateLarge places services 1..6 with 1 as the source.
	shapes := [][]int{
		{1, 2}, {1, 3, 4}, {1, 5, 6}, {1, 2, 3, 4, 5, 6}, {1, 6}, {1, 4, 2},
	}
	reqs := make([]*sflow.Requirement, len(shapes))
	for i, sids := range shapes {
		if reqs[i], err = sflow.PathRequirement(sids...); err != nil {
			t.Fatal(err)
		}
	}

	links := sc.Overlay.Links()
	const epochs = 4
	for e := 0; e < epochs; e++ {
		for i, req := range reqs {
			resp, err := c.Solve("heuristic", req, sc.SourceNID)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkEquivalentLazy(oracle, "heuristic", req, sc.SourceNID, resp); err != nil {
				t.Fatalf("epoch round %d shape %v: %v", e, shapes[i], err)
			}
		}
		// Churn a link to publish the next epoch (and dirty its readers).
		l := links[(e*7919)%len(links)]
		if _, err := c.Mutate(daemon.Mutation{
			Kind: daemon.MutGrowBandwidth, From: l.From, To: l.To, Delta: int64(1 + e),
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Every published epoch table must be a bounded lazy table holding at
	// most maxRows resident rows after serving the drifting load.
	mu.Lock()
	defer mu.Unlock()
	if len(published) == 0 {
		t.Fatal("publish hook never ran")
	}
	for _, sn := range published {
		lt, ok := sn.AllPairs.(*qos.AllPairs)
		if !ok {
			t.Fatalf("epoch %d table is %T, want *qos.AllPairs", sn.Epoch, sn.AllPairs)
		}
		if lt.MaxRows() != maxRows {
			t.Fatalf("epoch %d MaxRows = %d, want %d", sn.Epoch, lt.MaxRows(), maxRows)
		}
		if rows := lt.ComputedRows(); len(rows) > maxRows {
			t.Fatalf("epoch %d holds %d resident rows %v, over the -max-rows bound %d",
				sn.Epoch, len(rows), rows, maxRows)
		}
	}
	if evicted := reg.Counter("qos_lazy_lru_evicted_rows_total").Value(); evicted == 0 {
		t.Fatal("the bound never fired: qos_lazy_lru_evicted_rows_total = 0 under a read set wider than MaxRows")
	}
}

// TestDaemonLazyConcurrentEpochs is the race leg of the lazy daemon:
// concurrent clients solve against a bounded lazy daemon at the default
// fan-out while another client streams grow-bandwidth mutations. Readers of
// one epoch fill its rows in parallel batches beside each other's reads, and
// the writer adopts an epoch's rows while its readers still fill it. Every
// answer must equal the stateless solve over the epoch it names, byte for
// byte.
func TestDaemonLazyConcurrentEpochs(t *testing.T) {
	const nodes, maxRows = 2000, 8
	sc, err := sflow.GenerateLargeScenario(sflow.LargeScenarioConfig{Seed: 3, Nodes: nodes,
		Services: 6, InstancesPerService: 4})
	if err != nil {
		t.Fatal(err)
	}
	oracle := &epochOracle{byID: make(map[uint64]*session.Snapshot)}
	srv := daemon.New(sc.Overlay, daemon.Options{Lazy: true, MaxRows: maxRows, PublishHook: oracle.record})
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var reqs []*sflow.Requirement
	for _, sids := range [][]int{{1, 2}, {1, 2, 6}, {1, 3, 6}, {1, 4, 6}, {1, 5, 6}} {
		req, err := sflow.PathRequirement(sids...)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	links := sc.Overlay.Links()

	const readers, calls, mutations = 4, 12, 16
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	wg.Add(1)
	go func() { // the writer: one grown link per batch, one epoch each
		defer wg.Done()
		c, err := daemon.Dial(srv.Addr())
		if err != nil {
			errs <- err
			return
		}
		defer c.Close()
		for i := 0; i < mutations; i++ {
			l := links[(i*7919)%len(links)]
			if _, err := c.Mutate(daemon.Mutation{Kind: daemon.MutGrowBandwidth, From: l.From, To: l.To, Delta: int64(1 + i)}); err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := daemon.Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < calls; i++ {
				req := reqs[(id+i)%len(reqs)]
				resp, err := c.Solve("heuristic", req, sc.SourceNID)
				if err != nil {
					errs <- err
					return
				}
				if err := checkEquivalentLazy(oracle, "heuristic", req, sc.SourceNID, resp); err != nil {
					errs <- fmt.Errorf("reader %d call %d: %w", id, i, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
