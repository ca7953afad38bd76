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
	"sflow/internal/scenario"
	"sflow/internal/session"
)

// The serving equivalence battery: under seeded churn and concurrent
// clients, every RPC Solve answer must be byte-identical to the stateless
// sflow.Solve run over the frozen overlay of the epoch the answer names, and
// every named epoch must have been fully published (recorded by the publish
// hook before any reader can observe it) — no request sees a half-published
// epoch.

// epochOracle records every published snapshot, keyed by epoch id.
type epochOracle struct {
	mu   sync.Mutex
	byID map[uint64]*session.Snapshot
}

func (o *epochOracle) record(sn *session.Snapshot) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.byID[sn.Epoch] = sn
}

func (o *epochOracle) lookup(id uint64) *session.Snapshot {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.byID[id]
}

// checkEquivalent asserts one served response equals the stateless solve on
// the recorded epoch state.
func checkEquivalent(oracle *epochOracle, alg string, req *sflow.Requirement, src int, resp *daemon.Response) error {
	rec := oracle.lookup(resp.Epoch)
	if rec == nil {
		return fmt.Errorf("response names epoch %d that was never fully published", resp.Epoch)
	}
	sol, err := sflow.Solve(alg, rec.Overlay, req, src, sflow.SolveOptions{Workers: 1})
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

func TestDaemonServingEquivalenceBattery(t *testing.T) {
	for _, kind := range []scenario.Kind{scenario.KindGeneral, scenario.KindSplitMerge} {
		t.Run(kind.String(), func(t *testing.T) {
			sc, err := scenario.Generate(scenario.Config{
				Seed: 11, NetworkSize: 20, Services: 5,
				InstancesPerService: 3, Kind: kind,
			})
			if err != nil {
				t.Fatal(err)
			}

			oracle := &epochOracle{byID: make(map[uint64]*session.Snapshot)}
			srv := daemon.New(sc.Overlay, daemon.Options{Routing: daemon.Routing{Workers: 1}, PublishHook: oracle.record})
			if err := srv.Serve("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			algorithms := []string{"heuristic", "fixed", "random", "optimal", "servicepath"}
			links := sc.Overlay.Links()

			const readers, calls, mutations = 6, 20, 60
			var wg sync.WaitGroup
			errs := make(chan error, readers+1)

			wg.Add(1)
			go func() { // churn client: alternating bandwidth growth and decay
				defer wg.Done()
				c, err := daemon.Dial(srv.Addr())
				if err != nil {
					errs <- err
					return
				}
				defer c.Close()
				for i := 0; i < mutations; i++ {
					l := links[i%len(links)]
					kind := daemon.MutGrowBandwidth
					if i%2 == 1 {
						kind = daemon.MutReduceBandwidth
					}
					resp, err := c.Mutate(daemon.Mutation{Kind: kind, From: l.From, To: l.To, Delta: int64(1 + i%7)})
					if err != nil {
						errs <- err
						return
					}
					// A reduce may legally fail after the link decayed
					// away; only transport errors are fatal here.
					_ = resp
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
						alg := algorithms[(id+i)%len(algorithms)]
						resp, err := c.Solve(alg, sc.Req, sc.SourceNID)
						if err != nil {
							errs <- err
							return
						}
						if err := checkEquivalent(oracle, alg, sc.Req, sc.SourceNID, resp); err != nil {
							errs <- err
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
		})
	}
}

// TestDaemonRepairEquivalence drives the repair RPC and asserts the daemon's
// post-repair state answers exactly like a stateless solve over the repaired
// overlay.
func TestDaemonRepairEquivalence(t *testing.T) {
	sc, err := scenario.Generate(scenario.Config{
		Seed: 12, NetworkSize: 20, Services: 5,
		InstancesPerService: 3, Kind: scenario.KindGeneral,
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle := &epochOracle{byID: make(map[uint64]*session.Snapshot)}
	srv := daemon.New(sc.Overlay, daemon.Options{Routing: daemon.Routing{Workers: 1}, PublishHook: oracle.record})
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := daemon.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

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
	if _, err := c.Repair(sc.Req, sc.SourceNID, []int{victim}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Solve("heuristic", sc.Req, sc.SourceNID)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkEquivalent(oracle, "heuristic", sc.Req, sc.SourceNID, resp); err != nil {
		t.Fatal(err)
	}
}
