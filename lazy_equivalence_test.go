package sflow

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"sflow/internal/abstract"
	"sflow/internal/session"
)

// TestLazySolveByteIdentical is the scale-equivalence battery's facade half:
// for every algorithm of the Solve registry, on scenarios of every
// requirement shape, the demand-driven lazy routing path returns
// byte-identical output (JSON-encoded flow graph and metric) to the eager
// all-pairs path — both through the stateless Solve and through sessions.
func TestLazySolveByteIdentical(t *testing.T) {
	kinds := []ScenarioKind{KindPath, KindGeneral, KindDisjoint, KindSplitMerge}
	algorithms := append(Algorithms(), "hierarchical")
	for seed := int64(0); seed < 4; seed++ {
		sc, err := GenerateScenario(ScenarioConfig{
			Seed: seed + 200, NetworkSize: 25, Services: 5,
			InstancesPerService: 3, Kind: kinds[int(seed)%len(kinds)],
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range algorithms {
			// The "random" algorithm draws from SolveOptions.Rng: seed both
			// paths identically so any divergence is the lazy table's.
			got, gerr := Solve(name, sc.Overlay, sc.Req, sc.SourceNID,
				SolveOptions{Lazy: true, Rng: rand.New(rand.NewSource(seed))})
			want, werr := Solve(name, sc.Overlay, sc.Req, sc.SourceNID,
				SolveOptions{Rng: rand.New(rand.NewSource(seed))})
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("seed %d %s: error mismatch: lazy %v, eager %v", seed, name, gerr, werr)
			}
			if gerr != nil {
				if gerr.Error() != werr.Error() {
					t.Fatalf("seed %d %s: error text diverged:\nlazy:  %v\neager: %v", seed, name, gerr, werr)
				}
				continue
			}
			if got.Metric != want.Metric {
				t.Fatalf("seed %d %s: metric %v != %v", seed, name, got.Metric, want.Metric)
			}
			gj, err := json.Marshal(got.Flow)
			if err != nil {
				t.Fatal(err)
			}
			wj, err := json.Marshal(want.Flow)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gj, wj) {
				t.Fatalf("seed %d %s: flow graphs diverged:\nlazy:  %s\neager: %s", seed, name, gj, wj)
			}
		}
	}
}

// TestLazySessionSolveByteIdentical churns a lazy session and an eager
// session through the same mutation trace and demands byte-identical answers
// from every registry algorithm at every checkpoint — the session half of
// the scale-equivalence battery.
func TestLazySessionSolveByteIdentical(t *testing.T) {
	events := 300
	if testing.Short() {
		events = 100
	}
	algorithms := append(Algorithms(), "hierarchical")
	for seed := int64(0); seed < 2; seed++ {
		sc, err := GenerateScenario(ScenarioConfig{
			Seed: seed + 300, NetworkSize: 20, Services: 5, InstancesPerService: 3,
			Kind: KindGeneral,
		})
		if err != nil {
			t.Fatal(err)
		}
		lazy := NewSession(sc.Overlay, SessionOptions{Lazy: true})
		eager := NewSession(sc.Overlay, SessionOptions{Workers: 1})
		// Identical churn traces: same seed, same overlay, same guards.
		lc := session.NewChurn(lazy.Session, seed*11+1, []int{sc.SourceNID}, sc.Req.Services())
		ec := session.NewChurn(eager.Session, seed*11+1, []int{sc.SourceNID}, sc.Req.Services())
		for e := 1; e <= events; e++ {
			if _, err := lc.Step(); err != nil {
				t.Fatalf("seed %d event %d (lazy): %v", seed, e, err)
			}
			if _, err := ec.Step(); err != nil {
				t.Fatalf("seed %d event %d (eager): %v", seed, e, err)
			}
			if e%20 != 0 {
				continue
			}
			for _, name := range algorithms {
				got, gerr := lazy.Solve(name, sc.Req, sc.SourceNID,
					SolveOptions{Rng: rand.New(rand.NewSource(int64(e)))})
				want, werr := eager.Solve(name, sc.Req, sc.SourceNID,
					SolveOptions{Rng: rand.New(rand.NewSource(int64(e)))})
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("seed %d event %d %s: error mismatch: lazy %v, eager %v", seed, e, name, gerr, werr)
				}
				if gerr != nil {
					continue
				}
				if got.Metric != want.Metric {
					t.Fatalf("seed %d event %d %s: metric %v != %v", seed, e, name, got.Metric, want.Metric)
				}
				gj, _ := json.Marshal(got.Flow)
				wj, _ := json.Marshal(want.Flow)
				if !bytes.Equal(gj, wj) {
					t.Fatalf("seed %d event %d %s: flow graphs diverged:\nlazy:  %s\neager: %s", seed, e, name, gj, wj)
				}
			}
		}
		if st := lazy.Stats(); st.EvictedRows == 0 {
			t.Fatalf("seed %d: lazy session evicted nothing over %d events", seed, events)
		}
	}
}

// TestContractedHierarchicalSolves covers the contracted fast path of the
// hierarchical algorithm: it must solve the evaluation scenarios the classic
// hierarchical algorithm solves, deterministically (same answer twice), with
// a feasible metric.
func TestContractedHierarchicalSolves(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		sc, err := GenerateScenario(ScenarioConfig{
			Seed: seed + 400, NetworkSize: 30, Services: 5, InstancesPerService: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve("hierarchical", sc.Overlay, sc.Req, sc.SourceNID,
			SolveOptions{Contracted: true})
		if err != nil {
			t.Fatalf("seed %d: contracted solve: %v", seed, err)
		}
		if got.Flow == nil || got.Metric.Bandwidth <= 0 {
			t.Fatalf("seed %d: contracted solve returned no usable flow (metric %v)", seed, got.Metric)
		}
		again, err := Solve("hierarchical", sc.Overlay, sc.Req, sc.SourceNID,
			SolveOptions{Contracted: true})
		if err != nil {
			t.Fatalf("seed %d: contracted re-solve: %v", seed, err)
		}
		gj, _ := json.Marshal(got.Flow)
		aj, _ := json.Marshal(again.Flow)
		if got.Metric != again.Metric || !bytes.Equal(gj, aj) {
			t.Fatalf("seed %d: contracted solve is nondeterministic", seed)
		}
	}
}

// TestLazyLargeOverlayInteractive is the scale acceptance test: a single
// demand-driven federation against a 50k-node generated overlay computes
// exactly the requirement's slot sources — overlay size buys no extra
// routing work — with the kernel work pinned as exact counts. Its wall-clock
// budget is lazy-check's (BenchmarkLazyFederate/n=50000), not this test's.
// Skipped under the race detector (minutes of instrumented generation) and
// in -short runs.
func TestLazyLargeOverlayInteractive(t *testing.T) {
	if raceEnabled {
		t.Skip("50k-node solve skipped under the race detector")
	}
	if testing.Short() {
		t.Skip("50k-node solve skipped in -short")
	}
	const (
		wantRuns        = 9
		wantRelaxations = 3877938
	)
	cfg := LargeScenarioConfig{Seed: 1, Nodes: 50_000, InstancesPerService: 2}
	sc, err := GenerateLargeScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := int64(len(abstract.SlotSources(sc.Overlay, sc.Req)))

	reg := NewMetrics()
	sol, err := Solve("heuristic", sc.Overlay, sc.Req, sc.SourceNID,
		SolveOptions{Lazy: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Metric.Bandwidth <= 0 || !sol.Flow.Complete(sc.Req) {
		t.Fatalf("50k-node solve returned no usable flow (metric %v)", sol.Metric)
	}
	for _, c := range []struct {
		key  string
		want int64
	}{
		{"qos_lazy_rows_computed_total", wantRows},
		{"qos_shortest_widest_runs_total", wantRuns},
		{"qos_relaxations_total", wantRelaxations},
	} {
		if got := reg.Counter(c.key).Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.key, got, c.want)
		}
	}
}
