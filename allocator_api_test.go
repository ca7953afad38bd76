package sflow_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sflow"
)

// apiScenario is a small contended workload for the admission-API tests.
func apiScenario(t testing.TB, seed int64) *sflow.Scenario {
	t.Helper()
	sc, err := sflow.GenerateScenario(sflow.ScenarioConfig{
		Seed:                seed,
		NetworkSize:         24,
		Services:            5,
		InstancesPerService: 3,
		Kind:                sflow.KindGeneral,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// RegistryAlgorithm resolves the distributed "sflow" protocol and every name
// Solve accepts, and no other.
func TestRegistryAlgorithmResolvesEveryName(t *testing.T) {
	sc := apiScenario(t, 11)
	for _, name := range append(sflow.Algorithms(), "sflow") {
		alg := sflow.RegistryAlgorithm(name, sflow.SolveOptions{})
		if _, _, err := alg(sc.Overlay, sc.Req, sc.SourceNID); err != nil &&
			!errors.Is(err, sflow.ErrPartialFederation) &&
			name != "baseline" { // baseline requires path-shaped requirements
			t.Fatalf("%s: %v", name, err)
		}
	}
	// Unknown names surface ErrUnknownAlgorithm at run time.
	if _, _, err := sflow.RegistryAlgorithm("nope", sflow.SolveOptions{})(sc.Overlay, sc.Req, sc.SourceNID); !errors.Is(err, sflow.ErrUnknownAlgorithm) {
		t.Fatalf("err = %v, want ErrUnknownAlgorithm", err)
	}
}

func TestAllocatorPublicAPI(t *testing.T) {
	sc := apiScenario(t, 3)
	reg := sflow.NewMetrics()
	al := sflow.NewAllocator(sc.Overlay, sflow.AllocatorOptions{
		Classes: 2,
		Quotas:  []int{0, 4},
		Preempt: true,
		Metrics: reg,
	})
	defer al.Close()

	tk, err := al.Admit(sc.Req, sc.SourceNID, sflow.AdmitOptions{Demand: 50, Class: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tk.ID == 0 || tk.Tag != "heuristic" {
		t.Fatalf("ticket = %+v", tk)
	}
	tenants := al.Tenants()
	if len(tenants) != 1 || tenants[0].Class != 1 {
		t.Fatalf("tenants = %+v", tenants)
	}
	// Saturate until a typed rejection appears and check its shape.
	var aerr *sflow.AdmissionError
	for i := 0; i < 200; i++ {
		_, err := al.Admit(sc.Req, sc.SourceNID, sflow.AdmitOptions{Demand: 400, Algorithm: "heuristic"})
		if err == nil {
			continue
		}
		if !errors.Is(err, sflow.ErrRejected) || !errors.As(err, &aerr) {
			t.Fatalf("rejection not typed: %v", err)
		}
		break
	}
	if aerr == nil {
		t.Fatal("never rejected despite demand 400 spam")
	}
	switch aerr.Reason {
	case sflow.ReasonBandwidth, sflow.ReasonNoFlow, sflow.ReasonCompute, sflow.ReasonQuota:
	default:
		t.Fatalf("unknown reason %q", aerr.Reason)
	}
	if al.Utilization() == 0 {
		t.Fatal("utilization 0 with a 50-demand tenant admitted")
	}
	if res := al.Residual(); res == nil || res.NumInstances() != sc.Overlay.NumInstances() {
		t.Fatalf("residual snapshot = %v", res)
	}
	if err := al.Release(tk.ID); err != nil {
		t.Fatal(err)
	}
	if err := al.Release(tk.ID); !errors.Is(err, sflow.ErrNoTicket) {
		t.Fatalf("double release err = %v, want ErrNoTicket", err)
	}
	if cc := al.Classes(); cc[1].Admitted == 0 || cc[1].Released != 1 {
		t.Fatalf("counters = %+v", cc)
	}
	// The metrics registry saw the admissions.
	if txt := reg.Snapshot().Text(); txt == "" {
		t.Fatal("empty metrics snapshot")
	}
	al.Close()
	if _, err := al.Admit(sc.Req, sc.SourceNID, sflow.AdmitOptions{Demand: 1}); !errors.Is(err, sflow.ErrAllocatorClosed) {
		t.Fatalf("post-Close err = %v, want ErrAllocatorClosed", err)
	}
}

// The default Tag (= algorithm name) makes logs self-describing: a nil
// algFor replays them against the registry.
func TestReplayAdmissionsWithNilAlgFor(t *testing.T) {
	sc := apiScenario(t, 5)
	opts := sflow.AllocatorOptions{Classes: 2, Preempt: true}
	al := sflow.NewAllocator(sc.Overlay, opts)
	defer al.Close()
	rng := rand.New(rand.NewSource(9))
	var ids []uint64
	for i := 0; i < 40; i++ {
		tk, err := al.Admit(sc.Req, sc.SourceNID, sflow.AdmitOptions{
			Demand: int64(30 + rng.Intn(120)), Class: rng.Intn(2),
		})
		if err == nil {
			ids = append(ids, tk.ID)
			continue
		}
		if !errors.Is(err, sflow.ErrRejected) {
			t.Fatal(err)
		}
	}
	for _, id := range ids[:len(ids)/2] {
		if err := al.Release(id); err != nil && !errors.Is(err, sflow.ErrNoTicket) {
			t.Fatal(err)
		}
	}
	seq, err := sflow.ReplayAdmissions(sc.Overlay, opts, al.Log(), nil)
	if err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
	if got, want := al.Tenants(), seq.Tenants(); !reflect.DeepEqual(got, want) {
		t.Fatalf("tenants diverge:\nlive %+v\n seq %+v", got, want)
	}
	if got, want := al.Classes(), seq.Classes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("counters diverge:\nlive %+v\n seq %+v", got, want)
	}
}

// TTL leases expire through the same writer loop as explicit releases.
func TestAllocatorTTLThroughPublicAPI(t *testing.T) {
	sc := apiScenario(t, 2)
	al := sflow.NewAllocator(sc.Overlay, sflow.AllocatorOptions{})
	defer al.Close()
	if _, err := al.Admit(sc.Req, sc.SourceNID, sflow.AdmitOptions{
		Demand: 40, TTL: 10 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(al.Tenants()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if cc := al.Classes(); cc[0].Expired != 1 {
		t.Fatalf("counters = %+v", cc)
	}
}
