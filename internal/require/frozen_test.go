package require

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// replay rebuilds r's services and edges through New and the Add methods: an
// unfrozen requirement whose every view is recomputed on each query.
func replay(r *Requirement) *Requirement {
	fresh := New()
	for _, s := range r.Services() {
		fresh.AddService(s)
	}
	for _, e := range r.Edges() {
		fresh.AddDependency(e[0], e[1])
	}
	return fresh
}

// hopWeight weighs every dependency by its endpoints, so two services reached
// over different paths get different critical-path distances.
func hopWeight(u, v int) int64 { return int64(1 + (u*7+v)%5) }

// viewsOf renders every structural view of r, the validation verdict
// included, for comparison.
func viewsOf(r *Requirement) string {
	err := r.Validate()
	return fmt.Sprintf("validate=%v source=%d sinks=%v topo=%v junctions=%v critical=%v services=%v edges=%v",
		err, r.Source(), r.Sinks(), r.TopoOrder(), r.Junctions(), r.CriticalPath(hopWeight), r.Services(), r.Edges())
}

// TestSharedRequirementIsReadOnly runs every structural query, Validate
// included, from several goroutines on one shared decoded requirement and on
// one shared requirement built through the Add methods (core.Federate
// validates caller-owned requirements like that). Under -race it fails as
// soon as any of these queries writes to the requirement.
func TestSharedRequirementIsReadOnly(t *testing.T) {
	var decoded Requirement
	if err := json.Unmarshal([]byte(`{"services":[1,2,3,4,5,6,7,8],"edges":[[1,2],[1,3],[1,4],[2,5],[2,8],[3,7],[4,8],[5,6],[5,7],[6,8],[7,8]]}`), &decoded); err != nil {
		t.Fatal(err)
	}
	want := viewsOf(replay(&decoded))
	for _, shared := range []*Requirement{&decoded, replay(&decoded)} {
		// want comes from a copy: the first query of shared runs concurrently.
		var wg sync.WaitGroup
		errs := make(chan string, 4)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if got := viewsOf(shared); got != want {
						errs <- got
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for got := range errs {
			t.Fatalf("concurrent views differ:\n got %s\nwant %s", got, want)
		}
	}
}

// TestMutatingFrozenRequirementDropsViews adds services and dependencies,
// cycles included, to frozen requirements. After every edit each view must
// equal a fresh recomputation, and a clone taken before the edits must
// still answer as the original did.
func TestMutatingFrozenRequirementDropsViews(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	cycles := 0
	for trial := 0; trial < 60; trial++ {
		r, err := GenerateDAG(rng, DAGConfig{Services: 3 + rng.Intn(8), EdgeProb: rng.Float64() / 2})
		if err != nil {
			t.Fatal(err)
		}
		before := viewsOf(r)
		snapshot := r.Clone()
		n := r.NumServices()
		for step := 0; step < 6; step++ {
			a, b := 1+rng.Intn(n+2), 1+rng.Intn(n+2)
			if rng.Intn(4) == 0 {
				r.AddService(a)
			} else {
				r.AddDependency(a, b) // b before a in topological order closes a cycle
			}
			if got, want := viewsOf(r), viewsOf(replay(r)); got != want {
				t.Fatalf("trial %d step %d: views after edit\n got %s\nwant %s", trial, step, got, want)
			}
			if r.TopoOrder() == nil {
				cycles++
			}
			if fresh, err := Build(r.Services(), r.Edges()); err == nil {
				if got, want := viewsOf(r), viewsOf(fresh); got != want {
					t.Fatalf("trial %d step %d: views differ from a rebuilt requirement\n got %s\nwant %s", trial, step, got, want)
				}
			}
		}
		if got := viewsOf(snapshot); got != before {
			t.Fatalf("trial %d: clone changed with the original\n got %s\nwant %s", trial, got, before)
		}
	}
	if cycles == 0 {
		t.Fatal("no edit closed a cycle; the test lost its cyclic case")
	}
}

// TestCriticalPath checks the critical-path distances on the paper's DAG and
// the -1 of services the source does not reach.
func TestCriticalPath(t *testing.T) {
	r := paperDAG(t)
	w := func(u, v int) int64 { return int64(u*10 + v) }
	// Service 4 is reached over 1->3->4 (13+34), not 1->2->4 (12+24); the
	// sink over 1->3->5->6 (13+35+56), not over 4 (47+46).
	want := []int64{0, 12, 13, 47, 48, 104}
	if got := r.CriticalPath(w); !reflect.DeepEqual(got, want) {
		t.Fatalf("CriticalPath = %v, want %v", got, want)
	}
	for i, sid := range r.Services() {
		if r.Index(sid) != i {
			t.Fatalf("Index(%d) = %d, want %d", sid, r.Index(sid), i)
		}
	}
	if r.Index(99) != -1 {
		t.Fatal("Index of a missing service")
	}
	r.AddDependency(9, 6) // a second source: nothing is reached
	if got := r.CriticalPath(w); !reflect.DeepEqual(got, []int64{-1, -1, -1, -1, -1, -1, -1}) {
		t.Fatalf("CriticalPath with two sources = %v", got)
	}
	r.AddDependency(6, 1)
	if got := r.CriticalPath(w); got != nil {
		t.Fatalf("CriticalPath on a cycle = %v, want nil", got)
	}
}
