package abstract

import (
	"reflect"
	"testing"

	"sflow/internal/metrics"
	"sflow/internal/qos"
	"sflow/internal/require"
)

func TestSlotSources(t *testing.T) {
	o, req := fixture(t)
	// Edge tails are services 1 and 2; sink service 3 and relay 9 need no
	// rows.
	if got, want := SlotSources(o, req), []int{10, 20, 21}; !reflect.DeepEqual(got, want) {
		t.Fatalf("SlotSources = %v, want %v", got, want)
	}
	// A diamond requirement shares tails across branches without duplicates.
	diamond, err := require.FromEdges([][2]int{{1, 2}, {1, 3}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := SlotSources(o, diamond), []int{10, 20, 21}; !reflect.DeepEqual(got, want) {
		t.Fatalf("diamond SlotSources = %v, want %v", got, want)
	}
}

func TestBuildLazyMatchesBuild(t *testing.T) {
	o, req := fixture(t)
	reg := metrics.New()
	lg, err := BuildWith(o, req, qos.Options{Lazy: true, Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	eg, err := Build(o, req)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range req.Edges() {
		for _, from := range o.InstancesOf(e[0]) {
			for _, to := range o.InstancesOf(e[1]) {
				if lm, em := lg.EdgeMetric(from, to), eg.EdgeMetric(from, to); lm != em {
					t.Fatalf("edge %d->%d: lazy %v, eager %v", from, to, lm, em)
				}
				if lp, ep := lg.EdgePath(from, to), eg.EdgePath(from, to); !reflect.DeepEqual(lp, ep) {
					t.Fatalf("edge %d->%d: lazy path %v, eager path %v", from, to, lp, ep)
				}
			}
		}
	}
	// A lazy build prefetches exactly the slot rows, no more.
	lt, ok := lg.AllPairs().(*qos.AllPairs)
	if !ok {
		t.Fatalf("lazy build table is %T", lg.AllPairs())
	}
	if got, want := lt.Stats().Computed, int64(len(SlotSources(o, req))); got != want {
		t.Fatalf("prefetched %d rows, want %d", got, want)
	}
	var builds int64
	for _, c := range reg.Snapshot().Counters {
		if c.Key == "abstract_lazy_builds_total" {
			builds = c.Value
		}
	}
	if builds != 1 {
		t.Fatalf("abstract_lazy_builds_total = %d", builds)
	}
}

func TestBuildLazyRejectsMissingService(t *testing.T) {
	o, _ := fixture(t)
	req, err := require.NewPath(1, 2, 77)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildWith(o, req, qos.Options{Lazy: true}); err == nil {
		t.Fatal("requirement with uninstantiated service accepted")
	}
}
