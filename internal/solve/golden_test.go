package solve_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"sflow/internal/abstract"
	"sflow/internal/baseline"
	"sflow/internal/control"
	"sflow/internal/flow"
	"sflow/internal/overlay"
	"sflow/internal/qos"
	"sflow/internal/reduce"
	"sflow/internal/require"
	"sflow/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite "+goldenPath+" from the algorithms under test")

// goldenPath holds the answers of the map-oracle solver (commit 7547fcc, the
// parent of the layered DP) to every goldenCases case: an oracle the DP
// cannot share, since every other equivalence battery compares the solver
// with itself.
const goldenPath = "testdata/placement_golden.jsonl"

// goldenRecord is one algorithm's answer to one case.
type goldenRecord struct {
	Case   string          `json:"case"`
	Alg    string          `json:"alg"`
	Err    string          `json:"err,omitempty"`
	Metric qos.Metric      `json:"metric"`
	Flow   json.RawMessage `json:"flow,omitempty"`
}

type goldenCase struct {
	name string
	ag   *abstract.Graph
	src  int
	pins map[int]int
}

// goldenCases derives every case from seeded scenarios alone: per scenario
// the requirement from its source, the same with one mid-order service
// pinned to its last instance and to an instance of another service, the first source-to-sink chain from every
// instance of its second service, and the requirement over an overlay with a
// quarter or three quarters of its links removed, where many cases are
// infeasible; then three requirements big enough for the greedy fallback.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	kinds := []scenario.Kind{scenario.KindPath, scenario.KindDisjoint, scenario.KindSplitMerge,
		scenario.KindGeneral, scenario.KindTree}
	build := func(ov *overlay.Overlay, req *require.Requirement) *abstract.Graph {
		ag, err := abstract.BuildWith(ov, req, qos.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return ag
	}
	var cases []goldenCase
	for i := 0; i < 40; i++ {
		cfg := scenario.Config{Seed: int64(100 + i), NetworkSize: 10 + (i*9)%41, Services: 4 + i%5,
			InstancesPerService: 2 + i%4, Kind: kinds[i%len(kinds)]}
		sc, err := scenario.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s/n=%d/s=%d/i=%d/seed=%d", cfg.Kind, cfg.NetworkSize, cfg.Services,
			cfg.InstancesPerService, cfg.Seed)
		ag := build(sc.Overlay, sc.Req)
		cases = append(cases, goldenCase{name + "/src", ag, sc.SourceNID, nil})

		order := sc.Req.TopoOrder()
		pinned := order[len(order)/2]
		slots := sc.Overlay.InstancesOf(pinned)
		cases = append(cases, goldenCase{name + "/pin", ag, sc.SourceNID, map[int]int{pinned: slots[len(slots)-1]}},
			goldenCase{name + "/badpin", ag, sc.SourceNID, map[int]int{pinned: sc.SourceNID}})

		chain := []int{sc.Req.Source()}
		for next := sc.Req.Downstream(chain[0]); len(next) > 0; next = sc.Req.Downstream(next[0]) {
			chain = append(chain, next[0])
		}
		if len(chain) >= 3 {
			sub, err := require.NewPath(chain[1:]...)
			if err != nil {
				t.Fatal(err)
			}
			subAG := build(sc.Overlay, sub)
			for _, src := range sc.Overlay.InstancesOf(chain[1]) {
				cases = append(cases, goldenCase{fmt.Sprintf("%s/chain-from=%d", name, src), subAG, src, nil})
			}
		}

		thin := sc.Overlay.Clone()
		for k, l := range sc.Overlay.Links() {
			if k%4 != i%4 && (i%2 == 1 || k%2 == i%2) {
				if err := thin.RemoveLink(l.From, l.To); err != nil {
					t.Fatal(err)
				}
			}
		}
		cases = append(cases, goldenCase{name + "/thin", build(thin, sc.Req), sc.SourceNID, nil})
	}
	// Dense 16-service DAGs, whose junction skeletons exceed the exhaustive
	// search's budget: the greedy scorer's answers.
	for i := 0; i < 3; i++ {
		sc, err := scenario.Generate(scenario.Config{Seed: int64(77 + i), NetworkSize: 30 + 10*i, Services: 16,
			InstancesPerService: 5, Kind: scenario.KindGeneral, EdgeProb: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, goldenCase{fmt.Sprintf("greedy/n=%d/seed=%d", 30+10*i, 77+i),
			build(sc.Overlay, sc.Req), sc.SourceNID, nil})
	}
	return cases
}

// goldenAnswer runs one algorithm on one case.
func goldenAnswer(t *testing.T, c goldenCase, alg string) goldenRecord {
	t.Helper()
	rec := goldenRecord{Case: c.name, Alg: alg}
	var (
		fg  *flow.Graph
		err error
	)
	switch alg {
	case "heuristic":
		var r *reduce.Result
		if r, err = reduce.Solve(c.ag, c.src, c.pins); err == nil {
			fg, rec.Metric = r.Flow, r.Metric
		}
	case "baseline":
		var r *baseline.Result
		if r, err = baseline.Solve(c.ag, c.src, c.pins); err == nil {
			fg, rec.Metric = r.Flow, r.Metric
		}
	case "servicepath":
		var r *control.Result
		if r, err = control.ServicePath(c.ag, c.src); err == nil {
			fg, rec.Metric = r.Flow, r.Metric
			if !r.Complete {
				rec.Err = "partial"
			}
		}
	}
	if err != nil {
		rec.Err = err.Error()
	}
	if fg != nil {
		data, merr := json.Marshal(fg)
		if merr != nil {
			t.Fatal(merr)
		}
		rec.Flow = data
	}
	return rec
}

// TestPlacementGolden compares heuristic, baseline and servicepath answers —
// flow JSON, metric and error — with the answers the map-oracle solver gave
// on the same cases. Regenerate (only on purpose) with -update.
func TestPlacementGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range goldenCases(t) {
		algs := []string{"heuristic", "baseline", "servicepath"}
		if c.pins != nil {
			algs = algs[:2] // servicepath takes no pins
		}
		for _, alg := range algs {
			line, err := json.Marshal(goldenAnswer(t, c, alg))
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
	}
	if *update {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := bytes.Split(buf.Bytes(), []byte("\n"))
	lines := bytes.Split(want, []byte("\n"))
	if len(got) != len(lines) {
		t.Fatalf("%d answers, golden file has %d", len(got)-1, len(lines)-1)
	}
	bad := 0
	for i := range got {
		if !bytes.Equal(got[i], lines[i]) {
			if bad++; bad <= 5 {
				t.Errorf("answer %d differs:\n got  %s\n want %s", i, got[i], lines[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d answers differ from %s", bad, len(got)-1, goldenPath)
	}
}
