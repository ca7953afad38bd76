// Package choice models the paper's enhanced form of service requirements
// with *optional services* (Sec 2.1, Fig 2): a requirement slot may name
// several alternative services — "the Map or the Translator service" — and
// the federation is free to pick whichever alternative yields the better
// service flow graph.
//
// A Spec is a DAG over *terms*; each term carries one or more alternative
// services. Expand produces every concrete Requirement obtainable by fixing
// one alternative per term; Best runs a federation algorithm over each
// expansion and keeps the highest-quality result — "the topology of services
// that leads to better performance is preferably selected", as the paper
// puts it.
package choice

import (
	"errors"
	"fmt"
	"sort"

	"sflow/internal/flow"
	"sflow/internal/graph"
	"sflow/internal/overlay"
	"sflow/internal/qos"
	"sflow/internal/require"
)

// ErrInfeasible is returned when no expansion can be federated.
var ErrInfeasible = errors.New("choice: no expansion is feasible")

// maxExpansions bounds the cartesian product of alternatives.
const maxExpansions = 10_000

// Spec is a service requirement with optional alternatives.
type Spec struct {
	alts map[int][]int // term id -> alternative services
	dag  *graph.Digraph
}

// NewSpec returns an empty spec.
func NewSpec() *Spec {
	return &Spec{alts: make(map[int][]int), dag: graph.New()}
}

// AddTerm declares a term with one or more alternative services. A term
// whose id equals its single alternative is a plain required service.
func (s *Spec) AddTerm(term int, alternatives ...int) error {
	if len(alternatives) == 0 {
		return fmt.Errorf("choice: term %d has no alternatives", term)
	}
	if _, dup := s.alts[term]; dup {
		return fmt.Errorf("choice: duplicate term %d", term)
	}
	seen := make(map[int]bool, len(alternatives))
	for _, a := range alternatives {
		if seen[a] {
			return fmt.Errorf("choice: term %d repeats alternative %d", term, a)
		}
		seen[a] = true
	}
	s.alts[term] = append([]int(nil), alternatives...)
	s.dag.AddNode(term)
	return nil
}

// Connect records that the output of one term feeds another.
func (s *Spec) Connect(fromTerm, toTerm int) error {
	if _, ok := s.alts[fromTerm]; !ok {
		return fmt.Errorf("choice: unknown term %d", fromTerm)
	}
	if _, ok := s.alts[toTerm]; !ok {
		return fmt.Errorf("choice: unknown term %d", toTerm)
	}
	s.dag.AddEdge(fromTerm, toTerm)
	return nil
}

// NumExpansions returns the size of the cartesian product of alternatives.
func (s *Spec) NumExpansions() int {
	n := 1
	for _, alts := range s.alts {
		n *= len(alts)
		if n > maxExpansions {
			return maxExpansions + 1
		}
	}
	return n
}

// Expand returns every concrete requirement obtained by selecting one
// alternative per term. Selections that repeat a service across terms are
// skipped (a service cannot fill two slots); so are selections whose
// requirement fails validation. The result is deterministic.
func (s *Spec) Expand() ([]*require.Requirement, error) {
	if len(s.alts) == 0 {
		return nil, fmt.Errorf("choice: empty spec")
	}
	if s.NumExpansions() > maxExpansions {
		return nil, fmt.Errorf("choice: more than %d expansions", maxExpansions)
	}
	terms := s.dag.Nodes()
	var (
		out    []*require.Requirement
		pick   = make(map[int]int, len(terms))
		inUse  = make(map[int]bool)
		assign func(i int)
	)
	assign = func(i int) {
		if i == len(terms) {
			services := make([]int, len(terms))
			for i, t := range terms {
				services[i] = pick[t]
			}
			var edges [][2]int
			for _, e := range s.dag.Edges() {
				edges = append(edges, [2]int{pick[e[0]], pick[e[1]]})
			}
			if req, err := require.Build(services, edges); err == nil {
				out = append(out, req)
			}
			return
		}
		t := terms[i]
		for _, alt := range s.alts[t] {
			if inUse[alt] {
				continue
			}
			pick[t] = alt
			inUse[alt] = true
			assign(i + 1)
			delete(pick, t)
			delete(inUse, alt)
		}
	}
	assign(0)
	if len(out) == 0 {
		return nil, fmt.Errorf("choice: no valid expansion")
	}
	return out, nil
}

// Solver federates one concrete requirement (the facade algorithms have this
// shape).
type Solver func(ov *overlay.Overlay, req *require.Requirement, src int) (*flow.Graph, qos.Metric, error)

// Result is the best federation across expansions.
type Result struct {
	// Req is the selected expansion.
	Req *require.Requirement
	// Flow is its federated service flow graph.
	Flow *flow.Graph
	// Metric is the end-to-end quality achieved.
	Metric qos.Metric
	// Considered counts the expansions tried; Feasible those that
	// federated successfully.
	Considered, Feasible int
}

// Best expands the spec and federates every expansion with the given solver
// from the source instance, returning the best result in the
// widest-then-shortest order. Expansions whose source service does not match
// the src instance are skipped.
func Best(ov *overlay.Overlay, spec *Spec, src int, solve Solver) (*Result, error) {
	reqs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	// Deterministic order: sort by the expansion's service list.
	sort.Slice(reqs, func(i, j int) bool {
		return fmt.Sprint(reqs[i].Services()) < fmt.Sprint(reqs[j].Services())
	})
	var best *Result
	considered := 0
	feasible := 0
	for _, req := range reqs {
		if ov.SIDOf(src) != req.Source() {
			continue
		}
		considered++
		fg, m, err := solve(ov, req, src)
		if err != nil || !m.Reachable() {
			continue
		}
		feasible++
		if best == nil || m.Better(best.Metric) {
			best = &Result{Req: req, Flow: fg, Metric: m}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w (%d expansions considered)", ErrInfeasible, considered)
	}
	best.Considered = considered
	best.Feasible = feasible
	return best, nil
}
