// Package npc machine-checks Theorem 1 of the paper: the polynomial
// reduction from SAT to the Maximum Service Flow Graph Problem (MSFG).
//
// Given a CNF formula with clauses c_1..c_n, the reduction builds a directed
// acyclic "gadget" graph: clause c_i becomes an abstract service i populated
// with one instance per literal of the clause; every pair of instances from
// different clauses is connected (directed from the lower clause index to the
// higher); an edge weighs 1 when its endpoints are complementary literals
// (p and !p) and 2 otherwise. With the threshold K = 2, a service flow graph
// that picks one instance per clause and only uses edges of weight >= K
// exists if and only if the formula is satisfiable.
//
// Decide solves the MSFG decision problem by branch-and-bound over the
// direct gadget edges — necessarily exponential in the worst case, which is
// the theorem's point.
package npc

import (
	"fmt"

	"sflow/internal/overlay"
	"sflow/internal/require"
	"sflow/internal/sat"
)

// K is the bottleneck threshold of the reduction: weight-1 edges (between
// complementary literals) fall below it, weight-2 edges meet it.
const K int64 = 2

// Instance is a Maximum Service Flow Graph instance produced by the
// reduction.
type Instance struct {
	// Overlay is the gadget graph: one service per clause, one instance
	// per literal occurrence, weight-1/weight-2 links between clauses.
	Overlay *overlay.Overlay
	// Req is the complete DAG over the clause services (edge i -> j for
	// every i < j), so a service flow graph must select one literal per
	// clause and respect every pairwise edge.
	Req *require.Requirement
	// LitOf maps each instance NID back to the literal it encodes.
	LitOf map[int]sat.Literal
	// Formula is the reduced formula.
	Formula *sat.Formula
}

// Reduce builds the MSFG instance for a formula. The formula must have at
// least two clauses (a one-clause requirement is degenerate) and no empty
// clause.
func Reduce(f *sat.Formula) (*Instance, error) {
	clauses := f.Clauses()
	if len(clauses) < 2 {
		return nil, fmt.Errorf("npc: need at least 2 clauses, got %d", len(clauses))
	}
	ov := overlay.New()
	litOf := make(map[int]sat.Literal)
	nid := 0
	byClause := make([][]int, len(clauses))
	for i, cl := range clauses {
		if len(cl) == 0 {
			return nil, fmt.Errorf("npc: clause %d is empty", i+1)
		}
		for _, lit := range cl {
			if err := ov.AddInstance(nid, i+1, -1); err != nil {
				return nil, err
			}
			litOf[nid] = lit
			byClause[i] = append(byClause[i], nid)
			nid++
		}
	}
	// Directed edges from every instance of clause i to every instance of
	// clause j > i; weight 1 between complementary literals, 2 otherwise.
	for i := 0; i < len(clauses); i++ {
		for j := i + 1; j < len(clauses); j++ {
			for _, a := range byClause[i] {
				for _, b := range byClause[j] {
					w := K
					if litOf[a] == litOf[b].Negate() {
						w = 1
					}
					if err := ov.AddLink(a, b, w, 1); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	var edges [][2]int
	for i := 1; i <= len(clauses); i++ {
		for j := i + 1; j <= len(clauses); j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	req, err := require.FromEdges(edges)
	if err != nil {
		return nil, fmt.Errorf("npc: gadget requirement: %w", err)
	}
	return &Instance{Overlay: ov, Req: req, LitOf: litOf, Formula: f}, nil
}

// Decide solves the MSFG decision problem on the gadget: is there a
// selection of one instance per clause whose pairwise direct edges all weigh
// at least K? On success it also returns the selection (SID -> NID) and the
// truth assignment it encodes (chosen literals true, everything else false —
// complementary choices are excluded by construction).
func (in *Instance) Decide() (bool, map[int]int, sat.Assignment) {
	services := in.Req.Services()
	chosen := make(map[int]int, len(services))
	var walk func(i int) bool
	walk = func(i int) bool {
		if i == len(services) {
			return true
		}
		sid := services[i]
		for _, nid := range in.Overlay.InstancesOf(sid) {
			ok := true
			for j := 0; j < i; j++ {
				prev := chosen[services[j]]
				m, direct := in.Overlay.LinkMetric(prev, nid)
				if !direct || m.Bandwidth < K {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			chosen[sid] = nid
			if walk(i + 1) {
				return true
			}
			delete(chosen, sid)
		}
		return false
	}
	if !walk(0) {
		return false, nil, nil
	}
	assign := make(sat.Assignment, in.Formula.NumVars())
	for v := 1; v <= in.Formula.NumVars(); v++ {
		assign[v] = false
	}
	for _, nid := range chosen {
		lit := in.LitOf[nid]
		assign[lit.Var()] = lit.Positive()
	}
	return true, chosen, assign
}
