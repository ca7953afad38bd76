// Package sflow is a library for resource-efficient service federation in
// service overlay networks, reproducing "sFlow: Towards Resource-Efficient
// and Agile Service Federation in Service Overlay Networks" (Wang, Li, Li —
// ICDCS 2004).
//
// A service overlay network hosts service instances (transcoding, lookup,
// storage, ...) on overlay nodes connected by weighted service links. A
// consumer submits a service requirement — a DAG of services with one source
// and at least one sink — and the library federates concrete instances into
// a service flow graph that realises the requirement with high bottleneck
// bandwidth and low end-to-end latency.
//
// The primary entry point is Federate, the paper's fully distributed sFlow
// algorithm: every node computes with only a two-hop local view and
// coordinates through sfederate messages. The centralised algorithms the
// paper builds on or compares against — the polynomial baseline for path
// requirements, the reduction heuristic for general DAGs, the exhaustive
// optimal, the fixed / random / servicepath controls and the hierarchical
// cluster federation — run through the unified Solve entry point (see
// Algorithms for the names), the one function for every centralised
// algorithm.
//
// Passing a NewMetrics registry through Options.Metrics,
// SolveOptions.Metrics or ExperimentConfig.Metrics collects counters,
// gauges and histograms from every layer (protocol messages and bytes,
// routing relaxations, abstract-graph builds, admission control); read it
// back with Snapshot.
//
// Basic use:
//
//	sc, _ := sflow.GenerateScenario(sflow.ScenarioConfig{
//		Seed: 42, NetworkSize: 30, Services: 6,
//	})
//	res, err := sflow.Federate(sc.Overlay, sc.Req, sc.SourceNID, sflow.Options{})
//	if err != nil { ... }
//	fmt.Println(res.Flow, res.Metric)
package sflow

import (
	"math/rand"

	"sflow/internal/augment"
	"sflow/internal/choice"
	"sflow/internal/core"
	"sflow/internal/dot"
	"sflow/internal/experiments"
	"sflow/internal/flow"
	"sflow/internal/npc"
	"sflow/internal/overlay"
	"sflow/internal/plot"
	"sflow/internal/provision"
	"sflow/internal/qos"
	"sflow/internal/require"
	"sflow/internal/sat"
	"sflow/internal/scenario"
	"sflow/internal/service"
	"sflow/internal/topology"
	"sflow/internal/trace"
	"sflow/internal/transport"
	"sflow/internal/workload"
)

// Core model types.
type (
	// Overlay is a service overlay network: service instances connected
	// by directed, weighted service links.
	Overlay = overlay.Overlay
	// Instance is one service instance (a node of the overlay).
	Instance = overlay.Instance
	// Link is one directed service link.
	Link = overlay.Link
	// Compatibility is the directed "output of a feeds b" relation
	// between services.
	Compatibility = overlay.Compatibility
	// Placement assigns a service instance to an underlay host when
	// deriving an overlay from a physical network.
	Placement = overlay.Placement
	// Network is an underlying (physical) network.
	Network = topology.Network
	// NetworkConfig controls random underlay generation.
	NetworkConfig = topology.Config
	// Requirement is a service requirement DAG.
	Requirement = require.Requirement
	// Shape classifies a requirement's topology.
	Shape = require.Shape
	// FlowGraph is a (partial or complete) service flow graph.
	FlowGraph = flow.Graph
	// FlowEdge is one realised service stream of a flow graph.
	FlowEdge = flow.Edge
	// Metric is a path or flow-graph quality: bottleneck bandwidth
	// (Kbit/s) and latency (microseconds), ordered widest-then-shortest.
	Metric = qos.Metric
	// Options tunes the distributed sFlow algorithm.
	Options = core.Options
	// Result is the outcome of a distributed federation.
	Result = core.Result
	// Stats describes one distributed federation run.
	Stats = core.Stats
	// Scenario is a complete reproducible workload (underlay, overlay,
	// requirement, source instance).
	Scenario = scenario.Scenario
	// ScenarioConfig controls scenario generation.
	ScenarioConfig = scenario.Config
	// LargeScenarioConfig controls direct large-overlay generation (10k–100k
	// nodes, no underlay).
	LargeScenarioConfig = scenario.LargeConfig
	// ScenarioKind selects the requirement shape of a generated scenario.
	ScenarioKind = scenario.Kind
	// ExperimentConfig controls an evaluation sweep.
	ExperimentConfig = experiments.Config
	// Series is the data behind one reproduced figure panel.
	Series = experiments.Series
)

// Requirement shapes.
const (
	ShapePath          = require.ShapePath
	ShapeTree          = require.ShapeTree
	ShapeDisjointPaths = require.ShapeDisjointPaths
	ShapeGeneral       = require.ShapeGeneral
)

// Scenario kinds.
const (
	KindPath       = scenario.KindPath
	KindDisjoint   = scenario.KindDisjoint
	KindSplitMerge = scenario.KindSplitMerge
	KindGeneral    = scenario.KindGeneral
	KindTree       = scenario.KindTree
)

// NewOverlay returns an empty service overlay.
func NewOverlay() *Overlay { return overlay.New() }

// NewCompatibility returns an empty service compatibility relation.
func NewCompatibility() *Compatibility { return overlay.NewCompatibility() }

// NewRequirement returns an empty service requirement; populate it with
// AddService / AddDependency and call Validate.
func NewRequirement() *Requirement { return require.New() }

// PathRequirement builds and validates a single-chain requirement.
func PathRequirement(sids ...int) (*Requirement, error) { return require.NewPath(sids...) }

// RequirementFromEdges builds and validates a requirement from dependency
// edges.
func RequirementFromEdges(edges [][2]int) (*Requirement, error) { return require.FromEdges(edges) }

// NewNetwork returns an empty underlying network over n nodes.
func NewNetwork(n int) *Network { return topology.New(n) }

// GenerateNetwork builds a connected random underlay (uniform model).
func GenerateNetwork(rng *rand.Rand, cfg NetworkConfig) (*Network, error) {
	return topology.GenerateUniform(rng, cfg)
}

// BuildOverlay derives a service overlay from an underlying network: every
// pair of compatible instances with connected hosts is linked with the
// metric of the minimum-latency (IP-style) underlying route — discovering
// wider multi-hop detours is the federation algorithms' job.
func BuildOverlay(under *Network, placements []Placement, compat *Compatibility) (*Overlay, error) {
	return overlay.Build(under, placements, compat)
}

// GenerateScenario builds a complete reproducible workload.
func GenerateScenario(cfg ScenarioConfig) (*Scenario, error) { return scenario.Generate(cfg) }

// GenerateLargeScenario builds a large-overlay workload directly (ring
// backbone plus random links, tiered bandwidths, a path requirement whose
// slot instances are spread across the id space) in O(nodes · degree) — the
// input regime for SolveOptions.Lazy and the contracted hierarchical path.
func GenerateLargeScenario(cfg LargeScenarioConfig) (*Scenario, error) {
	return scenario.GenerateLarge(cfg)
}

// Federate runs the distributed sFlow algorithm: the source instance
// receives the requirement and sfederate messages propagate through the
// overlay until the sinks report the completed flow graph.
func Federate(ov *Overlay, req *Requirement, src int, opts Options) (*Result, error) {
	return core.Federate(ov, req, src, opts)
}

// RepairResult is the outcome of repairing a federation after instance
// failures.
type RepairResult = core.RepairResult

// Repair re-federates a previously computed flow graph after instances
// failed, pinning every unaffected placement so the repair is minimally
// disruptive.
func Repair(ov *Overlay, req *Requirement, prev *FlowGraph, failed []int, opts Options) (*RepairResult, error) {
	return core.Repair(ov, req, prev, failed, opts)
}

// Faults configures the seeded fault-injecting transport decorator (message
// loss, duplication, reordering, node crashes). Pass one in Options.Faults to
// run a federation over a faulty transport; the reliability sublayer
// (sequence numbers, acks, retransmission, deadline) switches on with it.
type Faults = transport.Faults

// Crash pins one explicit node crash in a Faults schedule.
type Crash = transport.Crash

// FaultCounts is a snapshot of what a fault-injecting transport did to the
// traffic that crossed it.
type FaultCounts = transport.FaultCounts

// RepairPartial re-federates after a federation under faults gave up with a
// *PartialFederationError: the unresponsive instances are removed and the
// requirement is re-federated over the survivors, keeping the partial flow
// graph's surviving placements pinned.
func RepairPartial(ov *Overlay, req *Requirement, src int, perr *PartialFederationError, opts Options) (*RepairResult, error) {
	return core.RepairPartial(ov, req, src, perr, opts)
}

// EvaluateAssignment scores a complete SID -> NID instance assignment
// against a requirement over an overlay: the bottleneck bandwidth across all
// induced streams and the critical-path latency. It returns an unreachable
// metric when the assignment cannot realise every stream.
func EvaluateAssignment(ov *Overlay, req *Requirement, assign map[int]int) (Metric, error) {
	ag, err := buildAbstract(ov, req, SolveOptions{})
	if err != nil {
		return qos.Unreachable, err
	}
	return ag.AssignmentMetric(assign), nil
}

// Experiment entry points reproducing the paper's Figure 10 panels and the
// extra ablations; see EXPERIMENTS.md for the expected shapes.
var (
	Fig10a            = experiments.Fig10a
	Fig10b            = experiments.Fig10b
	Fig10c            = experiments.Fig10c
	Fig10d            = experiments.Fig10d
	AblationLookahead = experiments.AblationLookahead
	AblationReduction = experiments.AblationReduction
	AdmissionCapacity = experiments.Admission
	TenantSweep       = experiments.Tenants
	ProtocolOverhead  = experiments.Overhead
	RepairChurn       = experiments.RepairChurn
	BlockingUnderLoad = experiments.Blocking
	HierarchyCompare  = experiments.Hierarchy
	FaultSweep        = experiments.FaultSweep
	DynamicsSweep     = experiments.Dynamics
	ReoptSweep        = experiments.Reopt
	ScaleSweep        = experiments.Scale
	AllExperiments    = experiments.All
	ExperimentReport  = experiments.Report
	ParseScenarioKind = scenario.ParseKind
)

// Workload surface: heterogeneous request streams replayed over a
// provisioned overlay.
type (
	// WorkloadRequest is one federation demand in a generated stream.
	WorkloadRequest = workload.Request
	// WorkloadConfig controls stream generation.
	WorkloadConfig = workload.Config
	// WorkloadResult summarises one replay.
	WorkloadResult = workload.Result
)

// GenerateWorkload draws a Poisson request stream against one requirement
// and source instance.
func GenerateWorkload(req *Requirement, src int, cfg WorkloadConfig) ([]WorkloadRequest, error) {
	return workload.Generate(req, src, cfg)
}

// SimulateWorkload replays a request stream over a fresh provisioner on the
// discrete-event simulator.
func SimulateWorkload(ov *Overlay, reqs []WorkloadRequest, alg FederationAlgorithm) (*WorkloadResult, error) {
	return workload.Simulate(ov, reqs, alg)
}

// Typed-service surface: compatibility derived from declared input/output
// types ("the output produced by one service matches the input requirements
// of the other").
type (
	// ServiceType names a data format flowing between services.
	ServiceType = service.Type
	// ServiceDescription declares one service's typed interface.
	ServiceDescription = service.Description
	// ServiceRegistry holds the typed descriptions of a deployment and
	// derives the compatibility relation from them.
	ServiceRegistry = service.Registry
)

// NewServiceRegistry returns an empty typed-service registry.
func NewServiceRegistry() *ServiceRegistry { return service.NewRegistry() }

// Mesh-augmentation surface (the cost-effective augmentation of the paper's
// related work): thin a mesh down and build it back up with shortcut links.

// SparsifyOverlay returns a copy of the overlay keeping each service link
// with the given probability.
func SparsifyOverlay(ov *Overlay, rng *rand.Rand, keep float64) (*Overlay, error) {
	return augment.Sparsify(ov, rng, keep)
}

// AugmentShortcuts adds up to budget direct links that bypass two-hop relay
// routes, widest first (budget <= 0 adds all). Returns how many were added.
func AugmentShortcuts(ov *Overlay, compat *Compatibility, budget int) (int, error) {
	return augment.Shortcut(ov, compat, budget)
}

// DensifyOverlay applies shortcut augmentation to a fixpoint.
func DensifyOverlay(ov *Overlay, compat *Compatibility) (int, error) {
	return augment.Densify(ov, compat)
}

// Optional-services surface (Fig 2 of the paper): requirement slots that
// name several alternative services, expanded and federated to pick the
// best-performing topology.
type (
	// ChoiceSpec is a service requirement with optional alternatives.
	ChoiceSpec = choice.Spec
	// ChoiceResult is the best federation across the expansions.
	ChoiceResult = choice.Result
	// ChoiceSolver federates one concrete expansion.
	ChoiceSolver = choice.Solver
)

// NewChoiceSpec returns an empty optional-services requirement.
func NewChoiceSpec() *ChoiceSpec { return choice.NewSpec() }

// BestChoice expands a spec and federates every concrete expansion with the
// given solver, returning the best result.
func BestChoice(ov *Overlay, spec *ChoiceSpec, src int, solve ChoiceSolver) (*ChoiceResult, error) {
	return choice.Best(ov, spec, src, solve)
}

// Provisioning surface: sequential admission of federation requests over a
// shared overlay with residual bandwidth accounting.
type (
	// Provisioner admits requests and reserves bandwidth on a residual
	// copy of an overlay.
	Provisioner = provision.Manager
	// Admission records one accepted request.
	Admission = provision.Admission
	// FederationAlgorithm is the pluggable federation strategy a
	// Provisioner runs against the residual overlay.
	FederationAlgorithm = provision.Algorithm
)

// ErrRejected is returned by a Provisioner when a request cannot be admitted
// at its demanded bandwidth.
var ErrRejected = provision.ErrRejected

// NewProvisioner starts admission control over a copy of ov.
func NewProvisioner(ov *Overlay) *Provisioner { return provision.NewManager(ov, nil) }

// Theorem 1 surface: the reduction from SAT to the Maximum Service Flow
// Graph Problem, machine-checkable in both directions.
type (
	// SATFormula is a CNF formula.
	SATFormula = sat.Formula
	// SATLiteral is a propositional literal (+v / -v).
	SATLiteral = sat.Literal
	// SATAssignment maps variables to truth values.
	SATAssignment = sat.Assignment
	// MSFGInstance is a Maximum Service Flow Graph instance produced by
	// the Theorem 1 reduction: a gadget overlay plus a complete-DAG
	// requirement over the clause services.
	MSFGInstance = npc.Instance
)

// TraceRecorder collects the protocol event timeline of a federation run;
// pass one in Options.Trace.
type TraceRecorder = trace.Recorder

// TraceEvent is one timeline entry of a TraceRecorder.
type TraceEvent = trace.Event

// NewTrace returns an empty protocol trace recorder.
func NewTrace() *TraceRecorder { return trace.New() }

// NewSATFormula returns an empty CNF formula over variables 1..numVars.
func NewSATFormula(numVars int) *SATFormula { return sat.New(numVars) }

// ReduceSATToMSFG builds the Theorem 1 gadget for a formula: the formula is
// satisfiable if and only if the gadget admits a service flow graph whose
// minimum edge weight reaches the threshold.
func ReduceSATToMSFG(f *SATFormula) (*MSFGInstance, error) { return npc.Reduce(f) }

// RenderSVG renders an experiment series as a standalone SVG line chart.
func RenderSVG(s *Series) string { return plot.SVG(s) }

// RequirementDOT renders a requirement in Graphviz DOT format.
func RequirementDOT(req *Requirement) string { return dot.Requirement(req) }

// OverlayDOT renders an overlay in Graphviz DOT format.
func OverlayDOT(ov *Overlay) string { return dot.Overlay(ov) }

// FlowDOT renders an overlay with a flow graph highlighted.
func FlowDOT(ov *Overlay, fg *FlowGraph) string { return dot.Flow(ov, fg) }

// AbstractDOT renders the service abstract graph of a requirement over an
// overlay (Fig 6 of the paper) in Graphviz DOT format.
func AbstractDOT(ov *Overlay, req *Requirement) (string, error) {
	ag, err := buildAbstract(ov, req, SolveOptions{})
	if err != nil {
		return "", err
	}
	return dot.Abstract(ag), nil
}
