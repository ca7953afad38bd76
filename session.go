package sflow

import (
	"sflow/internal/qos"
	"sflow/internal/session"
)

// SessionOptions tunes a federation Session. The zero value is ready to use.
type SessionOptions = session.Options

// SessionStats accumulates what a Session did over its lifetime: accepted
// mutation events, incremental flushes, and how many per-source routing runs
// the flushes performed versus how many a from-scratch rebuild would have.
type SessionStats = session.Stats

// Session is a long-lived federation session over a mutable overlay — the
// library's answer to the paper's "agile" claim. Where Solve rebuilds the
// all-pairs shortest-widest table and the abstract service graph on every
// call, a Session owns a private copy of the overlay, keeps those products
// incrementally maintained under mutation events (AddLink, RemoveLink,
// GrowLinkBandwidth, ReduceLinkBandwidth, AddInstance, RemoveInstance), and
// serves every solve from the maintained caches: after k changed links only
// the sources whose routes could be affected are recomputed, not all of them.
//
// The maintained caches are byte-identical to from-scratch rebuilds —
// selected paths included — so Session.Solve returns exactly what the
// stateless Solve would on the same overlay state (the equivalence-oracle
// tests assert this after every event of long random mutation traces).
//
// A Session is not safe for concurrent use; the recompute fan-out bounded by
// SessionOptions.Workers is its only parallelism.
type Session struct {
	*session.Session
}

// NewSession starts a federation session over a private clone of ov: later
// mutations of the caller's overlay do not affect the session, and the
// session's events do not affect the caller's overlay.
func NewSession(ov *Overlay, opts SessionOptions) *Session {
	return &Session{Session: session.New(ov, opts)}
}

// Solve runs the named centralised federation algorithm (the same registry as
// the package-level Solve; see Algorithms) against the session's maintained
// caches instead of rebuilding the abstract graph; the session's own worker
// bound governs its flushes.
//
// "hierarchical" is the one algorithm that cannot be served from the caches:
// the cluster hierarchy summarises the raw overlay itself, so it runs
// directly over the session's current overlay, in the session's fill policy.
// It is the one algorithm that reads SolveOptions.Workers here, as the
// fan-out of its cluster tables (or of the contracted path's solve).
func (s *Session) Solve(name string, req *Requirement, src int, opts SolveOptions) (*Solution, error) {
	if name == "hierarchical" {
		return hierarchical(s.Session.Overlay(), req, src, opts,
			qos.Options{Workers: opts.Workers, Lazy: s.Session.Lazy()})
	}
	fn, err := abstractSolver(name, opts)
	if err != nil {
		return nil, err
	}
	ag, err := s.Session.Abstract(req)
	if err != nil {
		return nil, err
	}
	return solveAbstract(fn, ag, src)
}
