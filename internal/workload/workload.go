// Package workload generates heterogeneous federation request streams —
// Poisson arrivals with varying bandwidth demands and holding times — and
// replays them over a provisioned overlay on the discrete-event simulator.
// It generalises the identical-request probes of the evaluation harness to
// realistic mixed traffic.
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"sflow/internal/des"
	"sflow/internal/overlay"
	"sflow/internal/provision"
	"sflow/internal/require"
)

// Request is one federation demand arriving at the overlay.
type Request struct {
	// Req is the service requirement; Src the entry instance.
	Req *require.Requirement
	Src int
	// Demand is the bandwidth to reserve (Kbit/s).
	Demand int64
	// Holding is how long an admitted request keeps its reservation
	// (virtual microseconds).
	Holding int64
	// Arrival is the request's arrival time (virtual microseconds from
	// the start of the simulation).
	Arrival int64
}

// Config controls stream generation.
type Config struct {
	// Seed makes the stream reproducible.
	Seed int64
	// Count is the number of requests (>= 1).
	Count int
	// MeanInterarrival is the mean gap between arrivals in virtual
	// microseconds (exponential).
	MeanInterarrival int64
	// MeanHolding is the mean reservation lifetime (exponential).
	MeanHolding int64
	// DemandMin/DemandMax bound the per-request bandwidth demand
	// (uniform, inclusive).
	DemandMin, DemandMax int64
}

func (c Config) validate() error {
	switch {
	case c.Count < 1:
		return fmt.Errorf("workload: count %d < 1", c.Count)
	case c.MeanInterarrival <= 0 || c.MeanHolding <= 0:
		return fmt.Errorf("workload: non-positive time parameters")
	case c.DemandMin <= 0 || c.DemandMax < c.DemandMin:
		return fmt.Errorf("workload: bad demand range [%d,%d]", c.DemandMin, c.DemandMax)
	}
	return nil
}

// Generate draws a request stream against one requirement and source (the
// consumer re-issuing the same federated service with varying load).
func Generate(req *require.Requirement, src int, cfg Config) ([]Request, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]Request, 0, cfg.Count)
	var clock int64
	for i := 0; i < cfg.Count; i++ {
		clock += int64(rng.ExpFloat64() * float64(cfg.MeanInterarrival))
		out = append(out, Request{
			Req:     req,
			Src:     src,
			Demand:  cfg.DemandMin + rng.Int63n(cfg.DemandMax-cfg.DemandMin+1),
			Holding: 1 + int64(rng.ExpFloat64()*float64(cfg.MeanHolding)),
			Arrival: clock,
		})
	}
	return out, nil
}

// Result summarises one replay.
type Result struct {
	Offered, Admitted, Blocked int
	// AdmittedDemand sums the bandwidth of every admitted request.
	AdmittedDemand int64
	// PeakConcurrent is the maximum number of simultaneously held
	// admissions.
	PeakConcurrent int
	// EndTime is the virtual time when the last event fired.
	EndTime int64
}

// BlockingProbability returns Blocked/Offered.
func (r *Result) BlockingProbability() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Blocked) / float64(r.Offered)
}

// Simulate replays a request stream over a fresh provisioner for the given
// overlay, admitting with alg and releasing after each holding time.
func Simulate(ov *overlay.Overlay, reqs []Request, alg provision.Algorithm) (*Result, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("workload: empty request stream")
	}
	// Arrivals must be replayed in time order.
	ordered := make([]Request, len(reqs))
	copy(ordered, reqs)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Arrival < ordered[j].Arrival })

	sim := des.New()
	mgr := provision.NewManager(ov, nil)
	res := &Result{}
	var failure error
	concurrent := 0

	for _, r := range ordered {
		r := r
		err := sim.ScheduleAt(r.Arrival, func() {
			if failure != nil {
				return
			}
			res.Offered++
			adm, err := mgr.Admit(r.Req, r.Src, r.Demand, alg)
			if errors.Is(err, provision.ErrRejected) {
				res.Blocked++
				return
			}
			if err != nil {
				failure = err
				return
			}
			res.Admitted++
			res.AdmittedDemand += r.Demand
			concurrent++
			if concurrent > res.PeakConcurrent {
				res.PeakConcurrent = concurrent
			}
			if err := sim.Schedule(r.Holding, func() {
				concurrent--
				if err := mgr.Release(adm); err != nil && failure == nil {
					failure = err
				}
			}); err != nil && failure == nil {
				failure = err
			}
		})
		if err != nil {
			return nil, err
		}
	}
	sim.Run()
	if failure != nil {
		return nil, failure
	}
	res.EndTime = sim.Now()
	return res, nil
}
