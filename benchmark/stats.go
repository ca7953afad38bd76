package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs ascending without touching the caller's slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile reads the q-quantile (0..1) of an ascending slice by linear
// interpolation between the two nearest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailPercentiles are the candidates highestPercentile picks from, each with
// the fewest samples that leave ten beyond it.
var tailPercentiles = []struct {
	p    float64
	minN int
}{{0.5, 20}, {0.9, 100}, {0.99, 1000}, {0.999, 10000}}

// highestPercentile returns the highest of tailPercentiles that still has at
// least ten samples beyond it among n, or 0 when even the median has not: a
// percentile with fewer samples above it is one outlier, not a tail.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, c := range tailPercentiles {
		if n >= c.minN {
			best = c.p
		}
	}
	return best
}

// usOf converts nanosecond samples to microseconds.
func usOf(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

// relGap is how much worse `second` is than `first` as a share of `first`,
// in the metric's own direction; negative means better.
func relGap(first, second float64, better string) float64 {
	if first == 0 {
		return 0
	}
	if better == "higher" {
		return (first - second) / first
	}
	return (second - first) / first
}
