package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the closest ranks: rank p/100*(n-1) of the sorted
// sample. xs is not modified. An empty sample yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := lo + 1
	if hi >= len(s) {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[hi]-s[lo])
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// tail is the percentile that req_p99_ms and fill_p99_ms report: the 99th
// when at least ten samples lie beyond it, else the highest percentile that
// has ten beyond it, but never below the median. A p99 of a grid pass's 24
// point times is its slowest point, set by one stray pause.
func tail(xs []float64) float64 {
	return percentile(xs, max(50, min(99, 100*(1-10/float64(len(xs))))))
}

// sustainedRate is the rate three batches in four reach: the 25th
// percentile of per-batch rates. The machine the bounds were fixed on runs
// short bursts up to 60% faster than its usual speed; how many of them land
// in a run's window moves the median batch rate but not the lower quartile.
func sustainedRate(rates []float64) float64 { return percentile(rates, 25) }
