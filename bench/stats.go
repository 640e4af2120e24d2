package main

import (
	"math"
	"slices"
)

// percentile returns the p-th percentile (0..100) of sorted, interpolating
// linearly between the two closest ranks. NaN when there are no samples.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}

// summary is the min, median and max of a metric's per-segment values.
type summary struct {
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
}

// summarize reduces per-segment values, ignoring NaN (a segment with no
// sample of that kind). All-NaN input gives a NaN summary.
func summarize(vals []float64) summary {
	var v []float64
	for _, x := range vals {
		if !math.IsNaN(x) {
			v = append(v, x)
		}
	}
	if len(v) == 0 {
		return summary{math.NaN(), math.NaN(), math.NaN()}
	}
	slices.Sort(v)
	return summary{v[0], median(v), v[len(v)-1]}
}

// median of a sorted, non-empty slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method), which
// is what the benchmark's acceptance rule is stated in. Needs len >= 2.
func quartiles(values []float64) [3]float64 {
	data := slices.Clone(values)
	slices.Sort(data)
	ld := len(data)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := i*(ld+1) - j*4
		q[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return q
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q := quartiles(values)
	return (q[2] - q[0]) / q[1]
}
