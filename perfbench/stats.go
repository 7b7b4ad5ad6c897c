package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 needs about a thousand samples, a median twenty.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of samples (which it
// sorts in place) and whether it is reportable: at least minBeyond samples
// must rank above it.
func percentile(samples []float64, p float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return samples[rank-1], n-rank >= minBeyond
}

// median returns the middle value of vs (the mean of the middle two for an
// even count), leaving vs unchanged. It aggregates one metric across the
// cold processes of a run.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
