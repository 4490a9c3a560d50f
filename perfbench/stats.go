package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile of ascending samples: the
// smallest sample with at least q·n samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)]
}

// rank is the 0-based index quantile reads for n samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first.
var tailLadder = []float64{0.99, 0.9, 0.5}

// minBeyond is how many samples must lie above a reported percentile
// for it to mean anything.
const minBeyond = 10

// tailPercentile picks the highest percentile of tailLadder that has at
// least minBeyond samples strictly above its rank, and returns it with
// its value. With fewer than 2·minBeyond samples no rung qualifies; the
// median is returned with ok=false.
func tailPercentile(xs []float64) (q, v float64, ok bool) {
	s := sortedCopy(xs)
	for _, q := range tailLadder {
		if len(s)-1-rank(len(s), q) >= minBeyond {
			return q, s[rank(len(s), q)], true
		}
	}
	return 0.5, quantile(s, 0.5), false
}
