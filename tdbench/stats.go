package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. It returns NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the 50th percentile of xs, averaging the middle pair of an
// even-sized sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is the number of samples strictly above the p-th percentile
// of n samples under the nearest-rank rule.
func tailBeyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// tailSampled reports whether a sample of n resolves the p-th
// percentile: at least ten samples must lie beyond it.
func tailSampled(n int, p float64) bool { return n > 0 && tailBeyond(n, p) >= 10 }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies collects the latency (in ms) of every op matching keep.
func latencies(ops []op, keep func(op) bool, of func(op) time.Duration) []float64 {
	var xs []float64
	for _, o := range ops {
		if keep(o) {
			xs = append(xs, ms(of(o)))
		}
	}
	return xs
}

func isOK(o op) bool { return o.outcome == okOutcome }
