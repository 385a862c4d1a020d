package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p99 needs at least 1000 samples, a p50 at least 21.
const minTail = 10

// quantile returns the nearest-rank q-quantile of the ascending slice
// sorted. When fewer than minTail samples lie beyond that rank it falls
// back to the highest rank that still has minTail samples beyond it. used
// is the quantile actually reported; ok is false when no rank qualifies.
func quantile(sorted []float64, q float64) (v, used float64, ok bool) {
	n := len(sorted)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if last := n - 1 - minTail; idx > last {
		if last < 0 {
			return 0, 0, false
		}
		idx = last
	}
	return sorted[idx], float64(idx+1) / float64(n), true
}

// chunk is how many consecutive samples one tail window holds: enough
// for a p99 with minTail samples beyond it.
const chunk = 1000

// chunkedQuantile reports the q-quantile of a time-ordered latency series
// as the median over consecutive windows of chunk samples (the last window
// absorbs the remainder), so a short stall moves a few windows rather than
// the number. With fewer than two windows' worth of samples it falls back
// to the pooled samples under the quantile rule. note says which quantile
// was reported and how.
func chunkedQuantile(xs []float64, q float64) (v float64, note string, ok bool) {
	if k := len(xs) / chunk; k >= 2 {
		per := make([]float64, 0, k)
		for i := 0; i < k; i++ {
			end := (i + 1) * chunk
			if i == k-1 {
				end = len(xs)
			}
			w := append([]float64(nil), xs[i*chunk:end]...)
			sort.Float64s(w)
			x, _, _ := quantile(w, q)
			per = append(per, x)
		}
		return median(per), fmt.Sprintf("p%g: median over %d windows of %d samples, n=%d", 100*q, k, chunk, len(xs)), true
	}
	pooled := append([]float64(nil), xs...)
	sort.Float64s(pooled)
	x, used, ok := quantile(pooled, q)
	if !ok {
		return 0, fmt.Sprintf("p%g: not reportable, n=%d", 100*q, len(xs)), false
	}
	if used < q {
		return x, fmt.Sprintf("p%g unreportable (n=%d); reported p%.2f instead", 100*q, len(xs), 100*used), true
	}
	return x, fmt.Sprintf("p%g: pooled, n=%d", 100*q, len(xs)), true
}

// median returns the median of xs (which it sorts in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
