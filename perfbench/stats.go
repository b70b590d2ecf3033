package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs: the
// smallest sample with at least a p share of the samples at or below it.
// xs is sorted in place. An empty slice yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// quantiles cuts xs into n groups of equal probability and returns the
// n-1 cut points, interpolated the way Python's
// statistics.quantiles(xs, n=n) does by default (the "exclusive"
// method), so a median or quartile computed here matches the one a
// reader computes from the printed values. xs is sorted in place; it
// needs at least two samples (one sample is returned for every cut).
func quantiles(xs []float64, n int) []float64 {
	out := make([]float64, 0, n-1)
	if len(xs) == 0 {
		return out
	}
	sort.Float64s(xs)
	ld := len(xs)
	if ld == 1 {
		for i := 1; i < n; i++ {
			out = append(out, xs[0])
		}
		return out
	}
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out = append(out, (xs[j-1]*float64(n-delta)+xs[j]*float64(delta))/float64(n))
	}
	return out
}

// median is the middle cut of quantiles(xs, 2); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantiles(xs, 2)[0]
}

// windowedPercentile cuts the samples into windows of length by when
// each was due and returns the median over the windows of each window's
// p-percentile. Windows with fewer than minWindowSamples samples are
// skipped.
func windowedPercentile(xs []float64, at []time.Duration, length time.Duration, p float64) float64 {
	windows := make(map[time.Duration][]float64)
	for i, x := range xs {
		w := at[i] / length
		windows[w] = append(windows[w], x)
	}
	var per []float64
	for _, w := range windows {
		if len(w) >= minWindowSamples {
			per = append(per, percentile(w, p))
		}
	}
	return median(per)
}

const minWindowSamples = 100

// ratio is a/b, or 0 when b is 0 (a count with no base reports 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
