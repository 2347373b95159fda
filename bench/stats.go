package main

import "htmcmp/internal/stats"

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// minSamplesBeyond is how many samples must lie above a percentile before it
// is reported: with fewer the value is set by a handful of outliers and does
// not repeat from run to run.
const minSamplesBeyond = 10

// percentile returns the p-th percentile of xs. ok is false — and the value
// 0 — when fewer than minSamplesBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if beyond := int(float64(len(xs)) * (100 - p) / 100); beyond < minSamplesBeyond {
		return 0, false
	}
	return stats.Percentile(xs, p), true
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work has no ratio).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
