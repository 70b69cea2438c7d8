package main

import (
	"math"
	"sort"
	"strings"

	"incdb/internal/obs"
)

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// quantile returns the nearest-rank p-quantile of xs and how many samples
// lie beyond it. xs need not be sorted; it is not modified.
func quantile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], len(s) - 1 - i
}

// tail is quantile restricted to percentiles with at least minBeyond
// samples beyond them; ok is false otherwise, and the tail must not be
// reported.
func tail(xs []float64, p float64) (value float64, ok bool) {
	v, beyond := quantile(xs, p)
	return v, beyond >= minBeyond
}

func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// promSnapshot is one /v1/metrics scrape, each metric name summed over its
// label sets (sessions, procs, cache outcomes). Histogram buckets are
// dropped; their _sum and _count series remain.
type promSnapshot map[string]float64

func snapshotOf(samples []obs.Sample) promSnapshot {
	out := promSnapshot{}
	for _, s := range samples {
		if strings.HasSuffix(s.Name, "_bucket") {
			continue
		}
		out[s.Name] += s.Value
	}
	return out
}

// delta is how much a counter moved between two scrapes.
func delta(before, after promSnapshot, name string) float64 {
	return after[name] - before[name]
}

// histMean is the mean of the observations a histogram recorded between two
// scrapes (Δsum / Δcount) and their number; the mean is 0 without any.
func histMean(before, after promSnapshot, name string) (float64, float64) {
	n := delta(before, after, name+"_count")
	if n == 0 {
		return 0, 0
	}
	return delta(before, after, name+"_sum") / n, n
}

// ratio is num/den, or 0 when den is 0 (nothing to measure).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
