package main

import (
	"math"
	"sort"
	"time"

	"dtio/internal/metrics"
)

type histSnap = metrics.HistSnapshot

// quartiles returns the first quartile, median and third quartile of
// vals as Python's statistics.quantiles(vals, n=4) computes them (the
// exclusive method), so spreads read the same here and in the driver.
// Fewer than two values have no spread: all three are the value.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(q float64) float64 {
		p := q * float64(n+1)
		j := int(math.Floor(p))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (p-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}

// percentile is the nearest-rank q-th percentile of sorted durations.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, 0 when b is 0 (a metric must never be NaN: JSON has none).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
