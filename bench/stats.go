package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is not modified. NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts durations to milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// quartileSpread is the distance between the first and third quartiles
// as a share of the median, the way statistics.quantiles(n=4) computes
// quartiles (the "exclusive" method).
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := exclusiveQuartile(xs, 1), exclusiveQuartile(xs, 3)
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(m)
}

// exclusiveQuartile is Python's statistics.quantiles(xs, n=4)[k-1].
func exclusiveQuartile(xs []float64, k int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	m := n + 1
	j := k * m / 4
	if j < 1 {
		j = 1
	} else if j > n-1 {
		j = n - 1
	}
	delta := k*m - j*4
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}
