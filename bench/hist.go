package main

import (
	"math"
	"math/bits"
	"time"
)

// hist is a log-linear histogram of durations with a fixed footprint:
// exact below 256ns, then 128 buckets per power of two up to 2^36ns
// (69s; longer durations land in the last bucket), so a quantile read
// from it is within 0.8% of the sample's. The load driver records
// latencies here rather than in growing slices: the harness's own heap
// then stays the same size through a run, and the garbage collector
// paces the system under test, not the benchmark's sample buffers.
type hist struct {
	counts [histBuckets]uint32
	n      int
}

const (
	subBits     = 7
	maxBits     = 36
	histBuckets = (maxBits - subBits + 1) << subBits
)

func bucketOf(d time.Duration) int {
	v := min(uint64(max(d, 0)), 1<<maxBits-1)
	shift := max(0, bits.Len64(v)-(subBits+1))
	return shift<<subBits + int(v>>shift)
}

// bucketRange is the lowest value bucket i holds and the bucket's width.
func bucketRange(i int) (lo, width float64) {
	if i < 2<<subBits {
		return float64(i), 1
	}
	shift := i>>subBits - 1
	mant := i - shift<<subBits
	return float64(uint64(mant) << shift), float64(uint64(1) << shift)
}

func (h *hist) add(d time.Duration) {
	h.counts[bucketOf(d)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantileMS is the q-quantile (0..1) in milliseconds, interpolated
// within its bucket; NaN when the histogram is empty. Rank q·(n−1) is
// read, as quantile does for a sample.
func (h *hist) quantileMS(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n-1)
	var below float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < below+float64(c) {
			lo, width := bucketRange(i)
			return (lo + width*(rank-below+0.5)/float64(c)) / float64(time.Millisecond)
		}
		below += float64(c)
	}
	return math.NaN()
}
