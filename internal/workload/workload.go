// Package workload generates the sparse per-rank data-size patterns the
// paper evaluates, plus the HACC-like application write burst.
//
// Pattern 1 ("uniform"): every rank draws a size uniformly from [0, max];
// the burst totals about 50% of the dense pattern (every rank writing
// max). Seen when different regions are analyzed at different
// resolutions.
//
// Pattern 2 ("Pareto"): many ranks have zero or tiny sizes and a few have
// sizes at or near max; the burst totals about 20% of dense. Seen when a
// region of interest dominates the output.
//
// All generators are deterministic in their seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Uniform draws n per-rank sizes uniformly from [0, max]. The expected
// total is n*max/2 — the paper's "about 50% of the dense data".
func Uniform(n int, max int64, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(max + 1)
	}
	return out
}

// Pattern 2 operating point: a zero-inflated Lomax. The paper's Fig. 9
// shows many ranks with exactly 0 bytes, a declining body, and a few
// ranks at or near 8 MB; with these constants the burst totals ~20% of
// dense.
const (
	DefaultParetoAlpha          = 1.5
	DefaultParetoLambdaFraction = 0.275 // lambda = max * fraction
	DefaultZeroFraction         = 0.35
)

// Pattern2 draws Pattern 2: with probability DefaultZeroFraction a rank
// has no data at all; otherwise its size is Lomax-distributed, clipped to
// max.
func Pattern2(n int, max int64, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	lambda := float64(max) * DefaultParetoLambdaFraction
	out := make([]int64, n)
	for i := range out {
		if rng.Float64() < DefaultZeroFraction {
			continue
		}
		u := rng.Float64()
		x := lambda * (math.Pow(1-u, -1/DefaultParetoAlpha) - 1)
		if x > float64(max) {
			x = float64(max)
		}
		out[i] = int64(x)
	}
	return out
}

// Dense gives every rank exactly size bytes.
func Dense(n int, size int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = size
	}
	return out
}

// HACCRecordBytes is the size of one HACC particle record: three
// positions, three velocities, potential (float32 each), a 64-bit
// particle ID and a 16-bit mask.
const HACCRecordBytes = 38

// HACC builds the application benchmark burst: the ranks in the window
// [4N/10, 5N/10) each write particlesPerRank records; every other rank
// writes nothing. This is the "write 10% of the generated data from the
// middle decile of ranks" setup of the paper's Section VI.
func HACC(nRanks int, particlesPerRank int64) []int64 {
	out := make([]int64, nRanks)
	lo := 4 * nRanks / 10
	hi := 5 * nRanks / 10
	for r := lo; r < hi; r++ {
		out[r] = particlesPerRank * HACCRecordBytes
	}
	return out
}

// Total sums a burst.
func Total(data []int64) int64 {
	var t int64
	for _, d := range data {
		t += d
	}
	return t
}

// FractionOfDense reports the burst total as a fraction of every rank
// writing max.
func FractionOfDense(data []int64, max int64) float64 {
	if len(data) == 0 || max == 0 {
		return 0
	}
	return float64(Total(data)) / (float64(max) * float64(len(data)))
}

// CountZero reports how many ranks have no data.
func CountZero(data []int64) int {
	n := 0
	for _, d := range data {
		if d == 0 {
			n++
		}
	}
	return n
}

// Histogram bins per-rank sizes over [0, max] — the content of the
// paper's Figs. 8 and 9.
type Histogram struct {
	Max    int64
	Counts []int
}

// NewHistogram bins data into bins equal-width buckets over [0, max].
// Values above max land in the last bucket.
func NewHistogram(data []int64, bins int, max int64) Histogram {
	if bins < 1 || max < 1 {
		panic(fmt.Sprintf("workload: invalid histogram bins=%d max=%d", bins, max))
	}
	h := Histogram{Max: max, Counts: make([]int, bins)}
	for _, d := range data {
		b := int(d * int64(bins) / (max + 1))
		if b >= bins {
			b = bins - 1
		}
		if b < 0 {
			b = 0
		}
		h.Counts[b]++
	}
	return h
}

// BinWidth returns the bucket width in bytes.
func (h Histogram) BinWidth() int64 { return (h.Max + 1) / int64(len(h.Counts)) }

// TotalCount returns the number of binned samples.
func (h Histogram) TotalCount() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// String renders the histogram as an ASCII bar chart, one row per bucket.
func (h Histogram) String() string {
	var b strings.Builder
	maxCount := 1
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	width := h.BinWidth()
	for i, c := range h.Counts {
		bar := strings.Repeat("#", c*50/maxCount)
		fmt.Fprintf(&b, "%6.2f..%-6.2f MB %6d %s\n",
			float64(int64(i)*width)/(1<<20), float64(int64(i+1)*width)/(1<<20), c, bar)
	}
	return b.String()
}
