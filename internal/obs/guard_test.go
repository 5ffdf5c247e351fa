package obs

import (
	"math"
	"testing"

	"bgqflow/internal/sim"
)

func TestHistogramDropsNonFinite(t *testing.T) {
	var h Histogram
	h.Observe(1)
	h.Observe(math.NaN())
	h.Observe(2)
	h.Observe(math.Inf(1))
	h.Observe(3)
	if got := h.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	s := h.Summary()
	if s.N != 3 || s.Dropped != 2 {
		t.Fatalf("N=%d Dropped=%d, want 3 and 2", s.N, s.Dropped)
	}
	if s.P50 != 2 || s.Min != 1 || s.Max != 3 {
		t.Fatalf("P50=%g Min=%g Max=%g, want 2, 1, 3", s.P50, s.Min, s.Max)
	}
	if math.IsNaN(s.Mean) || math.IsNaN(s.P99) {
		t.Fatal("summary poisoned by non-finite samples")
	}
}

// The timeline used to silently ignore pre-t0 and inverted windows,
// making a conservation deficit indistinguishable from "no traffic".
// Pre-t0 windows are now clamped (all bytes kept), garbage windows are
// dropped, and both cases are counted.
func TestTimelineClampsAndCountsBadWindows(t *testing.T) {
	tl := NewLinkTimeline(1.0)

	tl.Add(0, -0.5, 0.5, 10) // clamped: all 10 bytes land in bucket 0
	if got := tl.TotalBytes(0); got != 10 {
		t.Fatalf("clamped window kept %g bytes, want 10", got)
	}
	if got := tl.Series(0); len(got) != 1 || got[0] != 10 {
		t.Fatalf("clamped window series %v, want [10]", got)
	}

	tl.Add(0, 2, 1, 5)                     // inverted
	tl.Add(0, 0, 1, 0)                     // no bytes
	tl.Add(0, 0, 1, -3)                    // negative bytes
	tl.Add(0, 0, 1, math.NaN())            // NaN bytes
	tl.Add(0, -2, -1, 5)                   // entirely before t=0
	tl.Add(0, 0, sim.Time(math.Inf(1)), 5) // unbounded window
	tl.Add(0, sim.Time(math.NaN()), 1, 5)  // NaN start
	if got := tl.TotalBytes(0); got != 10 {
		t.Fatalf("garbage windows changed the series: %g bytes", got)
	}
	if got := tl.ClampedWindows(); got != 1 {
		t.Fatalf("ClampedWindows = %d, want 1", got)
	}
	if got := tl.DroppedWindows(); got != 7 {
		t.Fatalf("DroppedWindows = %d, want 7", got)
	}
}

// Valid windows must not be counted as dropped or clamped.
func TestTimelineCleanWindowsUncounted(t *testing.T) {
	tl := NewLinkTimeline(1.0)
	tl.Add(0, 0, 2, 20)
	tl.Add(1, 0.5, 0.5, 5) // zero-width is valid
	if tl.DroppedWindows() != 0 || tl.ClampedWindows() != 0 {
		t.Fatalf("clean windows counted: dropped=%d clamped=%d", tl.DroppedWindows(), tl.ClampedWindows())
	}
}

// The histogram's memory is bounded: past histogramCap it keeps a
// uniform sample, while N, Min, Max and Dropped stay exact and the
// percentiles of a known distribution stay close.
func TestHistogramBoundedSample(t *testing.T) {
	var h Histogram
	const n = 10 * histogramCap
	// A scrambled permutation of 1..n, so neither end of the range
	// arrives first.
	for i := 0; i < n; i++ {
		h.Observe(float64((i*7919)%n + 1))
	}
	h.Observe(math.NaN())
	if got := len(h.samples); got != histogramCap {
		t.Fatalf("retained %d samples, want %d", got, histogramCap)
	}
	s := h.Summary()
	if s.N != n || s.Min != 1 || s.Max != n || s.Dropped != 1 {
		t.Fatalf("N=%d Min=%g Max=%g Dropped=%d, want %d, 1, %d, 1", s.N, s.Min, s.Max, s.Dropped, n, n)
	}
	for _, c := range []struct {
		name      string
		got, want float64
		tol       float64 // fraction of the range
	}{
		{"p50", s.P50, 0.50 * n, 0.03},
		{"p90", s.P90, 0.90 * n, 0.02},
		{"p99", s.P99, 0.99 * n, 0.01},
		{"mean", s.Mean, 0.50 * n, 0.03},
	} {
		if math.Abs(c.got-c.want) > c.tol*n {
			t.Errorf("%s = %g, want %g within %.0f%% of the range", c.name, c.got, c.want, 100*c.tol)
		}
	}
}
