package obs

import (
	"math"
	"sort"
	"sync"

	"bgqflow/internal/sim"
)

// LinkTimeline accumulates per-link traffic into fixed-width time
// buckets. It is fed by the engine's LinkWindow charges (every byte the
// engine accounts to a link arrives here with the window it crossed the
// wire in), so the bucket series integrates to exactly the engine's
// cumulative link byte counters while adding the time dimension the
// end-of-run aggregates lack. Safe for concurrent use.
type LinkTimeline struct {
	mu      sync.Mutex
	bucket  sim.Duration
	bytes   map[int][]float64
	dropped int64 // windows discarded (non-positive bytes, inverted, non-finite)
	clamped int64 // windows with from < 0 clamped to start at 0
}

// NewLinkTimeline returns a timeline with the given bucket width.
// Non-positive widths panic: a timeline without a time base is a bug.
func NewLinkTimeline(bucket sim.Duration) *LinkTimeline {
	if bucket <= 0 {
		panic("obs: non-positive timeline bucket")
	}
	return &LinkTimeline{bucket: bucket, bytes: make(map[int][]float64)}
}

// Bucket reports the bucket width.
func (t *LinkTimeline) Bucket() sim.Duration { return t.bucket }

// DroppedWindows reports how many Add calls were discarded outright
// (non-positive or non-finite byte counts, inverted windows). A
// conservation check that sees DroppedWindows() == 0 knows a timeline
// deficit means "no traffic", not "discarded traffic".
func (t *LinkTimeline) DroppedWindows() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// ClampedWindows reports how many windows started before t=0 and were
// clamped to start at 0 (their bytes are all recorded, shifted into the
// valid range).
func (t *LinkTimeline) ClampedWindows() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.clamped
}

// Add attributes b bytes carried by link across [from, to], spreading
// them over the buckets the window covers proportionally to overlap. A
// zero-width window charges the whole amount to the bucket containing
// to. Non-positive/non-finite amounts and inverted windows are dropped
// and counted; a window starting before t=0 is clamped to start at 0
// and counted — either way the counters distinguish "no traffic" from
// "discarded traffic" (see DroppedWindows).
func (t *LinkTimeline) Add(link int, from, to sim.Time, b float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !(b > 0) || math.IsInf(b, 0) || !(to >= from) || to < 0 || math.IsInf(float64(to), 0) {
		t.dropped++
		return
	}
	if from < 0 {
		from = 0
		t.clamped++
	}
	w := float64(t.bucket)
	last := int(float64(to) / w)
	// A window ending exactly on a bucket boundary contributes nothing to
	// the bucket that starts there; don't materialize it.
	if to > from && float64(last)*w == float64(to) {
		last--
	}
	series := t.grow(link, last)
	if to == from {
		series[last] += b
		return
	}
	first := int(float64(from) / w)
	span := float64(to - from)
	for i := first; i <= last; i++ {
		lo, hi := float64(i)*w, float64(i+1)*w
		if lo < float64(from) {
			lo = float64(from)
		}
		if hi > float64(to) {
			hi = float64(to)
		}
		if hi > lo {
			series[i] += b * (hi - lo) / span
		}
	}
}

// grow ensures link's series reaches bucket index i; callers hold mu.
func (t *LinkTimeline) grow(link, i int) []float64 {
	s := t.bytes[link]
	for len(s) <= i {
		s = append(s, 0)
	}
	t.bytes[link] = s
	return s
}

// Links reports the links with any recorded traffic, ascending.
func (t *LinkTimeline) Links() []int {
	t.mu.Lock()
	out := make([]int, 0, len(t.bytes))
	for l := range t.bytes {
		out = append(out, l)
	}
	t.mu.Unlock()
	sort.Ints(out)
	return out
}

// Series returns a copy of link's per-bucket byte counts (empty when the
// link carried nothing).
func (t *LinkTimeline) Series(link int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.bytes[link]...)
}

// Utilization returns link's per-bucket utilization against the given
// capacity (bytes/second): bucketBytes / (capacity * bucketWidth).
func (t *LinkTimeline) Utilization(link int, capacity float64) []float64 {
	s := t.Series(link)
	denom := capacity * float64(t.bucket)
	if denom <= 0 {
		return s
	}
	for i := range s {
		s[i] /= denom
	}
	return s
}

// TimelineSink adapts a LinkTimeline into the Sink interface for callers
// that only want the time-bucketed utilization (no spans or metrics):
// every emission except LinkWindow is a no-op.
type TimelineSink struct {
	TL *LinkTimeline
}

var _ Sink = TimelineSink{}

// FlowActivated implements Sink as a no-op.
func (TimelineSink) FlowActivated(now sim.Time, id int, label string) {}

// FlowEnded implements Sink as a no-op.
func (TimelineSink) FlowEnded(now, activated sim.Time, id int, label string, bytes int64, aborted bool) {
}

// SweepDone implements Sink as a no-op.
func (TimelineSink) SweepDone(now sim.Time, flows, links int, full bool) {}

// FailureApplied implements Sink as a no-op.
func (TimelineSink) FailureApplied(now sim.Time, node int, isNode bool, links int) {}

// LinkWindow implements Sink: it feeds the timeline.
func (s TimelineSink) LinkWindow(link int, from, to sim.Time, bytes float64) {
	s.TL.Add(link, from, to, bytes)
}

// TotalBytes reports the sum over link's buckets — by construction equal
// (up to float rounding) to the engine's cumulative counter for the link.
func (t *LinkTimeline) TotalBytes(link int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	for _, b := range t.bytes[link] {
		sum += b
	}
	return sum
}
