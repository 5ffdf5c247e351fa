package obs

import (
	"fmt"
	"sort"
	"sync"

	"bgqflow/internal/sim"
)

// Span is one named interval on a track, in virtual time.
type Span struct {
	Track   string
	Name    string
	Begin   sim.Time
	End     sim.Time
	Aborted bool // rendered distinctly by the Perfetto exporter
	open    bool
}

// Instant is one zero-duration event on a track.
type Instant struct {
	Track string
	Name  string
	At    sim.Time
}

// CounterSample is one sample of a named counter track.
type CounterSample struct {
	Track string
	At    sim.Time
	Value float64
}

// Recorder collects simulation-clock telemetry — spans, instants,
// counter samples — plus a metrics Registry, and exports them as
// Chrome/Perfetto trace-event JSON or a flat metrics snapshot. One
// Recorder may serve many engines and planners concurrently; every
// method is mutex-protected (observability is off the hot path by
// construction: a nil Recorder/Sink costs one branch).
type Recorder struct {
	mu       sync.Mutex
	reg      *Registry
	spans    []Span
	instants []Instant
	counters []CounterSample
	open     map[SpanID]int // open span id -> index into spans
	nextSpan SpanID
}

// NewRecorder returns an empty recorder with a fresh metrics registry.
func NewRecorder() *Recorder {
	return &Recorder{reg: NewRegistry(), open: make(map[SpanID]int)}
}

// Registry returns the recorder's metrics registry.
func (r *Recorder) Registry() *Registry { return r.reg }

// Span records a complete interval [begin, end] on a track.
func (r *Recorder) Span(track, name string, begin, end sim.Time) {
	r.spanFull(track, name, begin, end, false)
}

// SpanAborted records a complete interval that ended in an abort; the
// exporter marks it so cut transfers are visually distinct.
func (r *Recorder) SpanAborted(track, name string, begin, end sim.Time) {
	r.spanFull(track, name, begin, end, true)
}

func (r *Recorder) spanFull(track, name string, begin, end sim.Time, aborted bool) {
	if end < begin {
		end = begin
	}
	r.mu.Lock()
	r.spans = append(r.spans, Span{Track: track, Name: name, Begin: begin, End: end, Aborted: aborted})
	r.mu.Unlock()
}

// SpanBegin opens a span at the given instant and returns its id.
func (r *Recorder) SpanBegin(track, name string, at sim.Time) SpanID {
	r.mu.Lock()
	r.nextSpan++
	id := r.nextSpan
	r.open[id] = len(r.spans)
	r.spans = append(r.spans, Span{Track: track, Name: name, Begin: at, End: at, open: true})
	r.mu.Unlock()
	return id
}

// SpanEnd closes a span opened with SpanBegin. Unknown or already-closed
// ids are ignored (a span must not be closable twice).
func (r *Recorder) SpanEnd(id SpanID, at sim.Time) {
	r.mu.Lock()
	if i, ok := r.open[id]; ok {
		delete(r.open, id)
		r.spans[i].open = false
		if at > r.spans[i].Begin {
			r.spans[i].End = at
		}
	}
	r.mu.Unlock()
}

// Instant records a zero-duration event.
func (r *Recorder) Instant(track, name string, at sim.Time) {
	r.mu.Lock()
	r.instants = append(r.instants, Instant{Track: track, Name: name, At: at})
	r.mu.Unlock()
}

// CounterSample records one sample of a counter track (rendered as a
// counter plot by the Perfetto exporter).
func (r *Recorder) CounterSample(track string, at sim.Time, v float64) {
	r.mu.Lock()
	r.counters = append(r.counters, CounterSample{Track: track, At: at, Value: v})
	r.mu.Unlock()
}

// Spans returns the recorded spans sorted by (Begin, End, Track, Name).
// Still-open spans are included with End == Begin.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Begin != out[j].Begin {
			return out[i].Begin < out[j].Begin
		}
		if out[i].End != out[j].End {
			return out[i].End < out[j].End
		}
		if out[i].Track != out[j].Track {
			return out[i].Track < out[j].Track
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Instants returns the recorded instants sorted by (At, Track, Name).
func (r *Recorder) Instants() []Instant {
	r.mu.Lock()
	out := append([]Instant(nil), r.instants...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Track != out[j].Track {
			return out[i].Track < out[j].Track
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// CounterSamples returns the recorded counter samples in recording order.
func (r *Recorder) CounterSamples() []CounterSample {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]CounterSample(nil), r.counters...)
}

// TimelineCounters renders a link timeline as per-link counter tracks
// (one sample per bucket midpoint), so ui.perfetto.dev plots utilization
// alongside the spans. name maps a link id to its track label; capacity
// maps it to bytes/second (utilization denominator).
func (r *Recorder) TimelineCounters(tl *LinkTimeline, name func(link int) string, capacity func(link int) float64) {
	half := sim.Time(tl.Bucket()) / 2
	for _, l := range tl.Links() {
		util := tl.Utilization(l, capacity(l))
		track := name(l)
		for i, u := range util {
			r.CounterSample(track, sim.Time(i)*sim.Time(tl.Bucket())+half, u)
		}
	}
}

// EngineSink adapts the recorder into the Sink interface the flow engine
// calls, filing everything under a track prefix so several engines can
// share one recorder. tl, when non-nil, receives the engine's per-link
// byte windows (the time-bucketed utilization timeline).
//
// Tracks emitted under the prefix: "<prefix>/flows" (one span per flow's
// wire occupancy, labeled with the flow label), "<prefix>/failures"
// (instants), and "<prefix>/active flows" (counter). Registry metrics:
// netsim/sweeps, netsim/failures, netsim/flows_done, netsim/flows_aborted
// counters and the netsim/sweep_flows histogram (component sizes).
func (r *Recorder) EngineSink(prefix string, tl *LinkTimeline) *EngineSink {
	return &EngineSink{rec: r, prefix: prefix, tl: tl}
}

// EngineSink implements Sink on top of a Recorder; see
// Recorder.EngineSink. One EngineSink serves one engine.
type EngineSink struct {
	rec    *Recorder
	prefix string
	tl     *LinkTimeline
	active int
}

var _ Sink = (*EngineSink)(nil)

// FlowActivated implements Sink: it samples the active-flow counter.
func (s *EngineSink) FlowActivated(now sim.Time, id int, label string) {
	s.active++
	s.rec.CounterSample(s.prefix+"/active flows", now, float64(s.active))
}

// FlowEnded implements Sink: it emits the flow's wire-occupancy span and
// closes the active-flow counter sample.
func (s *EngineSink) FlowEnded(now, activated sim.Time, id int, label string, bytes int64, aborted bool) {
	s.active--
	s.rec.CounterSample(s.prefix+"/active flows", now, float64(s.active))
	if label == "" {
		label = fmt.Sprintf("flow%d", id)
	}
	if aborted {
		s.rec.SpanAborted(s.prefix+"/flows", label+" (aborted)", activated, now)
		s.rec.reg.Counter("netsim/flows_aborted").Inc()
	} else {
		s.rec.Span(s.prefix+"/flows", label, activated, now)
		s.rec.reg.Counter("netsim/flows_done").Inc()
	}
}

// SweepDone implements Sink: total and per-mode sweep counts, the
// region-size histograms that make the incremental cutoff's
// effectiveness visible in -metrics snapshots (netsim/dirty_links is the
// number of links an incremental sweep actually re-leveled).
func (s *EngineSink) SweepDone(now sim.Time, flows, links int, full bool) {
	s.rec.reg.Counter("netsim/sweeps").Inc()
	if full {
		s.rec.reg.Counter("netsim/sweeps_full").Inc()
	} else {
		s.rec.reg.Counter("netsim/sweeps_incremental").Inc()
		s.rec.reg.Histogram("netsim/dirty_links").Observe(float64(links))
	}
	s.rec.reg.Histogram("netsim/sweep_flows").Observe(float64(flows))
}

// FailureApplied implements Sink: an instant on the failures track.
func (s *EngineSink) FailureApplied(now sim.Time, node int, isNode bool, links int) {
	name := fmt.Sprintf("link failure (%d links)", links)
	if isNode {
		name = fmt.Sprintf("node %d failure (%d links)", node, links)
	}
	s.rec.Instant(s.prefix+"/failures", name, now)
	s.rec.reg.Counter("netsim/failures").Inc()
}

// LinkWindow implements Sink: it feeds the attached timeline, if any.
func (s *EngineSink) LinkWindow(link int, from, to sim.Time, bytes float64) {
	if s.tl != nil {
		s.tl.Add(link, from, to, bytes)
	}
}
