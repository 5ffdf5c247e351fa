package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"bgqflow/internal/sim"
)

// Wall-clock tracing. The Recorder type records *simulation* time — one
// deterministic engine's virtual timeline. A daemon serving live traffic
// also needs the other clock: when did the request arrive, how long did
// it sit in the dispatcher queue, how long did the session run. The
// WallRecorder records that plane into bounded rings and exports both
// planes into one Chrome/Perfetto file on aligned tracks:
//
//   - pid 1 "bgqd (wall clock)": wall spans/instants, timestamps are
//     microseconds since the recorder started.
//   - pid 2 "engine (sim clock)": sim spans/instants merged in with
//     MergeSim, timestamps are microseconds of virtual time since each
//     run's t=0.
//
// The two clocks are deliberately NOT stretched onto each other — a
// paced session's 2s wall run may cover 300µs of virtual time, and
// rescaling one to the other would destroy the readability of both.
// Correlation is by trace ID: every span and instant carries its
// request's trace in args, and engine instants additionally carry their
// virtual time (args.vtime) so a wall-plane event can be matched to the
// exact sim-plane instant. DESIGN.md §15 documents the alignment rule.
//
// Every method is nil-receiver-safe: a disabled trace plane is a nil
// *WallRecorder and costs one branch per site, preserving the PR 3
// zero-allocation discipline on hot paths (guarded by
// TestWallDisabledZeroAlloc and the paired benchmarks in wall_test.go).

const (
	wallPid = 1 // wall-clock process in the merged export
	simPid  = 2 // sim-clock process in the merged export
)

// NewTraceID returns a fresh 16-hex-char trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("obs: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// WallSpan is one wall-clock interval on a track, tagged with the trace
// it belongs to.
type WallSpan struct {
	Trace   string
	Track   string
	Name    string
	Begin   time.Time
	End     time.Time
	Aborted bool
	Open    bool // still open at snapshot time
}

// WallInstant is one wall-clock point event. VTime, when HasVTime, is
// the correlated virtual-time instant (seconds) — the clock-alignment
// breadcrumb between the wall and sim planes.
type WallInstant struct {
	Trace    string
	Track    string
	Name     string
	At       time.Time
	VTime    float64
	HasVTime bool
}

// SimSpan is a sim-clock span merged into the wall recorder (a copy of a
// Recorder span plus the owning trace).
type SimSpan struct {
	Trace   string
	Track   string
	Name    string
	Begin   sim.Time
	End     sim.Time
	Aborted bool
}

// SimInstant is a merged sim-clock instant.
type SimInstant struct {
	Trace string
	Track string
	Name  string
	At    sim.Time
}

// wallRing is a bounded FIFO: once full, pushing evicts the oldest entry
// and counts the drop. Long-running daemons keep the most recent
// capacity-many events — exactly what GET /v1/trace wants.
type wallRing[T any] struct {
	cap     int
	buf     []T
	head    int
	dropped int64
}

func (r *wallRing[T]) push(v T) {
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % r.cap
	r.dropped++
}

// items returns the ring oldest-first.
func (r *wallRing[T]) items() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}

// WallRecorder collects wall-clock spans and instants (plus merged
// sim-clock spans) into bounded rings. Create with NewWallRecorder; a
// nil recorder is a disabled trace plane and every method is a no-op.
// Safe for concurrent use.
type WallRecorder struct {
	mu          sync.Mutex
	now         func() time.Time
	origin      time.Time
	procName    string
	spans       wallRing[WallSpan]
	instants    wallRing[WallInstant]
	simSpans    wallRing[SimSpan]
	simInstants wallRing[SimInstant]
	open        map[SpanID]WallSpan
	nextSpan    SpanID
}

// NewWallRecorder builds a recorder whose rings hold capacity entries
// each (min 64).
func NewWallRecorder(capacity int) *WallRecorder {
	if capacity < 64 {
		capacity = 64
	}
	r := &WallRecorder{now: time.Now, open: make(map[SpanID]WallSpan)}
	r.origin = r.now()
	r.spans.cap = capacity
	r.instants.cap = capacity
	r.simSpans.cap = capacity
	r.simInstants.cap = capacity
	return r
}

// SetClock replaces the clock and resets the origin (tests); not safe
// concurrently with recording.
func (r *WallRecorder) SetClock(now func() time.Time) {
	r.now = now
	r.origin = now()
}

// SetProcessName overrides the wall plane's process label in the
// Chrome-trace export (default "bgqd (wall clock)"). A client-side
// recorder sets its own name so a merged client+daemon trace reads as
// two distinct processes. Configure before recording.
func (r *WallRecorder) SetProcessName(name string) {
	if r == nil {
		return
	}
	r.procName = name
}

// Span records a complete wall interval.
func (r *WallRecorder) Span(trace, track, name string, begin, end time.Time) {
	if r == nil {
		return
	}
	if end.Before(begin) {
		end = begin
	}
	r.mu.Lock()
	r.spans.push(WallSpan{Trace: trace, Track: track, Name: name, Begin: begin, End: end})
	r.mu.Unlock()
}

// SpanBegin opens a span now and returns its id. Open spans live outside
// the ring (they cannot be evicted) until closed.
func (r *WallRecorder) SpanBegin(trace, track, name string) SpanID {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.nextSpan++
	id := r.nextSpan
	r.open[id] = WallSpan{Trace: trace, Track: track, Name: name, Begin: r.now(), Open: true}
	r.mu.Unlock()
	return id
}

// SpanEnd closes a span opened with SpanBegin; unknown or already-closed
// ids are ignored.
func (r *WallRecorder) SpanEnd(id SpanID) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	if s, ok := r.open[id]; ok {
		delete(r.open, id)
		s.End = r.now()
		s.Open = false
		r.spans.push(s)
	}
	r.mu.Unlock()
}

// SpanAbort closes an open span and marks it aborted.
func (r *WallRecorder) SpanAbort(id SpanID) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	if s, ok := r.open[id]; ok {
		delete(r.open, id)
		s.End = r.now()
		s.Open = false
		s.Aborted = true
		r.spans.push(s)
	}
	r.mu.Unlock()
}

// Instant records a wall-clock point event now.
func (r *WallRecorder) Instant(trace, track, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.instants.push(WallInstant{Trace: trace, Track: track, Name: name, At: r.now()})
	r.mu.Unlock()
}

// InstantV records a wall-clock point event correlated with a
// virtual-time instant (seconds) — used for engine events (replans,
// pushed faults) that exist on both clocks.
func (r *WallRecorder) InstantV(trace, track, name string, vtime float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.instants.push(WallInstant{Trace: trace, Track: track, Name: name, At: r.now(),
		VTime: vtime, HasVTime: true})
	r.mu.Unlock()
}

// MergeSim copies a sim-clock Recorder's spans and instants into the
// wall recorder's sim rings under the given trace. Sessions record their
// engine timeline into a private Recorder and merge it here when the run
// finishes, so the daemon-wide trace file carries every session's
// sim-plane story without unbounded per-session state.
func (r *WallRecorder) MergeSim(trace string, rec *Recorder) {
	if r == nil || rec == nil {
		return
	}
	spans := rec.Spans()
	instants := rec.Instants()
	r.mu.Lock()
	for _, s := range spans {
		r.simSpans.push(SimSpan{Trace: trace, Track: s.Track, Name: s.Name,
			Begin: s.Begin, End: s.End, Aborted: s.Aborted})
	}
	for _, i := range instants {
		r.simInstants.push(SimInstant{Trace: trace, Track: i.Track, Name: i.Name, At: i.At})
	}
	r.mu.Unlock()
}

// OpenSpans reports how many spans are currently open — a trace export
// with zero open spans has no orphans.
func (r *WallRecorder) OpenSpans() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.open)
}

// Dropped reports how many events were evicted from full rings.
func (r *WallRecorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans.dropped + r.instants.dropped + r.simSpans.dropped + r.simInstants.dropped
}

// snapshot copies the recorder state for export.
func (r *WallRecorder) snapshot() (spans []WallSpan, instants []WallInstant, simSpans []SimSpan, simInstants []SimInstant, origin, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now = r.now()
	spans = r.spans.items()
	for _, s := range r.open {
		s.End = now
		spans = append(spans, s)
	}
	instants = r.instants.items()
	simSpans = r.simSpans.items()
	simInstants = r.simInstants.items()
	origin = r.origin
	return
}

// Spans returns the recorded wall spans (closed ring entries plus open
// spans, End set to now) sorted by Begin.
func (r *WallRecorder) Spans() []WallSpan {
	if r == nil {
		return nil
	}
	spans, _, _, _, _, _ := r.snapshot()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Begin.Before(spans[j].Begin) })
	return spans
}

// SimSpans returns the merged sim-clock spans sorted by (Begin, End,
// Track, Name).
func (r *WallRecorder) SimSpans() []SimSpan {
	if r == nil {
		return nil
	}
	_, _, simSpans, _, _, _ := r.snapshot()
	sortSimSpans(simSpans)
	return simSpans
}

func sortSimSpans(out []SimSpan) {
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
}

func traceArgs(trace string, extra map[string]any) map[string]any {
	if trace == "" && extra == nil {
		return nil
	}
	args := make(map[string]any, 1+len(extra))
	if trace != "" {
		args["trace"] = trace
	}
	for k, v := range extra {
		args[k] = v
	}
	return args
}

// WriteChromeTrace exports the merged wall + sim planes as one
// Chrome/Perfetto trace-event file. Wall events land under pid 1 with
// timestamps in microseconds since the recorder's origin; merged sim
// events land under pid 2 in microseconds of virtual time. Every event
// carries its trace ID in args; still-open wall spans are exported up to
// "now" with args.open = true.
func (r *WallRecorder) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("obs: nil WallRecorder (tracing disabled)")
	}
	spans, instants, simSpans, simInstants, origin, _ := r.snapshot()
	procName := r.procName
	if procName == "" {
		procName = "bgqd (wall clock)"
	}

	usecSince := func(t time.Time) float64 {
		d := t.Sub(origin)
		if d < 0 {
			d = 0
		}
		return float64(d) / float64(time.Microsecond)
	}

	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Begin.Before(spans[j].Begin) })
	wallSpans := make([]laneSpan, 0, len(spans))
	for _, s := range spans {
		var extra map[string]any
		if s.Open {
			extra = map[string]any{"open": true}
		}
		if s.Aborted {
			if extra == nil {
				extra = map[string]any{}
			}
			extra["aborted"] = true
		}
		ts := usecSince(s.Begin)
		dur := usecSince(s.End) - ts
		wallSpans = append(wallSpans, laneSpan{
			track: s.Track, name: s.Name, ts: ts, dur: dur,
			begin: ts, end: ts + dur, args: traceArgs(s.Trace, extra),
		})
	}
	sort.SliceStable(instants, func(i, j int) bool { return instants[i].At.Before(instants[j].At) })
	wallInstants := make([]laneInstant, 0, len(instants))
	for _, i := range instants {
		var extra map[string]any
		if i.HasVTime {
			extra = map[string]any{"vtime": i.VTime}
		}
		wallInstants = append(wallInstants, laneInstant{
			track: i.Track, name: i.Name, ts: usecSince(i.At), args: traceArgs(i.Trace, extra),
		})
	}

	events, nextTid := laneEvents(wallPid, procName, 1, wallSpans, wallInstants)

	sortSimSpans(simSpans)
	simLane := make([]laneSpan, 0, len(simSpans))
	for _, s := range simSpans {
		var extra map[string]any
		if s.Aborted {
			extra = map[string]any{"aborted": true}
		}
		simLane = append(simLane, simLaneSpan(s.Track, s.Name, s.Begin, s.End, traceArgs(s.Trace, extra)))
	}
	sort.SliceStable(simInstants, func(i, j int) bool {
		if simInstants[i].At != simInstants[j].At {
			return simInstants[i].At < simInstants[j].At
		}
		return simInstants[i].Track < simInstants[j].Track
	})
	simLaneInstants := make([]laneInstant, 0, len(simInstants))
	for _, i := range simInstants {
		simLaneInstants = append(simLaneInstants, laneInstant{
			track: i.Track, name: i.Name, ts: usec(i.At),
			args: traceArgs(i.Trace, map[string]any{"vtime": float64(i.At)}),
		})
	}
	if len(simLane) > 0 || len(simLaneInstants) > 0 {
		simEvents, _ := laneEvents(simPid, "engine (sim clock)", nextTid, simLane, simLaneInstants)
		events = append(events, simEvents...)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// MergeChromeTraces concatenates several Chrome trace-event JSON files
// into one, re-keying process IDs so the inputs render as separate
// processes (bgqload uses it to merge its client-side trace with the
// daemon's GET /v1/trace snapshot into a single openable file).
func MergeChromeTraces(w io.Writer, traces ...[]byte) error {
	var merged chromeTrace
	merged.DisplayTimeUnit = "ms"
	pidOffset := 0
	for n, raw := range traces {
		var t chromeTrace
		if err := json.Unmarshal(raw, &t); err != nil {
			return fmt.Errorf("obs: merge trace %d: %w", n, err)
		}
		maxPid := 0
		for _, ev := range t.TraceEvents {
			if ev.Pid > maxPid {
				maxPid = ev.Pid
			}
		}
		for _, ev := range t.TraceEvents {
			ev.Pid += pidOffset
			merged.TraceEvents = append(merged.TraceEvents, ev)
		}
		pidOffset += maxPid
	}
	enc := json.NewEncoder(w)
	return enc.Encode(merged)
}
