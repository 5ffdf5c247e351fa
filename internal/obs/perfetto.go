package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"

	"bgqflow/internal/sim"
)

// chromeEvent is one entry of the Chrome trace-event JSON format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// the legacy format ui.perfetto.dev and chrome://tracing both load.
// Timestamps and durations are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const tracePid = 1

func usec(t sim.Time) float64 { return float64(t) * 1e6 }

// laneSpan/laneInstant are clock-agnostic export rows: ts and dur are
// already microseconds on their process's clock. begin and end place
// the span on its own clock for lane assignment, so lanes never shift
// by the rounding of the microsecond conversion.
type laneSpan struct {
	track      string
	name       string
	ts         float64
	dur        float64
	begin, end float64
	args       map[string]any
}

type laneInstant struct {
	track string
	name  string
	ts    float64
	args  map[string]any
}

// simLaneSpan renders a sim-clock span: exported in microseconds of
// virtual time, laned on the sim clock itself.
func simLaneSpan(track, name string, begin, end sim.Time, args map[string]any) laneSpan {
	return laneSpan{
		track: track, name: name, ts: usec(begin), dur: usec(end - begin),
		begin: float64(begin), end: float64(end), args: args,
	}
}

// laneEvents renders one process's spans and instants. Each track
// becomes a named thread; overlapping spans on one track are spread
// across extra threads ("track #n") by greedy first-fit, so concurrent
// flows render side by side instead of nesting incorrectly. spans must
// be sorted by begin. Returns the events and the next free tid.
func laneEvents(pid int, procName string, tidBase int, spans []laneSpan, instants []laneInstant) ([]chromeEvent, int) {
	trackSet := make(map[string]struct{})
	for _, s := range spans {
		trackSet[s.track] = struct{}{}
	}
	for _, i := range instants {
		trackSet[i.track] = struct{}{}
	}
	tracks := make([]string, 0, len(trackSet))
	for t := range trackSet {
		tracks = append(tracks, t)
	}
	sort.Strings(tracks)

	events := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": procName},
	}}

	nextTid := tidBase
	trackTid := make(map[string]int, len(tracks)) // lane-0 tid per track
	laneEnd := make(map[string][]float64)         // each lane's last end
	laneTid := make(map[string][]int)
	threadName := func(track string, lane int) chromeEvent {
		name := track
		if lane > 0 {
			name = track + " #" + strconv.Itoa(lane)
		}
		return chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: laneTid[track][lane],
			Args: map[string]any{"name": name},
		}
	}
	openLane := func(track string) int {
		lane := len(laneTid[track])
		laneTid[track] = append(laneTid[track], nextTid)
		laneEnd[track] = append(laneEnd[track], -1)
		if lane == 0 {
			trackTid[track] = nextTid
		}
		nextTid++
		return lane
	}
	for _, track := range tracks {
		openLane(track)
		events = append(events, threadName(track, 0))
	}

	for _, s := range spans {
		lane := -1
		for i, end := range laneEnd[s.track] {
			if end <= s.begin {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = openLane(s.track)
			events = append(events, threadName(s.track, lane))
		}
		laneEnd[s.track][lane] = s.end
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X", Ts: s.ts, Dur: s.dur,
			Pid: pid, Tid: laneTid[s.track][lane], Args: s.args,
		})
	}

	for _, i := range instants {
		events = append(events, chromeEvent{
			Name: i.name, Ph: "i", Ts: i.ts,
			Pid: pid, Tid: trackTid[i.track], S: "t", Args: i.args,
		})
	}
	return events, nextTid
}

// WriteChromeTrace exports the recorder's spans, instants, and counter
// samples as Chrome trace-event JSON: one process whose tracks are laned
// by laneEvents, plus one counter track per sampled series. Aborted
// spans carry an args marker.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	spans := r.Spans()
	lanes := make([]laneSpan, 0, len(spans))
	for _, s := range spans {
		var args map[string]any
		if s.Aborted {
			args = map[string]any{"aborted": true}
		}
		lanes = append(lanes, simLaneSpan(s.Track, s.Name, s.Begin, s.End, args))
	}
	instants := r.Instants()
	points := make([]laneInstant, 0, len(instants))
	for _, i := range instants {
		points = append(points, laneInstant{track: i.Track, name: i.Name, ts: usec(i.At)})
	}
	events, _ := laneEvents(tracePid, "bgqflow", 1, lanes, points)

	// Counter tracks are keyed by (pid, name); no thread table needed.
	for _, c := range r.CounterSamples() {
		events = append(events, chromeEvent{
			Name: c.Track, Ph: "C", Ts: usec(c.At), Pid: tracePid,
			Args: map[string]any{"value": c.Value},
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}
