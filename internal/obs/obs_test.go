package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"bgqflow/internal/sim"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if r.Counter("a") != c {
		t.Fatal("Counter(name) must return the same instance")
	}
	if got := r.Counter("a").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g")
	g.Set(2.5)
	if got := r.Gauge("g").Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
	h := r.Histogram("h")
	h.Observe(1)
	if r.Histogram("h") != h {
		t.Fatal("Histogram(name) must return the same instance")
	}
}

func TestHistogramSummary(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Summary()
	if s.N != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Mean-50.5) > 1e-9 {
		t.Fatalf("mean = %g, want 50.5", s.Mean)
	}
	if s.P50 < 50 || s.P50 > 51 {
		t.Fatalf("p50 = %g, want ~50.5", s.P50)
	}
	if s.P99 < 99 || s.P99 > 100 {
		t.Fatalf("p99 = %g, want ~99", s.P99)
	}
	if (&Histogram{}).Summary() != (HistSummary{}) {
		t.Fatal("empty histogram must summarize to the zero value")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(7)
	r.Gauge("g").Set(1.5)
	r.Histogram("h").Observe(3)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMetricsSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters["c"] != 7 || got.Gauges["g"] != 1.5 || got.Histograms["h"].N != 1 {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestRecorderSpans(t *testing.T) {
	r := NewRecorder()
	r.Span("t", "late", 2, 3)
	r.Span("t", "early", 0, 1)
	r.SpanAborted("t", "cut", 1, 2)
	id := r.SpanBegin("t", "open-close", 4)
	r.SpanEnd(id, 6)
	r.SpanEnd(id, 9) // second close ignored
	r.SpanEnd(SpanID(999), 9)

	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	order := []string{"early", "cut", "late", "open-close"}
	for i, want := range order {
		if spans[i].Name != want {
			t.Fatalf("span[%d] = %q, want %q (sorted by begin)", i, spans[i].Name, want)
		}
	}
	if !spans[1].Aborted {
		t.Fatal("aborted span lost its flag")
	}
	if spans[3].End != 6 {
		t.Fatalf("open-close end = %v, want 6 (second SpanEnd ignored)", spans[3].End)
	}
	// Inverted interval clamps to zero width rather than going negative.
	r2 := NewRecorder()
	r2.Span("t", "inv", 5, 3)
	if s := r2.Spans()[0]; s.End != s.Begin {
		t.Fatalf("inverted span = [%v,%v], want clamped", s.Begin, s.End)
	}
}

func TestTimelineProportionalSpread(t *testing.T) {
	tl := NewLinkTimeline(1.0)
	// 30 bytes over [0.5, 3.5): 1/6 in bucket 0, 1/3 each in 1 and 2,
	// 1/6 in bucket 3.
	tl.Add(7, 0.5, 3.5, 30)
	s := tl.Series(7)
	want := []float64{5, 10, 10, 5}
	if len(s) != len(want) {
		t.Fatalf("series = %v, want %v", s, want)
	}
	for i := range want {
		if math.Abs(s[i]-want[i]) > 1e-9 {
			t.Fatalf("series = %v, want %v", s, want)
		}
	}
	if got := tl.TotalBytes(7); math.Abs(got-30) > 1e-9 {
		t.Fatalf("total = %g, want 30 (buckets must integrate to the charge)", got)
	}

	// Zero-width window lands whole in the containing bucket.
	tl.Add(8, 2.5, 2.5, 4)
	if s := tl.Series(8); s[2] != 4 {
		t.Fatalf("zero-width charge = %v, want bucket 2", s)
	}
	// Ignored inputs.
	tl.Add(9, 1, 0, 5)  // inverted
	tl.Add(9, 0, 1, -5) // negative
	if len(tl.Series(9)) != 0 {
		t.Fatal("invalid charges must be ignored")
	}
	// A window starting before t=0 is clamped, not dropped: the bytes stay.
	tl.Add(10, -1, 1, 5)
	if got := tl.TotalBytes(10); math.Abs(got-5) > 1e-9 {
		t.Fatalf("clamped charge kept %g bytes, want 5", got)
	}
	if links := tl.Links(); len(links) != 3 || links[0] != 7 || links[1] != 8 || links[2] != 10 {
		t.Fatalf("links = %v, want [7 8 10]", links)
	}
	util := tl.Utilization(7, 20) // capacity 20 B/s, bucket 1 s
	if math.Abs(util[1]-0.5) > 1e-9 {
		t.Fatalf("util = %v, want 0.5 in bucket 1", util)
	}
}

func TestTimelineBadBucketPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLinkTimeline(0) must panic")
		}
	}()
	NewLinkTimeline(0)
}

func TestChromeTraceExport(t *testing.T) {
	r := NewRecorder()
	// Two overlapping spans on one track force a second lane.
	r.Span("flows", "a", 0, 10e-6)
	r.Span("flows", "b", 5e-6, 15e-6)
	r.SpanAborted("flows", "c", 20e-6, 30e-6)
	r.Instant("flows", "boom", 12e-6)
	r.CounterSample("active", 1e-6, 2)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	byName := make(map[string][]int)
	lanes := make(map[int]bool)
	for i, e := range trace.TraceEvents {
		byName[e.Name] = append(byName[e.Name], i)
		if e.Ph == "X" {
			lanes[e.Tid] = true
		}
	}
	for _, want := range []string{"a", "b", "c", "boom", "active", "process_name", "thread_name"} {
		if len(byName[want]) == 0 {
			t.Fatalf("trace is missing event %q", want)
		}
	}
	if len(lanes) != 2 {
		t.Fatalf("overlapping spans must land on 2 lanes, got %d", len(lanes))
	}
	a := trace.TraceEvents[byName["a"][0]]
	if a.Ph != "X" || a.Ts != 0 || math.Abs(a.Dur-10) > 1e-9 {
		t.Fatalf("span a = %+v, want complete event with 10us duration", a)
	}
	c := trace.TraceEvents[byName["c"][0]]
	if c.Args["aborted"] != true {
		t.Fatalf("aborted span c lost its marker: %+v", c)
	}
	boom := trace.TraceEvents[byName["boom"][0]]
	if boom.Ph != "i" || boom.S != "t" {
		t.Fatalf("instant = %+v", boom)
	}
	if !strings.Contains(buf.String(), `"displayTimeUnit":"ms"`) {
		t.Fatal("trace must set displayTimeUnit")
	}
}

func TestEngineSinkAdapts(t *testing.T) {
	r := NewRecorder()
	tl := NewLinkTimeline(1e-3)
	var s Sink = r.EngineSink("eng", tl)
	s.FlowActivated(0, 0, "f")
	s.LinkWindow(3, 0, 1e-3, 100)
	s.FlowEnded(2e-3, 0, 0, "f", 100, false)
	s.FlowActivated(2e-3, 1, "")
	s.FlowEnded(3e-3, 2e-3, 1, "", 50, true)
	s.SweepDone(3e-3, 2, 4, true)
	s.SweepDone(4e-3, 1, 3, false)
	s.FailureApplied(1e-3, 5, true, 10)

	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "f" || spans[0].Track != "eng/flows" {
		t.Fatalf("span[0] = %+v", spans[0])
	}
	if spans[1].Name != "flow1 (aborted)" || !spans[1].Aborted {
		t.Fatalf("span[1] = %+v, want fallback label + abort flag", spans[1])
	}
	reg := r.Registry()
	if reg.Counter("netsim/flows_done").Value() != 1 ||
		reg.Counter("netsim/flows_aborted").Value() != 1 ||
		reg.Counter("netsim/sweeps").Value() != 2 ||
		reg.Counter("netsim/sweeps_full").Value() != 1 ||
		reg.Counter("netsim/sweeps_incremental").Value() != 1 ||
		reg.Counter("netsim/failures").Value() != 1 {
		t.Fatalf("counters = %v", reg.Snapshot().Counters)
	}
	if h := reg.Histogram("netsim/dirty_links").Summary(); h.N != 1 || h.Max != 3 {
		t.Fatalf("dirty_links histogram = %+v, want one sample of 3", h)
	}
	if got := tl.TotalBytes(3); got != 100 {
		t.Fatalf("timeline got %g bytes, want 100", got)
	}
	ins := r.Instants()
	if len(ins) != 1 || ins[0].Track != "eng/failures" || !strings.Contains(ins[0].Name, "node 5") {
		t.Fatalf("instants = %+v", ins)
	}
	if n := len(r.CounterSamples()); n != 4 {
		t.Fatalf("got %d counter samples, want 4 (two activations, two ends)", n)
	}
}

func TestTimelineCounters(t *testing.T) {
	r := NewRecorder()
	tl := NewLinkTimeline(1.0)
	tl.Add(0, 0, 2, 20)
	r.TimelineCounters(tl, func(l int) string { return "link" }, func(l int) float64 { return 10 })
	cs := r.CounterSamples()
	if len(cs) != 2 {
		t.Fatalf("got %d samples, want 2", len(cs))
	}
	if cs[0].At != sim.Time(0.5) || cs[0].Value != 1.0 {
		t.Fatalf("sample[0] = %+v, want bucket midpoint at full utilization", cs[0])
	}
}
