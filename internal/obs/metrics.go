package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bgqflow/internal/stats"
)

// Counter is a monotonically increasing integer metric. It is safe for
// concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value-wins float metric. It is safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reports the last value set (zero before the first Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histogramCap bounds the samples a Histogram retains. A daemon
// observes once per served request, so an unbounded sample would grow
// with uptime.
const histogramCap = 4096

// Histogram collects a sample distribution; snapshots summarize it with
// the percentile math from internal/stats. Non-finite observations are
// dropped and counted — one stray NaN from an instrumentation site must
// not poison the percentile summaries of a whole -metrics snapshot. It
// is safe for concurrent use.
//
// Memory is bounded: the first histogramCap finite observations are all
// kept, and past that the histogram keeps a uniform random sample of
// every observation so far (reservoir sampling, Vitter's Algorithm R).
// N, Min, Max and Dropped stay exact; Mean, Stddev and the percentiles
// are then computed over the sample. Up to the cap, summaries are
// exactly those of the full sample.
type Histogram struct {
	mu       sync.Mutex
	samples  []float64
	n        int // finite observations, retained or not
	min, max float64
	rng      uint64 // splitmix64 state choosing reservoir slots
	dropped  int
}

// Observe records one sample; NaN and ±Inf are dropped and counted.
func (h *Histogram) Observe(x float64) {
	h.mu.Lock()
	switch {
	case math.IsNaN(x) || math.IsInf(x, 0):
		h.dropped++
	case len(h.samples) < histogramCap:
		h.samples = append(h.samples, x)
		h.note(x)
	default:
		h.note(x)
		// Keep x with probability cap/n, replacing a uniform slot.
		if j := h.next() % uint64(h.n); j < histogramCap {
			h.samples[j] = x
		}
	}
	h.mu.Unlock()
}

// note updates the exact count and extremes. Caller holds h.mu.
func (h *Histogram) note(x float64) {
	if h.n == 0 || x < h.min {
		h.min = x
	}
	if h.n == 0 || x > h.max {
		h.max = x
	}
	h.n++
}

// next steps the splitmix64 generator. Caller holds h.mu.
func (h *Histogram) next() uint64 {
	h.rng += 0x9e3779b97f4a7c15
	z := h.rng
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Dropped reports how many non-finite observations were discarded.
func (h *Histogram) Dropped() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dropped
}

// HistSummary is a histogram's snapshot: descriptive statistics plus
// interpolated percentiles. Dropped counts discarded non-finite
// observations so a snapshot distinguishes "clean sample" from
// "summaries computed around bad data".
type HistSummary struct {
	N       int     `json:"n"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Mean    float64 `json:"mean"`
	Stddev  float64 `json:"stddev"`
	P50     float64 `json:"p50"`
	P90     float64 `json:"p90"`
	P99     float64 `json:"p99"`
	Dropped int     `json:"dropped,omitempty"`
}

// Summary computes the histogram's snapshot; an empty histogram returns
// the zero value.
func (h *Histogram) Summary() HistSummary {
	h.mu.Lock()
	xs := append([]float64(nil), h.samples...)
	n, lo, hi := h.n, h.min, h.max
	dropped := h.dropped
	h.mu.Unlock()
	s := stats.Summarize(xs)
	out := HistSummary{N: s.N, Min: s.Min, Max: s.Max, Mean: s.Mean, Stddev: s.Stddev,
		Dropped: dropped + s.Dropped}
	if n > s.N {
		out.N, out.Min, out.Max = n, lo, hi
	}
	if s.N > 0 {
		out.P50 = stats.Percentile(xs, 50)
		out.P90 = stats.Percentile(xs, 90)
		out.P99 = stats.Percentile(xs, 99)
	}
	return out
}

// MetricKindError reports a metric name registered under two different
// kinds — e.g. obs.Counter("x") at one site and obs.Gauge("x") at
// another. Before this guard the collision was silent: the two sites got
// distinct metrics under one name and every flat export carried the
// ambiguity. It is delivered as a typed panic value naming both
// registration call sites, so the offending instrumentation lines are in
// the panic message itself.
type MetricKindError struct {
	Name    string // metric name
	Kind    string // kind of the existing registration
	Site    string // file:line of the existing registration
	NewKind string // kind of the conflicting registration
	NewSite string // file:line of the conflicting registration
}

func (e *MetricKindError) Error() string {
	return fmt.Sprintf("obs: metric %q registered as %s (at %s) and %s (at %s): one name, one kind",
		e.Name, e.Kind, e.Site, e.NewKind, e.NewSite)
}

// callerSite formats the instrumentation call site for kind-collision
// diagnostics. skip counts frames above the exported Registry method.
func callerSite(skip int) string {
	if _, file, line, ok := runtime.Caller(skip); ok {
		return fmt.Sprintf("%s:%d", file, line)
	}
	return "unknown"
}

// metricKind is a kind of metric: its name, as a MetricKindError gives
// it, and how to build an empty metric of it (window sizes a window
// metric).
type metricKind struct {
	name string
	new  func(window time.Duration) any
}

// The metric kinds. A lookup checks a name's kind by comparing these
// pointers, not the names.
var (
	kindCounter         = &metricKind{"counter", func(time.Duration) any { return &Counter{} }}
	kindGauge           = &metricKind{"gauge", func(time.Duration) any { return &Gauge{} }}
	kindHistogram       = &metricKind{"histogram", func(time.Duration) any { return &Histogram{} }}
	kindWindowCounter   = &metricKind{"window_counter", func(w time.Duration) any { return NewWindowCounter(w) }}
	kindWindowHistogram = &metricKind{"window_histogram", func(w time.Duration) any { return NewWindowHistogram(w) }}
)

// entry is one registered metric: the metric, its kind and the call
// site that first registered it.
type entry struct {
	metric any
	kind   *metricKind
	site   string
}

// Registry names and owns metrics. Components register (or re-find) a
// metric by name on first use; the registry hands back the same instance
// for the same name, so instrumentation sites need no shared setup. A
// name is bound to one metric kind: reusing it with a different kind
// panics with a *MetricKindError naming both call sites. Safe for
// concurrent use.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*entry)}
}

// metric returns the named metric, creating one of kind on first use;
// window sizes a window metric, and the first registration's window
// wins. A name registered under another kind panics with a
// *MetricKindError. The lock is released before the caller's type
// assertion, and without defer: every instrumented request looks its
// metrics up here.
func (r *Registry) metric(name string, kind *metricKind, window time.Duration) any {
	r.mu.Lock()
	e, ok := r.metrics[name]
	if !ok {
		e = &entry{metric: kind.new(window), kind: kind, site: callerSite(3)}
		r.metrics[name] = e
	}
	r.mu.Unlock()
	if e.kind != kind {
		panic(&MetricKindError{Name: name, Kind: e.kind.name, Site: e.site,
			NewKind: kind.name, NewSite: callerSite(3)})
	}
	return e.metric
}

// find returns the named metric when it is registered as a T, without
// creating it: SLO evaluation must not invent metrics for misspelled
// spec names.
func find[T any](r *Registry, name string) (T, bool) {
	r.mu.Lock()
	e, ok := r.metrics[name]
	r.mu.Unlock()
	var m T
	if ok {
		m, ok = e.metric.(T)
	}
	return m, ok
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return r.metric(name, kindCounter, 0).(*Counter)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return r.metric(name, kindGauge, 0).(*Gauge)
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return r.metric(name, kindHistogram, 0).(*Histogram)
}

// WindowCounter returns the named rolling-window counter, creating it
// with the given window on first use (the first registration's window
// wins; later callers get the existing instance).
func (r *Registry) WindowCounter(name string, window time.Duration) *WindowCounter {
	return r.metric(name, kindWindowCounter, window).(*WindowCounter)
}

// WindowHistogram returns the named rolling-window histogram, creating
// it with the given window on first use (first registration's window
// wins).
func (r *Registry) WindowHistogram(name string, window time.Duration) *WindowHistogram {
	return r.metric(name, kindWindowHistogram, window).(*WindowHistogram)
}

// MetricsSnapshot is a registry's flat point-in-time export.
type MetricsSnapshot struct {
	Counters         map[string]int64                `json:"counters,omitempty"`
	Gauges           map[string]float64              `json:"gauges,omitempty"`
	Histograms       map[string]HistSummary          `json:"histograms,omitempty"`
	WindowCounters   map[string]WindowCounterSummary `json:"windowCounters,omitempty"`
	WindowHistograms map[string]WindowHistSummary    `json:"windowHistograms,omitempty"`
}

// Snapshot captures every metric's current value. A kind with no
// metrics stays nil, so its key is left out of the JSON.
func (r *Registry) Snapshot() MetricsSnapshot {
	r.mu.Lock()
	metrics := make(map[string]any, len(r.metrics))
	for name, e := range r.metrics {
		metrics[name] = e.metric
	}
	r.mu.Unlock()

	var snap MetricsSnapshot
	for name, m := range metrics {
		switch m := m.(type) {
		case *Counter:
			put(&snap.Counters, name, m.Value())
		case *Gauge:
			put(&snap.Gauges, name, m.Value())
		case *Histogram:
			put(&snap.Histograms, name, m.Summary())
		case *WindowCounter:
			put(&snap.WindowCounters, name, m.Summary())
		case *WindowHistogram:
			put(&snap.WindowHistograms, name, m.Summary())
		}
	}
	return snap
}

// put sets (*m)[name] to v, making the map on first use.
func put[V any](m *map[string]V, name string, v V) {
	if *m == nil {
		*m = make(map[string]V)
	}
	(*m)[name] = v
}

// WriteJSON serializes the snapshot, indented, with a trailing newline.
func (s MetricsSnapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadMetricsSnapshot parses a previously written snapshot.
func ReadMetricsSnapshot(r io.Reader) (MetricsSnapshot, error) {
	var s MetricsSnapshot
	err := json.NewDecoder(r).Decode(&s)
	return s, err
}
