package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
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

// metricReg remembers how (and where) a name was first registered.
type metricReg struct {
	kind string
	site string
}

// callerSite formats the instrumentation call site for kind-collision
// diagnostics. skip counts frames above the exported Registry method.
func callerSite(skip int) string {
	if _, file, line, ok := runtime.Caller(skip); ok {
		return fmt.Sprintf("%s:%d", file, line)
	}
	return "unknown"
}

// Registry names and owns metrics. Components register (or re-find) a
// metric by name on first use; the registry hands back the same instance
// for the same name, so instrumentation sites need no shared setup. A
// name is bound to one metric kind: reusing it with a different kind
// panics with a *MetricKindError naming both call sites. Safe for
// concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	wcounts  map[string]*WindowCounter
	whists   map[string]*WindowHistogram
	kinds    map[string]metricReg
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		wcounts:  make(map[string]*WindowCounter),
		whists:   make(map[string]*WindowHistogram),
		kinds:    make(map[string]metricReg),
	}
}

// bindKindLocked registers (or re-checks) a name's kind; a cross-kind
// reuse panics with a *MetricKindError. Caller holds r.mu.
func (r *Registry) bindKindLocked(name, kind string) {
	prev, ok := r.kinds[name]
	if !ok {
		r.kinds[name] = metricReg{kind: kind, site: callerSite(3)}
		return
	}
	if prev.kind != kind {
		panic(&MetricKindError{Name: name, Kind: prev.kind, Site: prev.site,
			NewKind: kind, NewSite: callerSite(3)})
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		r.bindKindLocked(name, "counter")
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		r.bindKindLocked(name, "gauge")
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		r.bindKindLocked(name, "histogram")
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// WindowCounter returns the named rolling-window counter, creating it
// with the given window on first use (the first registration's window
// wins; later callers get the existing instance).
func (r *Registry) WindowCounter(name string, window time.Duration) *WindowCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.wcounts[name]
	if !ok {
		r.bindKindLocked(name, "window_counter")
		c = NewWindowCounter(window)
		r.wcounts[name] = c
	}
	return c
}

// WindowHistogram returns the named rolling-window histogram, creating
// it with the given window on first use (first registration's window
// wins).
func (r *Registry) WindowHistogram(name string, window time.Duration) *WindowHistogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.whists[name]
	if !ok {
		r.bindKindLocked(name, "window_histogram")
		h = NewWindowHistogram(window)
		r.whists[name] = h
	}
	return h
}

// findWindowCounter looks a window counter up without creating it (SLO
// evaluation must not invent metrics for misspelled spec names).
func (r *Registry) findWindowCounter(name string) (*WindowCounter, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.wcounts[name]
	return c, ok
}

// findWindowHistogram looks a window histogram up without creating it.
func (r *Registry) findWindowHistogram(name string) (*WindowHistogram, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.whists[name]
	return h, ok
}

// MetricsSnapshot is a registry's flat point-in-time export.
type MetricsSnapshot struct {
	Counters         map[string]int64                `json:"counters,omitempty"`
	Gauges           map[string]float64              `json:"gauges,omitempty"`
	Histograms       map[string]HistSummary          `json:"histograms,omitempty"`
	WindowCounters   map[string]WindowCounterSummary `json:"windowCounters,omitempty"`
	WindowHistograms map[string]WindowHistSummary    `json:"windowHistograms,omitempty"`
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot() MetricsSnapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	wcounts := make(map[string]*WindowCounter, len(r.wcounts))
	for k, v := range r.wcounts {
		wcounts[k] = v
	}
	whists := make(map[string]*WindowHistogram, len(r.whists))
	for k, v := range r.whists {
		whists[k] = v
	}
	r.mu.Unlock()

	snap := MetricsSnapshot{}
	if len(counters) > 0 {
		snap.Counters = make(map[string]int64, len(counters))
		for k, v := range counters {
			snap.Counters[k] = v.Value()
		}
	}
	if len(gauges) > 0 {
		snap.Gauges = make(map[string]float64, len(gauges))
		for k, v := range gauges {
			snap.Gauges[k] = v.Value()
		}
	}
	if len(hists) > 0 {
		snap.Histograms = make(map[string]HistSummary, len(hists))
		for k, v := range hists {
			snap.Histograms[k] = v.Summary()
		}
	}
	if len(wcounts) > 0 {
		snap.WindowCounters = make(map[string]WindowCounterSummary, len(wcounts))
		for k, v := range wcounts {
			snap.WindowCounters[k] = v.Summary()
		}
	}
	if len(whists) > 0 {
		snap.WindowHistograms = make(map[string]WindowHistSummary, len(whists))
		for k, v := range whists {
			snap.WindowHistograms[k] = v.Summary()
		}
	}
	return snap
}

// Names reports every registered metric name, sorted, for diagnostics.
func (r *Registry) Names() []string {
	r.mu.Lock()
	names := make([]string, 0, len(r.kinds))
	for k := range r.kinds {
		names = append(names, k)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
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
