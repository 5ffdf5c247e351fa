package obs

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable, manually advanced clock.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestWindowCounterRollsOff(t *testing.T) {
	clk := newFakeClock()
	c := NewWindowCounter(16 * time.Second) // slot = 1s
	c.SetClock(clk.now)

	c.Add(10)
	clk.advance(8 * time.Second)
	c.Add(5)
	if got := c.Total(); got != 15 {
		t.Fatalf("Total = %d, want 15 (both bursts in window)", got)
	}
	// Advance past the first burst's slot but not the second's.
	clk.advance(10 * time.Second)
	if got := c.Total(); got != 5 {
		t.Fatalf("Total = %d, want 5 (first burst rolled off)", got)
	}
	clk.advance(16 * time.Second)
	if got := c.Total(); got != 0 {
		t.Fatalf("Total = %d, want 0 (everything rolled off)", got)
	}
	// Rate uses the window length.
	c.Add(32)
	if got := c.Rate(); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("Rate = %g, want 2/s (32 over 16s)", got)
	}
	s := c.Summary()
	if s.Total != 32 || s.WindowSec != 16 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestWindowCounterSlotReuseClears(t *testing.T) {
	clk := newFakeClock()
	c := NewWindowCounter(16 * time.Second)
	c.SetClock(clk.now)
	c.Add(7)
	// A full ring revolution later the same slot index must not resurrect
	// the old count.
	clk.advance(16 * time.Second)
	c.Add(1)
	if got := c.Total(); got != 1 {
		t.Fatalf("Total = %d, want 1 (stale slot must be cleared on reuse)", got)
	}
}

func TestWindowHistogramSummaryAndRolloff(t *testing.T) {
	clk := newFakeClock()
	h := NewWindowHistogram(16 * time.Second)
	h.SetClock(clk.now)

	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	h.Observe(math.NaN())
	h.Observe(math.Inf(-1))
	s := h.Summary()
	if s.N != 100 || s.Dropped != 2 {
		t.Fatalf("N=%d Dropped=%d, want 100 and 2", s.N, s.Dropped)
	}
	if s.P99 < 99 || s.P99 > 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Rate-100.0/16) > 1e-9 {
		t.Fatalf("Rate = %g, want %g", s.Rate, 100.0/16)
	}

	clk.advance(time.Minute)
	if s := h.Summary(); s.N != 0 || s.Dropped != 0 {
		t.Fatalf("after window: %+v, want empty", s)
	}
	// New samples after the roll-off summarize cleanly.
	h.Observe(42)
	if s := h.Summary(); s.N != 1 || s.P50 != 42 {
		t.Fatalf("post-rolloff summary = %+v", s)
	}
}

func TestRegistryWindowMetricsAndSnapshot(t *testing.T) {
	r := NewRegistry()
	wc := r.WindowCounter("w/c", 10*time.Second)
	if r.WindowCounter("w/c", 99*time.Second) != wc {
		t.Fatal("WindowCounter(name) must return the same instance (first window wins)")
	}
	wc.Add(3)
	r.WindowHistogram("w/h", 10*time.Second).Observe(1.5)

	snap := r.Snapshot()
	if snap.WindowCounters["w/c"].Total != 3 {
		t.Fatalf("snapshot window counter = %+v", snap.WindowCounters)
	}
	if snap.WindowHistograms["w/h"].N != 1 {
		t.Fatalf("snapshot window histogram = %+v", snap.WindowHistograms)
	}

	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMetricsSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.WindowCounters["w/c"].Total != 3 || got.WindowHistograms["w/h"].N != 1 {
		t.Fatalf("JSON round trip = %+v", got)
	}
}

// A name registered under two kinds used to be silent (two metrics, one
// name, ambiguous exports); now it panics with a typed error naming both
// kinds and both call sites, for every ordered pair of kinds. Reusing a
// name with its own kind returns the same instance.
func TestRegistryKindCollisionPanics(t *testing.T) {
	kinds := []struct {
		name     string
		register func(r *Registry, name string) any
	}{
		{"counter", func(r *Registry, n string) any { return r.Counter(n) }},
		{"gauge", func(r *Registry, n string) any { return r.Gauge(n) }},
		{"histogram", func(r *Registry, n string) any { return r.Histogram(n) }},
		{"window_counter", func(r *Registry, n string) any { return r.WindowCounter(n, time.Second) }},
		{"window_histogram", func(r *Registry, n string) any { return r.WindowHistogram(n, time.Second) }},
	}
	for _, first := range kinds {
		for _, second := range kinds {
			t.Run(first.name+"/"+second.name, func(t *testing.T) {
				r := NewRegistry()
				m := first.register(r, "serve/requests")
				if first.name == second.name {
					if second.register(r, "serve/requests") != m {
						t.Fatal("same-kind reuse must return the same instance")
					}
					return
				}
				defer func() {
					v := recover()
					if v == nil {
						t.Fatal("cross-kind reuse must panic")
					}
					ke, ok := v.(*MetricKindError)
					if !ok {
						t.Fatalf("panic value %T, want *MetricKindError", v)
					}
					if ke.Name != "serve/requests" || ke.Kind != first.name || ke.NewKind != second.name {
						t.Fatalf("error = %+v", ke)
					}
					msg := ke.Error()
					for _, site := range []string{ke.Site, ke.NewSite} {
						if !strings.Contains(site, "window_test.go") || !strings.Contains(msg, site) {
							t.Fatalf("error must name both call sites, got %q", msg)
						}
					}
					if ke.Site == ke.NewSite {
						t.Fatalf("both registrations report one site %q", ke.Site)
					}
					if !strings.Contains(msg, first.name) || !strings.Contains(msg, second.name) {
						t.Fatalf("error must name both kinds, got %q", msg)
					}
				}()
				second.register(r, "serve/requests")
			})
		}
	}
}

// Concurrent first uses of a name hand every caller the one instance
// the first of them registered.
func TestRegistryConcurrentGetOrCreate(t *testing.T) {
	r := NewRegistry()
	got := make([][]*Counter, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 64; j++ {
				got[i] = append(got[i], r.Counter(strconv.Itoa(j)))
			}
		}()
	}
	close(start)
	wg.Wait()
	for i := range got {
		for j := range got[i] {
			if got[i][j] != got[0][j] {
				t.Fatalf("callers %d and 0 got different counters named %d", i, j)
			}
		}
	}
}

func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve/requests").Add(1234)
	r.Gauge("serve/queue_depth").Set(7.5)
	for i := 1; i <= 100; i++ {
		r.Histogram("serve/latency_ms/pair").Observe(float64(i))
		r.WindowHistogram("serve/window/plan_latency_ms", 30*time.Second).Observe(float64(i))
	}
	r.WindowCounter("serve/window/shed", 30*time.Second).Add(9)

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	scrape, err := ParsePrometheusText(strings.NewReader(page))
	if err != nil {
		t.Fatalf("parse back failed: %v\npage:\n%s", err, page)
	}

	if got := scrape.Types["serve_requests"]; got != "counter" {
		t.Fatalf("serve_requests TYPE = %q, want counter", got)
	}
	if v, ok := scrape.Value("serve_requests", ""); !ok || v != 1234 {
		t.Fatalf("serve_requests = %g ok=%v", v, ok)
	}
	if v, ok := scrape.Value("serve_queue_depth", ""); !ok || v != 7.5 {
		t.Fatalf("serve_queue_depth = %g ok=%v", v, ok)
	}
	if v, ok := scrape.Value("serve_latency_ms_pair", `{quantile="0.99"}`); !ok || v < 99 || v > 100 {
		t.Fatalf("cumulative p99 = %g ok=%v", v, ok)
	}
	if v, ok := scrape.Value("serve_latency_ms_pair_count", ""); !ok || v != 100 {
		t.Fatalf("count = %g ok=%v", v, ok)
	}
	// The windowed p99 — the sample a live dashboard cares about.
	if v, ok := scrape.Value("serve_window_plan_latency_ms_window", `{quantile="0.99",window="30s"}`); !ok || v < 99 || v > 100 {
		t.Fatalf("windowed p99 = %g ok=%v\npage:\n%s", v, ok, page)
	}
	if v, ok := scrape.Value("serve_window_shed_window_total", `{window="30s"}`); !ok || v != 9 {
		t.Fatalf("window shed total = %g ok=%v", v, ok)
	}
	if got := scrape.Types["serve_window_shed_window_total"]; got != "gauge" {
		t.Fatalf("window total TYPE = %q, want gauge", got)
	}
}

func TestPromNameSanitizes(t *testing.T) {
	cases := map[string]string{
		"serve/latency_ms/pair": "serve_latency_ms_pair",
		"a-b.c":                 "a_b_c",
		"9lives":                "_9lives",
		"ok_name:x":             "ok_name:x",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Fatalf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSLOTrackerEvaluate(t *testing.T) {
	clk := newFakeClock()
	reg := NewRegistry()
	lat := reg.WindowHistogram("w/latency", 16*time.Second)
	lat.SetClock(clk.now)
	shed := reg.WindowCounter("w/shed", 16*time.Second)
	shed.SetClock(clk.now)
	reqs := reg.WindowCounter("w/requests", 16*time.Second)
	reqs.SetClock(clk.now)

	tr, err := NewSLOTracker(reg, []SLOSpec{
		{Name: "plan_p99", Kind: SLOLatencyP99, Metric: "w/latency", Threshold: 5},
		{Name: "shed_ratio", Kind: SLORatioMax, Metric: "w/shed", Denominator: "w/requests", Threshold: 0.5},
		{Name: "hit_ratio", Kind: SLORatioMin, Metric: "w/shed", Denominator: "w/requests", Threshold: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Empty windows: every objective is vacuous, nothing breaches.
	for _, v := range tr.Evaluate() {
		if !v.Vacuous || v.Breached {
			t.Fatalf("empty-window verdict = %+v, want vacuous", v)
		}
	}

	// Healthy traffic: under p99 threshold, shed ratio 0.2 (between the
	// ratio_max bound and the ratio_min floor).
	for i := 0; i < 10; i++ {
		lat.Observe(1)
	}
	reqs.Add(10)
	shed.Add(2)
	for _, v := range tr.Evaluate() {
		if v.Breached || v.Vacuous {
			t.Fatalf("healthy verdict = %+v", v)
		}
		if v.Breaches != 0 || v.Evals != 2 {
			t.Fatalf("burn counters = %+v", v)
		}
	}

	// Degraded: slow tail + shed storm.
	lat.Observe(50)
	shed.Add(20)
	vs := tr.Evaluate()
	if !vs[0].Breached {
		t.Fatalf("p99 verdict = %+v, want breached (p99 %g > 5)", vs[0], vs[0].Value)
	}
	if !vs[1].Breached || vs[1].Value <= 0.5 {
		t.Fatalf("shed verdict = %+v, want breached", vs[1])
	}
	if vs[1].Breaches != 1 || vs[1].BurnRate <= 0 {
		t.Fatalf("burn = %+v", vs[1])
	}
	// ratio_min: 22/10 > 0.1 — not breached.
	if vs[2].Breached {
		t.Fatalf("ratio_min verdict = %+v", vs[2])
	}

	// Burn counters are mirrored into the registry.
	if reg.Counter("slo/plan_p99/evals").Value() != 3 {
		t.Fatalf("mirrored evals = %d, want 3", reg.Counter("slo/plan_p99/evals").Value())
	}
	if reg.Counter("slo/shed_ratio/breaches").Value() != 1 {
		t.Fatalf("mirrored breaches = %d, want 1", reg.Counter("slo/shed_ratio/breaches").Value())
	}

	// Recovery: the window rolls off and verdicts go vacuous again, but
	// the cumulative burn counters keep the history for the soak gate.
	clk.advance(time.Minute)
	vs = tr.Evaluate()
	if !vs[0].Vacuous || vs[0].Breaches != 1 {
		t.Fatalf("post-recovery verdict = %+v", vs[0])
	}

	snap := SLOSnapshot{Enabled: true, WindowSec: 16, Verdicts: vs}
	if !snap.Breached() {
		t.Fatal("snapshot with historical breaches must report Breached")
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSLOSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Enabled || len(got.Verdicts) != 3 || got.Verdicts[0].Name != "plan_p99" {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestSLOSpecValidate(t *testing.T) {
	bad := []SLOSpec{
		{},
		{Name: "x"},
		{Name: "x", Metric: "m", Kind: "nope"},
		{Name: "x", Metric: "m", Kind: SLOLatencyP99, Threshold: 0},
		{Name: "x", Metric: "m", Kind: SLORatioMax, Threshold: 0.5},
		{Name: "x", Metric: "m", Kind: SLORatioMax, Denominator: "d", Threshold: 1.5},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("spec %d (%+v) must not validate", i, s)
		}
	}
	ok := SLOSpec{Name: "x", Metric: "m", Kind: SLORatioMin, Denominator: "d", Threshold: 0.99}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSLOTracker(NewRegistry(), []SLOSpec{{Name: "bad"}}); err == nil {
		t.Fatal("NewSLOTracker must reject invalid specs")
	}
}

// An SLO spec naming a metric nobody registered evaluates vacuous
// forever instead of inventing the metric or panicking.
func TestSLOUnknownMetricVacuous(t *testing.T) {
	reg := NewRegistry()
	tr, err := NewSLOTracker(reg, []SLOSpec{
		{Name: "ghost", Kind: SLOLatencyP99, Metric: "no/such", Threshold: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := tr.Evaluate()[0]
	if !v.Vacuous || v.Breached {
		t.Fatalf("verdict = %+v, want vacuous", v)
	}
	if _, ok := find[any](reg, "no/such"); ok {
		t.Fatal("evaluation must not create the metric")
	}
}

// TestWindowSlotRoundsUp pins the slot derivation (regression: the slot
// was truncated, so any window not divisible by windowSlots retained
// strictly less than requested while Rate divided by the full value).
// The effective window is rounded up to the next windowSlots multiple
// and slot*windowSlots == Window() always holds.
func TestWindowSlotRoundsUp(t *testing.T) {
	for _, tc := range []struct {
		window time.Duration
		slot   time.Duration
	}{
		{16 * time.Second, time.Second},                         // divides evenly: unchanged
		{time.Second + 100*time.Nanosecond, 62500007},           // 1s+100ns / 16 rounds up
		{15 * time.Second, 937500000},                           // divides evenly
		{17*time.Second + 5*time.Nanosecond, 1062500001},        // awkward remainder
		{500 * time.Millisecond, 62500000},                      // below 1s floor → 1s
		{windowSlots*time.Second + time.Nanosecond, 1000000001}, // remainder of exactly 1ns
	} {
		c := NewWindowCounter(tc.window)
		if c.slot != tc.slot {
			t.Errorf("counter window %v: slot = %v, want %v", tc.window, c.slot, tc.slot)
		}
		if c.window != c.slot*windowSlots {
			t.Errorf("counter window %v: effective window %v != slot*%d = %v",
				tc.window, c.window, windowSlots, c.slot*windowSlots)
		}
		if c.window < tc.window && tc.window >= time.Second {
			t.Errorf("counter window %v: effective window %v shrank below request", tc.window, c.window)
		}
		h := NewWindowHistogram(tc.window)
		if h.slot != tc.slot || h.window != h.slot*windowSlots {
			t.Errorf("histogram window %v: slot %v window %v, want slot %v and slot*%d",
				tc.window, h.slot, h.window, tc.slot, windowSlots)
		}
	}
}

// TestWindowCounterRetainsFullWindow is the behavioral regression for
// the truncated slot: with a 1s+100ns window the old code kept 16 slots
// of 62500006ns = 999999...ns total, so a sample was forgotten just
// before the configured window elapsed. Post-fix the sample must still
// be visible at Window() - 1ns after a slot-aligned write.
func TestWindowCounterRetainsFullWindow(t *testing.T) {
	clk := newFakeClock()
	c := NewWindowCounter(time.Second + 100*time.Nanosecond)
	c.SetClock(clk.now)
	// Align the write to a slot boundary so retention is exactly the
	// ring's span, not shortened by mid-slot placement.
	align := time.Duration(int64(c.slot) - clk.t.UnixNano()%int64(c.slot))
	clk.advance(align)
	c.Inc()
	clk.advance(c.Window() - time.Nanosecond)
	if got := c.Total(); got != 1 {
		t.Fatalf("sample forgotten %v before the window elapsed: Total = %d, want 1", time.Nanosecond, got)
	}
	clk.advance(2 * time.Nanosecond)
	if got := c.Total(); got != 0 {
		t.Fatalf("sample retained past the window: Total = %d, want 0", got)
	}
}

// TestWindowRateUsesEffectiveWindow: Rate and Summary must divide by
// the window the ring actually covers, not the requested one.
func TestWindowRateUsesEffectiveWindow(t *testing.T) {
	clk := newFakeClock()
	c := NewWindowCounter(17 * time.Second) // rounds up to 17.000000008s
	c.SetClock(clk.now)
	c.Add(34)
	want := 34 / c.Window().Seconds()
	if got := c.Rate(); got != want {
		t.Errorf("Rate = %v, want %v (effective window %v)", got, want, c.Window())
	}
	if s := c.Summary(); s.WindowSec != c.Window().Seconds() || s.Rate != want {
		t.Errorf("Summary = %+v, want rate %v over %v", s, want, c.Window())
	}
}
