package main

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A fake planner serves one request at a time and stalls once for
// 50ms. Timed from their due times, the requests that came due during
// the stall must report that wait in the tail; timed from their send
// times they would not, because no worker was free to send them.
func TestOpenLoopChargesStallToRequestsDueDuringIt(t *testing.T) {
	const (
		rate    = 2000
		dur     = 250 * time.Millisecond
		stallAt = 100
		stall   = 50 * time.Millisecond
		workers = 2
	)
	var (
		server  sync.Mutex
		stalled atomic.Bool
	)
	do := func(ctx context.Context, i int) outcome {
		server.Lock()
		if i >= stallAt && stalled.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
		server.Unlock()
		return outcome{kind: opPlan, end: time.Now()}
	}
	p, err := openLoop(context.Background(), rate, dur, workers, 0, do, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 || p.attempted != rate*int(dur/time.Millisecond)/1000 {
		t.Fatalf("attempted %d, failed %d: %v", p.attempted, p.failed, p.errs)
	}
	if p.maxInFlight > workers {
		t.Errorf("%d requests in flight, want at most %d", p.maxInFlight, workers)
	}
	// About 100 of the 500 requests came due during the stall, waiting
	// up to 50ms; the p99 lands among them.
	if p99 := p.plans.quantileMS(0.99); p99 < 25 {
		t.Errorf("p99 %.2fms hides the 50ms stall", p99)
	}
	if lag := p.lags.quantileMS(0.99); lag < 20 {
		t.Errorf("send lag p99 %.2fms, want the stall to show as generator lateness", lag)
	}
}

func TestClosedLoopBoundsInFlight(t *testing.T) {
	var cur, peak atomic.Int64
	do := func(ctx context.Context, i int) outcome {
		c := cur.Add(1)
		for p := peak.Load(); c > p && !peak.CompareAndSwap(p, c); p = peak.Load() {
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return outcome{kind: opPlan, end: time.Now()}
	}
	p := closedLoop(context.Background(), 50*time.Millisecond, 3, 0, do)
	if p.maxInFlight != 3 || peak.Load() != 3 {
		t.Errorf("peak in flight %d (seen by op %d), want 3", p.maxInFlight, peak.Load())
	}
	if p.attempted == 0 || p.next != p.attempted {
		t.Errorf("attempted %d, next op %d", p.attempted, p.next)
	}
}

// quartileSpread must match Python's statistics.quantiles(xs, n=4),
// the method the benchmark's spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for k, want := range map[int]float64{1: 2.75, 2: 5.5, 3: 8.25} {
		if got := exclusiveQuartile(xs, k); got != want {
			t.Errorf("quartile %d = %g, want %g", k, got, want)
		}
	}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread %g, want %g", got, want)
	}
}

// A quantile read from the latency histogram stays within its bucket's
// relative width (1/128) of the sample's.
func TestHistQuantileWithinBucketWidth(t *testing.T) {
	var h hist
	var xs []float64
	for i := 0; i < 20000; i++ {
		d := time.Duration(100+i*i%7919) * time.Microsecond / 10
		h.add(d)
		xs = append(xs, float64(d)/float64(time.Millisecond))
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		got, want := h.quantileMS(q), quantile(xs, q)
		if math.Abs(got-want) > want/128 {
			t.Errorf("q%g: histogram says %gms, sample %gms", q, got, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "throughput_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name string
		a, b []float64
		m    specMetric
		want string
	}{
		{"same", steady, []float64{101, 100, 99, 102, 100}, lower, "ok"},
		{"slower by more than the bound", steady, []float64{120, 121, 119, 118, 122}, lower, "worse"},
		{"faster", steady, []float64{80, 81, 79, 80, 82}, lower, "ok"},
		{"lower throughput", steady, []float64{80, 81, 79, 80, 82}, higher, "worse"},
		{"too noisy to tell", steady, []float64{60, 100, 140, 90, 180}, lower, "unresolved"},
		{"noisy but every run better", []float64{100, 150, 200, 120, 180}, []float64{50, 60, 70, 55, 65}, lower, "ok"},
	} {
		if _, _, got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
