package serve

// Regression tests for two client header-parsing bugs (satellites):
// msHeader swallowed its ParseFloat error so a malformed or negative
// X-Bgq-*-Ms header poisoned the latency breakdown, and Retry-After was
// parsed with a bare Atoi so a negative value became a negative wait
// hint and an HTTP-date form silently read as "no hint".

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bgqflow/internal/obs"
)

// TestMsHeaderRejectsGarbage pins the parse policy: absent is 0 and
// uncounted; malformed, non-finite, and negative values are 0 AND
// counted. Pre-fix, "-12.5" read as -12.5 and "NaN" as NaN.
func TestMsHeaderRejectsGarbage(t *testing.T) {
	for _, tc := range []struct {
		name  string
		value string
		set   bool
		want  float64
		bad   int64
	}{
		{"absent", "", false, 0, 0},
		{"valid", "12.5", true, 12.5, 0},
		{"zero", "0", true, 0, 0},
		{"malformed", "fast", true, 0, 1},
		{"negative", "-12.5", true, 0, 1},
		{"nan", "NaN", true, 0, 1},
		{"inf", "+Inf", true, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			c := &Client{metrics: reg}
			h := http.Header{}
			if tc.set {
				h.Set(HeaderQueueMS, tc.value)
			}
			got := c.msHeader(h, HeaderQueueMS)
			if got != tc.want || math.Signbit(got) {
				t.Errorf("msHeader(%q) = %v, want %v", tc.value, got, tc.want)
			}
			if n := reg.Counter("serve/client/bad_ms_header").Value(); n != tc.bad {
				t.Errorf("bad_ms_header counter = %d, want %d", n, tc.bad)
			}
		})
	}
}

// TestMsHeaderWithoutMetricsRegistry: the counter is optional; a client
// without SetMetrics must still sanitize, not crash.
func TestMsHeaderWithoutMetricsRegistry(t *testing.T) {
	c := &Client{}
	h := http.Header{}
	h.Set(HeaderComputeMS, "NaN")
	if got := c.msHeader(h, HeaderComputeMS); got != 0 {
		t.Errorf("msHeader without registry = %v, want 0", got)
	}
}

// TestMsHeaderOnWire runs the full postOnce path against a daemon
// emitting a hostile timing header: the breakdown fields come back
// sanitized and the anomaly is counted.
func TestMsHeaderOnWire(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderQueueMS, "-3.5")
		w.Header().Set(HeaderComputeMS, "not-a-number")
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(planEnvelope{Plan: json.RawMessage(`{}`)})
	}))
	t.Cleanup(hs.Close)
	client, err := NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	client.SetMetrics(reg)
	res, err := client.post(context.Background(), "/v1/plan/pair", PairRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if res.QueueMS != 0 || res.ComputeMS != 0 {
		t.Errorf("breakdown not sanitized: queue=%v compute=%v", res.QueueMS, res.ComputeMS)
	}
	if n := reg.Counter("serve/client/bad_ms_header").Value(); n != 2 {
		t.Errorf("bad_ms_header counter = %d, want 2", n)
	}
}

// TestPhaseHeadersOnlyOnComputedPlans: a plan response carries the queue
// and compute phase headers only when its request computed the plan,
// and neither a plan response nor a fault ack repeats the envelope's
// vector in an X-Bgq-Vector header. The client reads the phase headers'
// absence on a cache hit as 0.
func TestPhaseHeadersOnlyOnComputedPlans(t *testing.T) {
	s := New(Config{})
	t.Cleanup(s.Close)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	post := func(path, body string) http.Header {
		t.Helper()
		resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if v := resp.Header.Values("X-Bgq-Vector"); len(v) > 0 {
			t.Errorf("%s: response repeats the vector in a header: %q", path, v)
		}
		return resp.Header
	}
	req := PairRequest{Shape: "2x2x4x4x2", Src: 0, Dst: 97, Bytes: 1 << 20}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, computed := range []bool{true, false} {
		h := post("/v1/plan/pair", string(body))
		for _, key := range []string{HeaderQueueMS, HeaderComputeMS} {
			if got := h.Get(key); (got != "") != computed {
				t.Errorf("computed=%v: %s = %q", computed, key, got)
			}
		}
	}
	client, err := NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.PlanPair(context.Background(), req)
	if err != nil || !res.Cached {
		t.Fatalf("third request: %v, cached %v", err, res.Cached)
	}
	if res.QueueMS != 0 || res.ComputeMS != 0 {
		t.Errorf("cache hit reads queue %g and compute %g ms, want 0", res.QueueMS, res.ComputeMS)
	}
	post("/v1/fault", `{"links":[{"node":0,"dim":0,"dir":1}]}`)
}

// TestRetryAfterHint pins the shared parser both call sites use.
func TestRetryAfterHint(t *testing.T) {
	for _, tc := range []struct {
		value string
		want  time.Duration
		ok    bool
	}{
		{"", 0, false},
		{"3", 3 * time.Second, true},
		{"0", 0, true},
		{"-7", 0, true}, // negative delay-seconds clamps to retry-now
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0, false}, // HTTP-date: explicit backoff fallback
		{"soon", 0, false},
		{"1.5", 0, false},
	} {
		got, ok := retryAfterHint(tc.value)
		if got != tc.want || ok != tc.ok {
			t.Errorf("retryAfterHint(%q) = (%v, %v), want (%v, %v)", tc.value, got, ok, tc.want, tc.ok)
		}
	}
}

// TestRetryAfterNegativeClampedOnWire: pre-fix, a 429 carrying
// Retry-After: -3 surfaced RetryAfter = -3s to the caller and the
// backoff arithmetic. Now it clamps to zero at the parse.
func TestRetryAfterNegativeClampedOnWire(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "-3")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(planEnvelope{Error: "shed"})
	}))
	t.Cleanup(hs.Close)
	client, err := NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	client.SetRetryPolicy(NoRetryPolicy())
	res, err := client.post(context.Background(), "/v1/plan/pair", PairRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", res.Status)
	}
	if res.RetryAfter != 0 {
		t.Errorf("RetryAfter = %v, want 0 (negative header must clamp)", res.RetryAfter)
	}
}

// TestSessionRetryAfterCallSite drives the session client's shed-retry
// loop through the shared parser: the daemon sheds twice — once with a
// negative Retry-After, once with an HTTP-date — and the transfer must
// still ride through on the backoff schedule and complete.
func TestSessionRetryAfterCallSite(t *testing.T) {
	s := New(Config{})
	t.Cleanup(s.Close)
	var sheds atomic.Int64
	inner := s.Handler()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/transfer" {
			switch sheds.Add(1) {
			case 1:
				w.Header().Set("Retry-After", "-2")
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusTooManyRequests)
				json.NewEncoder(w).Encode(planEnvelope{Error: "shed"})
				return
			case 2:
				w.Header().Set("Retry-After", "Wed, 21 Oct 2015 07:28:00 GMT")
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				json.NewEncoder(w).Encode(planEnvelope{Error: "draining"})
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)

	client, err := NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	client.SetRetryPolicy(RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req := TransferRequest{ID: "s-retry-after", Shape: "2x2x4x4x2", Src: 0, Dst: 97, Bytes: 1 << 20}
	out, err := client.Transfer(ctx, req, TransferOpts{})
	if err != nil {
		t.Fatalf("transfer: %v", err)
	}
	if out.Err != "" {
		t.Fatalf("server-side error: %s", out.Err)
	}
	if got := sheds.Load(); got < 3 {
		t.Fatalf("transfer attached after %d attempts, want the 2 sheds ridden through", got)
	}
	if len(out.Report) == 0 {
		t.Fatal("no report streamed after retries")
	}
}
