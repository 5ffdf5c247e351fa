package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"bgqflow/internal/obs"
	"bgqflow/internal/scenario"
)

// Client talks to a bgqd daemon over TCP ("host:port" or
// "http://host:port") or a Unix socket ("unix:///path/to/bgqd.sock").
// It is safe for concurrent use; bgqload drives one Client from many
// goroutines.
type Client struct {
	base    string
	hc      *http.Client
	retry   RetryPolicy
	tracer  *obs.WallRecorder
	metrics *obs.Registry
	// demand is the RingClient's min vector, shared by every client of
	// the ring: fault acks raise it and requests stamp it as
	// X-Bgq-Min-Vector. nil on a plain Client, which demands nothing —
	// one daemon has applied every event it acknowledged.
	demand *minVector
}

// RetryPolicy governs how the client reacts to shed (429) and
// unavailable (503) responses — and, with RetryConn, transport errors
// while a daemon restarts. Waits honor the server's Retry-After hint,
// grow exponentially across consecutive failures, are capped at
// MaxBackoff, and carry ±Jitter so a shed herd does not return in
// lockstep.
type RetryPolicy struct {
	// MaxAttempts bounds consecutive attempts; 0 means unlimited (the
	// context deadline is the only bound).
	MaxAttempts int
	// BaseBackoff is the first wait; it doubles per consecutive failure.
	// 0 means 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the wait, including server Retry-After hints. 0
	// means 2s.
	MaxBackoff time.Duration
	// Jitter spreads each wait by ±Jitter (e.g. 0.25 = ±25%).
	Jitter float64
	// RetryConn also retries transport-level errors (connection refused
	// while a daemon restarts), not just 429/503 responses.
	RetryConn bool
	// NoShedRetry surfaces 429 responses immediately while 503s still
	// back off and retry. Load generators driving a cluster use it:
	// against a clustered daemon a 503 means "replica behind the
	// demanded fault vector", which resolves by waiting out the gossip
	// window — not a shed — so retrying it keeps shed accounting exact
	// without turning staleness windows into spurious 5xx counts.
	NoShedRetry bool
}

// DefaultRetryPolicy is the interactive operating point: a handful of
// attempts with capped jittered exponential backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 5, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second, Jitter: 0.25}
}

// NoRetryPolicy disables client-side retries: every shed surfaces to the
// caller. Load generators use it so shed accounting stays exact.
func NoRetryPolicy() RetryPolicy { return RetryPolicy{MaxAttempts: 1} }

// backoff computes the wait before retry number attempt (0-based),
// honoring a server Retry-After hint when it is longer than the
// exponential schedule, capping at MaxBackoff, then jittering.
func (p RetryPolicy) backoff(attempt int, hint time.Duration) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxB := p.MaxBackoff
	if maxB <= 0 {
		maxB = 2 * time.Second
	}
	d := base
	for i := 0; i < attempt && d < maxB; i++ {
		d *= 2
	}
	if hint > d {
		d = hint
	}
	if d > maxB {
		d = maxB
	}
	if p.Jitter > 0 {
		d = time.Duration(float64(d) * (1 + p.Jitter*(2*rand.Float64()-1)))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// sleep waits the backoff for attempt, or returns early with the
// context's error.
func (p RetryPolicy) sleep(ctx context.Context, attempt int, hint time.Duration) error {
	t := time.NewTimer(p.backoff(attempt, hint))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Await runs fetch until it succeeds or fails with anything but a
// transport error, backing off under p between transport failures —
// a daemon restarting between listeners — for at most window. It
// returns fetch's last error.
func (p RetryPolicy) Await(ctx context.Context, window time.Duration, fetch func(context.Context) error) error {
	deadline := time.Now().Add(window)
	for attempt := 0; ; attempt++ {
		err := fetch(ctx)
		var uerr *url.Error
		if err == nil || !errors.As(err, &uerr) || ctx.Err() != nil || time.Now().After(deadline) {
			return err
		}
		if serr := p.sleep(ctx, attempt, 0); serr != nil {
			return err
		}
	}
}

// NewClient builds a client for the given address — TCP ("host:port",
// "http://...") or unix socket ("unix:///path") — with the default
// retry policy.
func NewClient(addr string) (*Client, error) {
	if addr == "" {
		return nil, fmt.Errorf("serve: empty address")
	}
	c := &Client{hc: &http.Client{}, retry: DefaultRetryPolicy()}
	if path, ok := strings.CutPrefix(addr, "unix://"); ok {
		if path == "" {
			return nil, fmt.Errorf("serve: empty unix socket path")
		}
		c.hc.Transport = &http.Transport{
			DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "unix", path)
			},
		}
		// The host is a placeholder; the transport always dials the
		// socket.
		c.base = "http://bgqd"
		return c, nil
	}
	if !strings.HasPrefix(addr, "http://") && !strings.HasPrefix(addr, "https://") {
		addr = "http://" + addr
	}
	c.base = strings.TrimRight(addr, "/")
	return c, nil
}

// SetRetryPolicy replaces the client's retry policy. Not safe to call
// concurrently with requests; configure before use.
func (c *Client) SetRetryPolicy(p RetryPolicy) { c.retry = p }

// SetTracer attaches a client-side wall recorder: every request is
// stamped with X-Bgq-Trace-Id/X-Bgq-Span-Id and recorded as a client
// span, so a merged trace shows the client attempt above the daemon's
// queue/compute spans under one trace ID. nil disables (the default).
// Configure before use.
func (c *Client) SetTracer(t *obs.WallRecorder) { c.tracer = t }

// Tracer returns the recorder installed by SetTracer (nil when tracing
// is off). Export it with WriteChromeTrace and merge with the daemon's
// TraceJSON via obs.MergeChromeTraces for the combined timeline.
func (c *Client) Tracer() *obs.WallRecorder { return c.tracer }

// SetMetrics attaches a metrics registry: protocol anomalies the client
// papers over (like malformed timing headers) are counted there instead
// of vanishing. nil disables (the default). Configure before use.
func (c *Client) SetMetrics(r *obs.Registry) { c.metrics = r }

// BaseURL reports the daemon base URL the client talks to.
func (c *Client) BaseURL() string { return c.base }

// PlanResult is one plan response as the client saw it.
type PlanResult struct {
	// Status is the HTTP status code (200 = plan served, 429 = shed).
	Status int
	// Plan is the raw plan JSON (unmarshal into PairPlan / GroupPlan /
	// AggPlan / SimResult). Empty unless Status is 200.
	Plan json.RawMessage
	// Epoch is the fault epoch the plan was served under.
	Epoch uint64
	// Cached and Coalesced say how the server satisfied the request.
	Cached    bool
	Coalesced bool
	// RetryAfter is the server's backoff hint on shed (429) responses.
	RetryAfter time.Duration
	// Err is the server-side error message on non-200 responses.
	Err string
	// Retries counts client-side retry waits spent on this request.
	Retries int
	// Trace is the request's trace ID (client-stamped when a tracer is
	// set, else the server's echo when tracing is enabled there).
	Trace string
	// Replica is the serving replica's ID (X-Bgq-Replica).
	Replica string
	// Vector is the fault-epoch vector the response was served under.
	Vector string
	// Per-phase latency breakdown in milliseconds. ConnectMS is the TCP
	// dial time (0 on a pooled connection); QueueMS and ComputeMS are
	// the server-reported dispatcher and planner phases (0 unless this
	// request computed the plan); StreamMS is the response decode time.
	ConnectMS float64
	QueueMS   float64
	ComputeMS float64
	StreamMS  float64
}

// Shed reports whether the request was load-shed (429).
func (r PlanResult) Shed() bool { return r.Status == http.StatusTooManyRequests }

// OK reports whether a plan was served.
func (r PlanResult) OK() bool { return r.Status == http.StatusOK }

// post sends one JSON request through the retry policy: 429/503
// responses (and, with RetryConn, transport errors) back off and retry;
// when attempts run out the last shed response is returned as-is. A
// non-2xx status is NOT a Go error — load tests need to count shed and
// rejected requests without aborting; transport and decode failures are
// errors.
func (c *Client) post(ctx context.Context, path string, body any) (PlanResult, error) {
	pol := c.retry
	// One trace for the logical request; retries share it, so a traced
	// shed-then-served pair reads as one story in the merged trace.
	var trace string
	if c.tracer != nil {
		trace = obs.NewTraceID()
	}
	for attempt := 0; ; attempt++ {
		res, err := c.postOnce(ctx, path, body, trace)
		retryable := err == nil && (res.Status == http.StatusServiceUnavailable ||
			(res.Status == http.StatusTooManyRequests && !pol.NoShedRetry))
		if err != nil && pol.RetryConn && ctx.Err() == nil {
			retryable = true
		}
		if !retryable {
			res.Retries = attempt
			return res, err
		}
		if pol.MaxAttempts > 0 && attempt+1 >= pol.MaxAttempts {
			res.Retries = attempt
			return res, err
		}
		if serr := pol.sleep(ctx, attempt, res.RetryAfter); serr != nil {
			res.Retries = attempt
			return res, err
		}
	}
}

// msHeader parses a millisecond phase header. Absent reads as 0.
// Malformed, non-finite, or negative values also read as 0 — a phase
// duration cannot be negative, and NaN/Inf would poison every sum the
// breakdown feeds — but each one is counted on the
// serve/client/bad_ms_header metric so a misbehaving daemon or proxy is
// visible rather than silently folded into the timing.
func (c *Client) msHeader(h http.Header, key string) float64 {
	raw := h.Get(key)
	if raw == "" {
		return 0
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		if c.metrics != nil {
			c.metrics.Counter("serve/client/bad_ms_header").Inc()
		}
		return 0
	}
	return v
}

// retryAfterHint parses a Retry-After header value into a wait hint.
// Integer delay-seconds yield that duration, with negatives clamped to
// zero (retry immediately — a negative wait is meaningless). A valid
// HTTP-date form returns ok=false: converting it to a wait needs a
// clock, so callers fall back to their backoff schedule explicitly
// rather than misreading the date as delay-seconds. Anything else is
// malformed and also returns ok=false.
func retryAfterHint(ra string) (time.Duration, bool) {
	if ra == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(ra); err == nil {
		if secs < 0 {
			return 0, true
		}
		return time.Duration(secs) * time.Second, true
	}
	if _, err := http.ParseTime(ra); err == nil {
		return 0, false
	}
	return 0, false
}

// postOnce is a single request/response cycle. trace, when non-empty,
// is stamped on the request (with a fresh per-attempt span ID) and the
// attempt is recorded as a client span.
func (c *Client) postOnce(ctx context.Context, path string, body any, trace string) (PlanResult, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return PlanResult{}, err
	}
	// Connect timing via httptrace: 0 on a pooled connection, the dial
	// cost on a fresh one — the "connect" phase of the breakdown. The
	// transport may run these hooks on a background dial goroutine (a
	// speculative pool dial can even outlive Do), so both fields are
	// atomics: nanosecond timestamps, read once after Do returns.
	var connStart, connDur atomic.Int64
	ct := &httptrace.ClientTrace{
		ConnectStart: func(string, string) { connStart.Store(time.Now().UnixNano()) },
		ConnectDone: func(_, _ string, _ error) {
			if s := connStart.Load(); s != 0 {
				connDur.Store(time.Now().UnixNano() - s)
			}
		},
	}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, ct),
		http.MethodPost, c.base+path, bytes.NewReader(raw))
	if err != nil {
		return PlanResult{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set(HeaderTraceID, trace)
		req.Header.Set(HeaderSpanID, obs.NewTraceID())
	}
	if mv := c.demand.String(); mv != "" {
		req.Header.Set(HeaderMinVector, mv)
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return PlanResult{}, err
	}
	defer resp.Body.Close()
	tBody := time.Now()
	respBody, err := readBody(resp)
	if err != nil {
		return PlanResult{}, fmt.Errorf("serve: read %s response (status %d): %w", path, resp.StatusCode, err)
	}
	env, err := decodeEnvelope(respBody)
	if err != nil {
		return PlanResult{}, fmt.Errorf("serve: decode %s response (status %d): %w", path, resp.StatusCode, err)
	}
	out := PlanResult{
		Status:    resp.StatusCode,
		Plan:      env.Plan,
		Epoch:     env.Epoch,
		Cached:    env.Cached,
		Coalesced: env.Coalesced,
		Err:       env.Error,
		Trace:     trace,
		Replica:   resp.Header.Get(HeaderReplica),
		Vector:    env.Vector,
		ConnectMS: float64(connDur.Load()) / 1e6,
		QueueMS:   c.msHeader(resp.Header, HeaderQueueMS),
		ComputeMS: c.msHeader(resp.Header, HeaderComputeMS),
		StreamMS:  float64(time.Since(tBody)) / 1e6,
	}
	if out.Trace == "" {
		out.Trace = resp.Header.Get(HeaderTraceID)
	}
	if hint, ok := retryAfterHint(resp.Header.Get("Retry-After")); ok {
		out.RetryAfter = hint
	}
	c.tracer.Span(trace, "client/plan", path, t0, time.Now())
	return out, nil
}

// maxPresized bounds the buffer readBody allocates up front from a
// response's Content-Length; a longer body grows as it arrives.
const maxPresized = 1 << 20

// readBody reads a response body whole, into one buffer of the
// announced length when the server sends Content-Length.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n > 0 && n <= maxPresized {
		buf := make([]byte, n)
		_, err := io.ReadFull(resp.Body, buf)
		return buf, err
	}
	return io.ReadAll(resp.Body)
}

// decodeEnvelope decodes a plan response body. It rejects exactly the
// bodies json.Unmarshal rejects and otherwise returns the fields
// json.Unmarshal would, but a 200 body as writePlan frames it is read in
// one pass: one validating scan bounds and checks the plan object
// (splitEnvelope), and readTail reads the members writePlan writes after
// it (FuzzPlanEnvelope). Every other body is unmarshaled whole. The
// returned plan may alias body.
func decodeEnvelope(body []byte) (planEnvelope, error) {
	if plan, tail, ok := splitEnvelope(body); ok {
		if env, ok := readTail(tail); ok {
			env.Plan = plan
			return env, nil
		}
	}
	// Declared here, so that only the bodies unmarshaled put an
	// envelope on the heap.
	var env planEnvelope
	err := json.Unmarshal(body, &env)
	return env, err
}

// splitEnvelope splits a body that opens {"plan":{ into the plan
// object, bounded and checked by valueEnd, and the bytes after it. ok
// is false for any other framing, for a plan json.Valid refuses and for
// one nested deeper than maxPlanDepth.
func splitEnvelope(body []byte) (plan, tail []byte, ok bool) {
	rest, found := bytes.CutPrefix(body, []byte(planOpen))
	if !found || len(rest) == 0 || rest[0] != '{' {
		return nil, nil, false
	}
	end := valueEnd(rest)
	if end < 0 {
		return nil, nil, false
	}
	return rest[:end], rest[end:], true
}

// readTail reads the envelope members writePlan writes after the plan:
// ,"epoch":N, then ,"cached":true or ,"coalesced":true when set, then
// ,"vector":"…" when the vector is non-empty, then } and an optional
// newline. The epoch must be a canonical decimal that fits a uint64 and
// the vector printable ASCII without escapes, so the fields are the
// ones json.Unmarshal finds. ok is false for any other bytes.
func readTail(b []byte) (env planEnvelope, ok bool) {
	b, ok = bytes.CutPrefix(b, []byte(`,"epoch":`))
	if !ok {
		return env, false
	}
	epoch, n := readUint(b)
	if n == 0 {
		return env, false
	}
	env.Epoch, b = epoch, b[n:]
	if rest, ok := bytes.CutPrefix(b, []byte(`,"cached":true`)); ok {
		env.Cached, b = true, rest
	} else if rest, ok := bytes.CutPrefix(b, []byte(`,"coalesced":true`)); ok {
		env.Coalesced, b = true, rest
	}
	if rest, ok := bytes.CutPrefix(b, []byte(`,"vector":"`)); ok {
		n := plainString(rest)
		if n == len(rest) || rest[n] != '"' {
			return env, false
		}
		env.Vector, b = string(rest[:n]), rest[n+1:]
	}
	if string(b) != "}" && string(b) != "}\n" {
		return env, false
	}
	return env, true
}

// readUint reads the canonical decimal, 0 or a digit 1-9 followed by
// digits, that opens b and fits a uint64. It returns the value and the
// digits taken, 0 when there is no such number.
func readUint(b []byte) (uint64, int) {
	var v uint64
	n := 0
	for ; n < len(b) && '0' <= b[n] && b[n] <= '9'; n++ {
		d := uint64(b[n] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, 0
		}
		v = v*10 + d
	}
	if n == 0 || (n > 1 && b[0] == '0') {
		return 0, 0
	}
	return v, n
}

// plainString returns the length of the printable ASCII other than '"'
// and '\\' that opens b: the bytes a JSON string holds as they are.
func plainString(b []byte) int {
	for i, c := range b {
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return i
		}
	}
	return len(b)
}

// jsonSpace is the whitespace JSON allows between tokens.
const jsonSpace = " \t\n\r"

// maxPlanDepth is the deepest plan valueEnd bounds. encoding/json
// refuses values nested more than 10000 deep and the envelope adds a
// level, so a deeper plan is left to the whole-body json.Unmarshal,
// which applies the limit; json.Valid alone would pass it.
const maxPlanDepth = 10000 - 1

// valueEnd returns the length of the JSON value that opens b at its
// first byte, found in one pass that both bounds and checks it: b[:n]
// is a value json.Valid accepts. It returns -1 when b opens with
// anything else or the value nests deeper than maxPlanDepth
// (FuzzValueEnd).
func valueEnd(b []byte) int {
	// inArray holds a bit per open container: set for an array, clear
	// for an object.
	var inArray [maxPlanDepth/64 + 1]uint64
	depth, i := 0, 0
value:
	for {
		// b[i] opens a value.
		if i == len(b) {
			return -1
		}
		switch c := b[i]; c {
		case '{', '[':
			if depth == maxPlanDepth {
				return -1
			}
			bit := uint64(1) << (depth % 64)
			if c == '[' {
				inArray[depth/64] |= bit
			} else {
				inArray[depth/64] &^= bit
			}
			depth++
			i = skipSpace(b, i+1)
			if i < len(b) && (b[i] == ']' && c == '[' || b[i] == '}' && c == '{') {
				depth--
				i++
				break
			}
			if c == '{' {
				if i = memberValue(b, i); i < 0 {
					return -1
				}
			}
			continue value
		case '"':
			i = stringEnd(b, i+1)
		case 't':
			i = literalEnd(b, i, "true")
		case 'f':
			i = literalEnd(b, i, "false")
		case 'n':
			i = literalEnd(b, i, "null")
		default:
			i = numberEnd(b, i)
		}
		if i < 0 {
			return -1
		}
		// A value ended at i: close the containers it ends, or move to
		// the next element or member.
		for depth > 0 {
			if i = skipSpace(b, i); i == len(b) {
				return -1
			}
			d := depth - 1
			array := inArray[d/64]>>(d%64)&1 == 1
			switch c := b[i]; {
			case c == ',':
				i = skipSpace(b, i+1)
				if !array {
					if i = memberValue(b, i); i < 0 {
						return -1
					}
				}
				continue value
			case c == ']' && array, c == '}' && !array:
				depth--
				i++
			default:
				return -1
			}
		}
		return i
	}
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// memberValue reads an object member's key and colon from b[i:] and
// returns the index where its value opens, or -1.
func memberValue(b []byte, i int) int {
	if i == len(b) || b[i] != '"' {
		return -1
	}
	if i = stringEnd(b, i+1); i < 0 {
		return -1
	}
	if i = skipSpace(b, i); i == len(b) || b[i] != ':' {
		return -1
	}
	return skipSpace(b, i+1)
}

// stringEnd returns the index after the closing quote of the JSON
// string whose contents start at b[i], or -1. Like encoding/json, it
// refuses control characters and bad escapes and passes any other byte,
// invalid UTF-8 included.
func stringEnd(b []byte, i int) int {
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			return i + 1
		case c < 0x20:
			return -1
		case c != '\\':
			i++
		case i+1 == len(b):
			return -1
		case b[i+1] == 'u':
			if i+6 > len(b) {
				return -1
			}
			for _, h := range b[i+2 : i+6] {
				if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
					return -1
				}
			}
			i += 6
		case bytes.IndexByte([]byte(`"\/bfnrt`), b[i+1]) >= 0:
			i += 2
		default:
			return -1
		}
	}
	return -1
}

// literalEnd returns the index after lit when b[i:] opens with it, or
// -1.
func literalEnd(b []byte, i int, lit string) int {
	if !bytes.HasPrefix(b[i:], []byte(lit)) {
		return -1
	}
	return i + len(lit)
}

// numberEnd returns the index after the JSON number that opens b[i:],
// or -1: an optional minus, 0 or a digit 1-9 followed by digits, an
// optional fraction and an optional exponent.
func numberEnd(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return -1
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = digitsEnd(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		j := digitsEnd(b, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digitsEnd(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

// digitsEnd returns the index of the first byte at or after i that is
// not a decimal digit.
func digitsEnd(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// PlanPair requests a point-to-point plan.
func (c *Client) PlanPair(ctx context.Context, req PairRequest) (PlanResult, error) {
	return c.post(ctx, "/v1/plan/pair", req)
}

// PlanGroup requests a group-coupling plan.
func (c *Client) PlanGroup(ctx context.Context, req GroupRequest) (PlanResult, error) {
	return c.post(ctx, "/v1/plan/group", req)
}

// PlanAgg requests an I/O aggregation plan.
func (c *Client) PlanAgg(ctx context.Context, req AggRequest) (PlanResult, error) {
	return c.post(ctx, "/v1/plan/agg", req)
}

// Simulate runs a full declarative scenario.
func (c *Client) Simulate(ctx context.Context, cfg scenario.Config) (PlanResult, error) {
	return c.post(ctx, "/v1/simulate", cfg)
}

// Fault posts a fault event and returns the new epoch. A ring's client
// merges the acknowledged fault-epoch vector into the ring's min
// vector, so every subsequent request — to ANY replica — demands a
// fault set that includes this event (read-your-writes).
func (c *Client) Fault(ctx context.Context, ev FaultEvent) (uint64, error) {
	res, err := c.post(ctx, "/v1/fault", ev)
	if err != nil {
		return 0, err
	}
	if res.Status != http.StatusOK {
		return 0, fmt.Errorf("serve: fault event rejected (status %d): %s", res.Status, res.Err)
	}
	c.demand.merge(res.Vector)
	return res.Epoch, nil
}

// call makes one request that is not a plan request: it sends body,
// when non-nil, as JSON and returns the body of a 200 response. Any
// other status is an error naming the method, the path, the status and
// the first 512 bytes of the body. It never retries.
func (c *Client) call(ctx context.Context, method, path string, body any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("serve: %s %s: status %d: %s", method, path, resp.StatusCode, b)
	}
	b, err := readBody(resp)
	if err != nil {
		return nil, fmt.Errorf("serve: %s %s: read body: %w", method, path, err)
	}
	return b, nil
}

// callJSON makes the call and decodes the 200 body into v.
func (c *Client) callJSON(ctx context.Context, method, path string, body, v any) error {
	b, err := c.call(ctx, method, path, body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("serve: %s %s: decode body: %w", method, path, err)
	}
	return nil
}

// Metrics fetches the /metrics registry snapshot.
func (c *Client) Metrics(ctx context.Context) (obs.MetricsSnapshot, error) {
	var snap obs.MetricsSnapshot
	err := c.callJSON(ctx, http.MethodGet, "/metrics", nil, &snap)
	return snap, err
}

// SLO fetches the daemon's current SLO verdicts (GET /v1/slo).
func (c *Client) SLO(ctx context.Context) (obs.SLOSnapshot, error) {
	var snap obs.SLOSnapshot
	err := c.callJSON(ctx, http.MethodGet, "/v1/slo", nil, &snap)
	return snap, err
}

// TraceJSON fetches the daemon's Perfetto trace snapshot (GET
// /v1/trace) as raw bytes, ready for obs.MergeChromeTraces or a file.
func (c *Client) TraceJSON(ctx context.Context) ([]byte, error) {
	return c.call(ctx, http.MethodGet, "/v1/trace", nil)
}

// Health checks the daemon's /healthz endpoint.
func (c *Client) Health(ctx context.Context) error {
	_, err := c.call(ctx, http.MethodGet, "/healthz", nil)
	return err
}
