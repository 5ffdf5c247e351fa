package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"bgqflow/internal/obs"
	"bgqflow/internal/scenario"
)

// Session-aware client: Transfer drives one resilient transfer through
// a bgqd daemon end to end and survives everything the session layer is
// built for — shed starts (backoff + retry), mid-stream disconnects
// (resume from the replay buffer with ?after=cursor), and daemon
// restarts (the resume 404s, so the client re-POSTs the same idempotent
// ID and a fresh daemon re-arms the session from scratch).

// TransferOpts tunes Client.Transfer.
type TransferOpts struct {
	// OnFrame observes every frame as it arrives (after cursor
	// bookkeeping), including hello and ping frames.
	OnFrame func(SessionFrame)
	// Backoff overrides the client's retry policy for this transfer. The
	// zero value uses the client policy.
	Backoff RetryPolicy
	// DropEvery forces a client-side disconnect after every N buffered
	// frames — a test/chaos hook that exercises resume. 0 disables.
	DropEvery int
	// AckEvery sends an ack after every N buffered frames, evicting them
	// from the server's replay ring. 0 disables.
	AckEvery int
}

// TransferOutcome is the result of one session as the client saw it.
type TransferOutcome struct {
	SessionID string
	// Trace is the session's trace ID: the client-stamped one when the
	// client has a tracer, else the server-generated one echoed in the
	// hello frame ("" when tracing is off on both sides). Stable across
	// resumes and re-arms — the whole transfer is one trace.
	Trace string
	// Frames counts buffered (seq > 0) frames received, replays excluded.
	Frames int
	// Resumes counts reconnects served from the replay buffer.
	Resumes int
	// Restarts counts re-POSTs after an aborted report or a lost session
	// (daemon restart).
	Restarts int
	// Report is the terminal TransferReport exactly as serialized by the
	// daemon — compare byte-for-byte against a direct RunTransfer.
	Report json.RawMessage
	// Err is the server-side transfer error, if any ("" on success).
	Err string
	// Faults is the daemon fault-set snapshot the (final) run started
	// under, from its hello frame.
	Faults []scenario.FailLink
	// Pushed is the pushed-fault timeline of the final run, for replay
	// through PushedInterject.
	Pushed []PushedFault
	// Members is the combined-member list when the session was batched.
	Members []string
}

// randomSessionID generates a fresh idempotency token.
func randomSessionID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("serve: crypto/rand unavailable: " + err.Error())
	}
	return "s-" + hex.EncodeToString(b[:])
}

// Transfer runs one resilient transfer session to completion. It
// returns once a non-aborted report frame arrives (out.Err carries any
// server-side transfer error) or when the context/attempt budget is
// exhausted.
func (c *Client) Transfer(ctx context.Context, req TransferRequest, opts TransferOpts) (TransferOutcome, error) {
	if req.ID == "" {
		req.ID = randomSessionID()
	}
	out := TransferOutcome{SessionID: req.ID}
	pol := opts.Backoff
	if pol == (RetryPolicy{}) {
		pol = c.retry
	}
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	// One trace for the whole session: stamped on the first POST and on
	// every resume/re-POST, so the daemon threads it through the original
	// run and every re-arm.
	var trace string
	if c.tracer != nil {
		trace = obs.NewTraceID()
		out.Trace = trace
	}

	var lastSeq uint64
	resume := false
	fails := 0 // consecutive failed attempts
	for {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("serve: transfer %s: %w", req.ID, err)
		}
		var (
			resp    *http.Response
			httpErr error
		)
		attempt := "post"
		tAttempt := time.Now()
		if resume {
			attempt = "resume"
			r, _ := http.NewRequestWithContext(ctx, http.MethodGet,
				c.base+"/v1/transfer/"+req.ID+"/events?after="+strconv.FormatUint(lastSeq, 10), nil)
			if trace != "" {
				r.Header.Set(HeaderTraceID, trace)
				r.Header.Set(HeaderSpanID, obs.NewTraceID())
			}
			resp, httpErr = c.hc.Do(r)
		} else {
			r, _ := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/transfer", bytes.NewReader(body))
			r.Header.Set("Content-Type", "application/json")
			if trace != "" {
				r.Header.Set(HeaderTraceID, trace)
				r.Header.Set(HeaderSpanID, obs.NewTraceID())
			}
			resp, httpErr = c.hc.Do(r)
		}

		// Each connection attempt (initial POST, resume, re-POST) is one
		// client span; a disconnect-heavy session reads as a row of
		// attempt spans over the daemon's single session span.
		endAttempt := func() {
			c.tracer.Span(trace, "client/sessions", attempt+" "+req.ID, tAttempt, time.Now())
		}

		retry := func(hint time.Duration) error {
			fails++
			if pol.MaxAttempts > 0 && fails >= pol.MaxAttempts {
				return fmt.Errorf("serve: transfer %s: gave up after %d attempts", req.ID, fails)
			}
			return pol.sleep(ctx, fails-1, hint)
		}

		if httpErr != nil {
			endAttempt()
			// Transport failure — the daemon may be restarting. Keep the
			// cursor: if the daemon survived, the resume replays; if it was
			// replaced, the next attempt 404s and falls through to re-POST.
			if ctx.Err() != nil {
				return out, fmt.Errorf("serve: transfer %s: %w", req.ID, ctx.Err())
			}
			if err := retry(0); err != nil {
				return out, err
			}
			if lastSeq > 0 {
				resume = true
			}
			continue
		}

		switch resp.StatusCode {
		case http.StatusOK:
			// Stream below.
		case http.StatusNotFound:
			endAttempt()
			// The daemon does not know the session: it restarted (or
			// reaped it). Start over under the same idempotent ID.
			resp.Body.Close()
			resume = false
			lastSeq = 0
			out.Pushed = nil
			out.Restarts++
			if err := retry(0); err != nil {
				return out, err
			}
			continue
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			endAttempt()
			hint, _ := retryAfterHint(resp.Header.Get("Retry-After"))
			resp.Body.Close()
			if err := retry(hint); err != nil {
				return out, err
			}
			continue
		default:
			endAttempt()
			var env planEnvelope
			json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			return out, fmt.Errorf("serve: transfer %s rejected (status %d): %s", req.ID, resp.StatusCode, env.Error)
		}

		done, rearm, serr := c.consumeStream(resp, opts, &out, &lastSeq)
		endAttempt()
		if done {
			return out, nil
		}
		if serr != nil && ctx.Err() != nil {
			return out, fmt.Errorf("serve: transfer %s: %w", req.ID, ctx.Err())
		}
		fails = 0 // the connection worked; reconnect with a fresh budget
		if rearm {
			// Aborted report (drain or idle reap): re-POST the same ID so
			// the daemon re-arms a fresh run.
			resume = false
			lastSeq = 0
			out.Pushed = nil
			out.Restarts++
			if err := pol.sleep(ctx, 0, 0); err != nil {
				return out, fmt.Errorf("serve: transfer %s: %w", req.ID, err)
			}
			continue
		}
		// Stream ended without a report (disconnect, dropped subscriber,
		// or a forced DropEvery): resume from the cursor.
		resume = true
		out.Resumes++
	}
}

// consumeStream reads ndjson frames until the terminal report, a forced
// drop, or a connection error. done=true means a final (non-aborted)
// report landed; rearm=true means an aborted report asks for a re-POST.
func (c *Client) consumeStream(resp *http.Response, opts TransferOpts, out *TransferOutcome, lastSeq *uint64) (done, rearm bool, err error) {
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	sinceDrop := 0
	sinceAck := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var f SessionFrame
		if uerr := json.Unmarshal(line, &f); uerr != nil {
			return false, false, fmt.Errorf("serve: bad session frame: %w", uerr)
		}
		if f.Seq > 0 {
			if f.Seq <= *lastSeq {
				continue // duplicate from an overlapping replay
			}
			*lastSeq = f.Seq
			out.Frames++
			sinceDrop++
			sinceAck++
		}
		switch f.Type {
		case "hello":
			out.Faults = f.Links
			if f.Trace != "" {
				out.Trace = f.Trace
			}
			if len(f.Members) > 0 {
				out.Members = f.Members
			}
		case "fault":
			if f.Pushed {
				out.Pushed = append(out.Pushed, PushedFault{LinkIDs: f.LinkIDs, VTime: f.VTime})
			}
		case "report":
			if len(f.Members) > 0 {
				out.Members = f.Members
			}
			if opts.OnFrame != nil {
				opts.OnFrame(f)
			}
			if f.Aborted {
				return false, true, nil
			}
			out.Report = f.Report
			out.Err = f.Error
			return true, false, nil
		}
		if opts.OnFrame != nil && f.Type != "report" {
			opts.OnFrame(f)
		}
		if opts.AckEvery > 0 && sinceAck >= opts.AckEvery {
			sinceAck = 0
			c.ackSession(resp.Request.Context(), out.SessionID, *lastSeq)
		}
		if opts.DropEvery > 0 && sinceDrop >= opts.DropEvery {
			// Forced client-side disconnect (chaos hook).
			return false, false, nil
		}
	}
	return false, false, sc.Err()
}

// ackSession acknowledges frames up to seq. It is best effort, so its
// error is dropped: an ack that is lost leaves the frames in the
// server's replay ring until the next one.
func (c *Client) ackSession(ctx context.Context, id string, seq uint64) {
	_, _ = c.call(ctx, http.MethodPost, "/v1/transfer/"+id+"/ack", ackBody{Seq: seq})
}

// Heartbeat keeps an unwatched session alive past the idle deadline.
func (c *Client) Heartbeat(ctx context.Context, id string) error {
	_, err := c.call(ctx, http.MethodPost, "/v1/transfer/"+id+"/heartbeat", struct{}{})
	return err
}

// TransferStatus fetches GET /v1/transfer/{id}.
func (c *Client) TransferStatus(ctx context.Context, id string) (SessionStatus, error) {
	var st SessionStatus
	err := c.callJSON(ctx, http.MethodGet, "/v1/transfer/"+id, nil, &st)
	return st, err
}
