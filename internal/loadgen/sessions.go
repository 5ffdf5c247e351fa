package loadgen

// Session chaos soak: drive many concurrent resilient transfer sessions
// through a bgqd daemon and verify, per session, the full resilience
// contract — every session either completes with a report that is
// byte-identical to a direct MoveResilient replay of its recorded
// timeline (fault snapshot + pushed-fault instants), or it is counted
// lost. The driver deliberately misbehaves (forced disconnects) and
// deliberately destabilizes the daemon (fault events mid-run); the soak
// script adds a SIGTERM/restart on top. The gates demand zero lost,
// zero duplicated, zero mismatched sessions.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bgqflow/internal/core"
	"bgqflow/internal/obs"
	"bgqflow/internal/scenario"
	"bgqflow/internal/serve"
	"bgqflow/internal/torus"
	"bgqflow/internal/workload"
)

// SessionOptions configures one session soak run.
type SessionOptions struct {
	// Sessions is the total session count; 0 means 64.
	Sessions int
	// Concurrency bounds sessions in flight at once; 0 means Sessions
	// (everything at once — the peak-concurrency shape the soak wants).
	Concurrency int
	// Seed fixes endpoints, sizes, campaigns, and session IDs.
	Seed int64
	// Shape is the torus geometry; "" means "2x2x4x4x2".
	Shape string
	// Pattern picks the endpoint stream; "" means "burst" (runs of
	// repeated pairs — the message-combining shape).
	Pattern string
	// PaceUS stretches each session's wall-clock (per safe point) so
	// faults, disconnects, and restarts land mid-flight. 0 means none.
	PaceUS int
	// CampaignEvery gives every Nth session a seeded client fault
	// campaign (0 disables).
	CampaignEvery int
	// BatchEvery marks every Nth session combinable (0 disables). Takes
	// effect only when the daemon runs with a batch window.
	BatchEvery int
	// DropEvery forces a client disconnect every N frames on every third
	// session, exercising resume (0 disables).
	DropEvery int
	// FaultEvents is how many server-side fault events the driver posts
	// while sessions run (0 disables).
	FaultEvents int
	// Verify replays every session's timeline through a direct
	// MoveResilient run and compares reports byte for byte.
	Verify bool
	// Timeout is the per-session budget; 0 means 2m.
	Timeout time.Duration
}

func (o SessionOptions) withDefaults() (SessionOptions, error) {
	if o.Sessions == 0 {
		o.Sessions = 64
	}
	if o.Sessions < 1 {
		return o, fmt.Errorf("loadgen: sessions %d", o.Sessions)
	}
	if o.Concurrency == 0 {
		o.Concurrency = o.Sessions
	}
	if o.Concurrency < 1 {
		return o, fmt.Errorf("loadgen: session concurrency %d", o.Concurrency)
	}
	if o.Shape == "" {
		o.Shape = "2x2x4x4x2"
	}
	if _, err := torus.ParseShape(o.Shape); err != nil {
		return o, err
	}
	if o.Pattern == "" {
		o.Pattern = "burst"
	}
	known := false
	for _, k := range workload.PairPatterns {
		if o.Pattern == k {
			known = true
			break
		}
	}
	if !known {
		return o, fmt.Errorf("loadgen: unknown pair pattern %q", o.Pattern)
	}
	if o.CampaignEvery < 0 || o.BatchEvery < 0 || o.DropEvery < 0 || o.FaultEvents < 0 || o.PaceUS < 0 {
		return o, fmt.Errorf("loadgen: negative session option")
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Minute
	}
	return o, nil
}

// ValidateSessionOptions checks o without running anything, so CLI
// layers can reject bad flags up front (exit 2) before a long soak.
func ValidateSessionOptions(o SessionOptions) error {
	_, err := o.withDefaults()
	return err
}

// SessionID names session i of a run deterministically, so a re-run
// with the same seed re-arms the same sessions.
func SessionID(seed int64, i int) string { return fmt.Sprintf("bgqload-%d-%d", seed, i) }

// SessionReport is one session soak's outcome.
type SessionReport struct {
	Sessions    int     `json:"sessions"`
	Seed        int64   `json:"seed"`
	Shape       string  `json:"shape"`
	Pattern     string  `json:"pattern"`
	Concurrency int     `json:"concurrency"`
	WallSec     float64 `json:"wall_sec"`

	// Completed sessions delivered a non-aborted report with no run
	// error; Failed delivered a terminal report carrying a deterministic
	// run error (e.g. the fault load cut the pair off or exhausted the
	// replan budget) — still byte-verified against the oracle; Lost ran
	// out of retry/context budget; Mismatched failed the byte-exact
	// replay check. The soak gates demand Lost == Mismatched == 0.
	Completed  int  `json:"completed"`
	Failed     int  `json:"failed"`
	Lost       int  `json:"lost"`
	Mismatched int  `json:"mismatched"`
	Verified   bool `json:"verified"`

	// Duplicated is the double-start count from the daemon's own
	// counters: every run the daemon launches is announced as exactly one
	// "started" or "rearmed" verdict, so executed > started + rearmed
	// means an idempotency violation. Counted on the daemon that served
	// the end of the run.
	Duplicated int64 `json:"duplicated"`

	// Resilience traffic actually exercised.
	Resumes        int `json:"resumes"`
	Restarts       int `json:"restarts"`
	PushedFaults   int `json:"pushed_faults"`
	BatchedMembers int `json:"batched_members"`
	PeakConcurrent int `json:"peak_concurrent"`
	FaultsPosted   int `json:"faults_posted"`

	// Server-side view, from /metrics after the run.
	ServerExecuted  int64                `json:"server_executed"`
	ServerStarted   int64                `json:"server_started"`
	ServerRearmed   int64                `json:"server_rearmed"`
	ServerCompleted int64                `json:"server_completed"`
	ServerAborted   int64                `json:"server_aborted"`
	Metrics         *obs.MetricsSnapshot `json:"metrics,omitempty"`

	// SLO is the daemon's verdict snapshot after the soak, when the
	// daemon has objectives configured (nil otherwise).
	SLO *obs.SLOSnapshot `json:"slo,omitempty"`
}

// RunSessions executes the session soak against the daemon behind
// client.
func RunSessions(ctx context.Context, client *serve.Client, o SessionOptions) (SessionReport, error) {
	o, err := o.withDefaults()
	if err != nil {
		return SessionReport{}, err
	}
	shape, _ := torus.ParseShape(o.Shape)
	nodes := 1
	for _, ext := range shape {
		nodes *= ext
	}
	pairs, err := workload.Pairs(o.Pattern, o.Sessions, nodes, o.Seed)
	if err != nil {
		return SessionReport{}, err
	}
	rep := SessionReport{
		Sessions:    o.Sessions,
		Verified:    o.Verify,
		Seed:        o.Seed,
		Shape:       o.Shape,
		Pattern:     o.Pattern,
		Concurrency: o.Concurrency,
	}

	var (
		mu      sync.Mutex
		active  atomic.Int64
		peak    atomic.Int64
		workers sync.WaitGroup
		sem     = make(chan struct{}, o.Concurrency)
	)
	// The session client survives everything: unlimited attempts inside
	// the per-session budget, transport retries for the restart window.
	policy := serve.RetryPolicy{
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  500 * time.Millisecond,
		Jitter:      0.25,
		RetryConn:   true,
	}

	runOne := func(i int) {
		defer workers.Done()
		sem <- struct{}{}
		defer func() { <-sem }()
		n := active.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer active.Add(-1)

		req := serve.TransferRequest{
			ID:     SessionID(o.Seed, i),
			Shape:  o.Shape,
			Src:    pairs[i].Src,
			Dst:    pairs[i].Dst,
			Bytes:  sizeFor(pairs[i]),
			PaceUS: o.PaceUS,
		}
		if o.CampaignEvery > 0 && i%o.CampaignEvery == 0 {
			req.Campaign = &scenario.FaultCampaignConfig{
				Kind: "uniform", Count: 2, Seed: o.Seed + int64(i), WindowMS: 2,
			}
		} else if o.BatchEvery > 0 && i%o.BatchEvery == 0 {
			req.Batch = true
		}
		opts := serve.TransferOpts{Backoff: policy}
		if o.DropEvery > 0 && i%3 == 0 {
			opts.DropEvery = o.DropEvery
		}
		sctx, cancel := context.WithTimeout(ctx, o.Timeout)
		defer cancel()
		out, terr := client.Transfer(sctx, req, opts)

		mu.Lock()
		defer mu.Unlock()
		if terr != nil || len(out.Report) == 0 {
			rep.Lost++
			return
		}
		// A terminal report with a run error is a deterministic transfer
		// failure (pair cut off, replan budget exhausted), not a lost
		// session: the stream delivered it and the oracle must reproduce
		// both the partial report and the error below.
		failed := out.Err != ""
		if failed {
			rep.Failed++
		} else {
			rep.Completed++
		}
		rep.Resumes += out.Resumes
		rep.Restarts += out.Restarts
		rep.PushedFaults += len(out.Pushed)
		if len(out.Members) > 1 {
			rep.BatchedMembers++
		}
		if !o.Verify {
			return
		}
		var got core.TransferReport
		if jerr := json.Unmarshal(out.Report, &got); jerr != nil {
			rep.Mismatched++
			return
		}
		if !failed && !got.Complete {
			rep.Mismatched++
			return
		}
		oreq := req
		oreq.PaceUS = 0
		if len(out.Members) > 1 {
			// Combined session: the oracle runs at the combined size the
			// report declares; everything else must match byte for byte.
			oreq.Bytes = got.Bytes
		}
		want, derr := serve.RunTransfer(oreq, out.Faults, serve.TransferHooks{
			Interject: serve.PushedInterject(out.Pushed),
		})
		if failed {
			if derr == nil || derr.Error() != out.Err {
				rep.Mismatched++
				return
			}
		} else if derr != nil {
			rep.Mismatched++
			return
		}
		wantJSON, _ := json.Marshal(want)
		if !bytes.Equal(out.Report, wantJSON) {
			rep.Mismatched++
		}
	}

	start := time.Now()
	workers.Add(o.Sessions)
	for i := 0; i < o.Sessions; i++ {
		go runOne(i)
	}

	// The fault campaign against the daemon itself: seeded link failures
	// posted while sessions are in flight, pushed into every running
	// session.
	faultsDone := make(chan struct{})
	allDone := make(chan struct{})
	go func() { workers.Wait(); close(allDone) }()
	go func() {
		defer close(faultsDone)
		if o.FaultEvents <= 0 {
			return
		}
		rng := rand.New(rand.NewSource(o.Seed ^ 0x5eed))
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for posted := 0; posted < o.FaultEvents; {
			select {
			case <-allDone:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			fl := scenario.FailLink{
				Node: rng.Intn(nodes),
				Dim:  rng.Intn(len(shape)),
				Dir:  1 - 2*rng.Intn(2),
			}
			if _, ferr := client.Fault(ctx, serve.FaultEvent{Links: []scenario.FailLink{fl}}); ferr == nil {
				posted++
				mu.Lock()
				rep.FaultsPosted++
				mu.Unlock()
			}
		}
	}()
	<-allDone
	<-faultsDone
	rep.WallSec = time.Since(start).Seconds()
	rep.PeakConcurrent = int(peak.Load())

	// Server-side counters; best effort (the run may have outlived the
	// daemon it started against).
	metrics, slo := closingSnapshots(ctx, client, policy)
	if metrics != nil {
		rep.Metrics = metrics
		rep.ServerExecuted = metrics.Counters["serve/sessions_executed"]
		rep.ServerStarted = metrics.Counters["serve/sessions_started"]
		rep.ServerRearmed = metrics.Counters["serve/sessions_rearmed"]
		rep.ServerCompleted = metrics.Counters["serve/sessions_completed"]
		rep.ServerAborted = metrics.Counters["serve/sessions_aborted"]
		rep.Duplicated = rep.ServerExecuted - rep.ServerStarted - rep.ServerRearmed
	}
	rep.SLO = slo
	return rep, nil
}

// closingWindow bounds how long the closing fetches wait for a daemon to
// come back: a soak whose last sessions end during a restart's drain
// meets no listener until the new daemon binds.
const closingWindow = 5 * time.Second

// closingSnapshots fetches the daemon's metrics and SLO verdicts after a
// soak, retrying transport errors under policy for up to closingWindow
// each. Either result is nil when the daemon did not serve it (an SLO
// snapshot also when no objectives are configured).
func closingSnapshots(ctx context.Context, client *serve.Client, policy serve.RetryPolicy) (metrics *obs.MetricsSnapshot, slo *obs.SLOSnapshot) {
	var m obs.MetricsSnapshot
	if policy.Await(ctx, closingWindow, func(ctx context.Context) (err error) {
		m, err = client.Metrics(ctx)
		return err
	}) == nil {
		metrics = &m
	}
	var s obs.SLOSnapshot
	if policy.Await(ctx, closingWindow, func(ctx context.Context) (err error) {
		s, err = client.SLO(ctx)
		return err
	}) == nil && s.Enabled {
		slo = &s
	}
	return metrics, slo
}

// SessionCriteria are the chaos-soak gates.
type SessionCriteria struct {
	// MinCompleted is the terminal-report floor (completed + verified
	// deterministic failures); it guards against a vacuous pass.
	MinCompleted int
	// MinResumes demands the replay buffer was actually exercised.
	MinResumes int
	// MinPushedFaults demands fault events actually landed mid-session.
	MinPushedFaults int
	// MinPeakConcurrent demands genuine concurrency.
	MinPeakConcurrent int
	// RequireVerified fails the run when verification was off.
	RequireVerified bool
	// RequireSLO fails the run unless the daemon served an SLO snapshot
	// with objectives enabled and zero cumulative breaches.
	RequireSLO bool
}

// Check applies the gates: zero lost, zero duplicated, zero mismatched,
// plus the activity floors. The returned error names every violation.
func (r SessionReport) Check(c SessionCriteria) error {
	var fails []string
	if r.Lost > 0 {
		fails = append(fails, fmt.Sprintf("%d sessions lost", r.Lost))
	}
	if r.Duplicated != 0 {
		fails = append(fails, fmt.Sprintf("%d duplicated session executions", r.Duplicated))
	}
	if r.Mismatched > 0 {
		fails = append(fails, fmt.Sprintf("%d reports diverged from the direct-run oracle", r.Mismatched))
	}
	if r.Completed+r.Failed < c.MinCompleted {
		fails = append(fails, fmt.Sprintf("only %d sessions completed (%d + %d deterministic failures, min %d)",
			r.Completed+r.Failed, r.Completed, r.Failed, c.MinCompleted))
	}
	if c.MinResumes > 0 && r.Resumes < c.MinResumes {
		fails = append(fails, fmt.Sprintf("only %d resumes (min %d): replay buffer unexercised", r.Resumes, c.MinResumes))
	}
	if c.MinPushedFaults > 0 && r.PushedFaults < c.MinPushedFaults {
		fails = append(fails, fmt.Sprintf("only %d pushed faults (min %d)", r.PushedFaults, c.MinPushedFaults))
	}
	if c.MinPeakConcurrent > 0 && r.PeakConcurrent < c.MinPeakConcurrent {
		fails = append(fails, fmt.Sprintf("peak concurrency %d (min %d)", r.PeakConcurrent, c.MinPeakConcurrent))
	}
	if c.RequireVerified && !r.Verified {
		fails = append(fails, "reports were not verified against the oracle")
	}
	if c.RequireSLO {
		fails = checkSLO(r.SLO, fails)
	}
	if len(fails) > 0 {
		return fmt.Errorf("loadgen: session soak gates failed: %s", strings.Join(fails, "; "))
	}
	return nil
}

// WriteJSON serializes the report, indented, with a trailing newline
// (the SESSIONS_<date>.json archive format).
func (r SessionReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
