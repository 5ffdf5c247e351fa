package serve

import (
	"encoding/json"
	"fmt"

	"bgqflow/internal/core"
	"bgqflow/internal/netsim"
	"bgqflow/internal/obs"
	"bgqflow/internal/scenario"
	"bgqflow/internal/sim"
	"bgqflow/internal/torus"
)

// This file holds the wire types and the pure execution path behind
// transfer sessions (POST /v1/transfer). RunTransfer is to sessions what
// ComputePair is to plans: a deterministic function of (request, fault
// set, pushed-fault timeline) that both the daemon's session runner and
// a verifying client call — the session layer's differential oracle.
// A streamed TransferReport must be byte-identical to a direct
// RunTransfer with the same inputs.

// maxPaceUS caps the per-clock-step wall pacing a request may ask for;
// pacing exists to make sessions observable in real time, not to park
// worker goroutines indefinitely.
const maxPaceUS = 200_000

// TransferRequest asks the daemon to RUN a resilient transfer
// (core.MoveResilient) end to end, not just plan it. The ID makes the
// request idempotent: re-POSTing the same ID attaches to the existing
// session instead of starting a second transfer.
type TransferRequest struct {
	// ID names the session; it must be unique per logical transfer
	// (clients generate a random one). Re-POSTs with the same ID and the
	// same body attach; a different body under a known ID is rejected.
	ID string `json:"id"`
	// Shape is the partition geometry, e.g. "2x2x4x4x2".
	Shape string `json:"shape"`
	// Src and Dst are node IDs.
	Src int `json:"src"`
	Dst int `json:"dst"`
	// Bytes is the transfer size.
	Bytes int64 `json:"bytes"`
	// MaxReplans: 0 uses the default ladder depth (8); -1 disables
	// recovery; >0 sets the bound.
	MaxReplans int `json:"maxReplans,omitempty"`
	// DetectFactor: 0 uses the default (1.5); otherwise must be >= 1.
	DetectFactor float64 `json:"detectFactor,omitempty"`
	// BackoffUS: first-replan backoff in microseconds of simulated time;
	// 0 uses the default (100).
	BackoffUS float64 `json:"backoffUS,omitempty"`
	// Campaign schedules a seeded fault campaign on the session's private
	// engine before the transfer starts (the client-controlled half of
	// chaos; the daemon-wide fault set and pushed fault events are the
	// other half).
	Campaign *scenario.FaultCampaignConfig `json:"campaign,omitempty"`
	// PaceUS sleeps this many wall-clock microseconds per virtual clock
	// step, so a session spans real time (observable progress, drainable
	// mid-flight). Capped at 200ms; pacing never changes virtual-time
	// outcomes, so the differential oracle ignores it.
	PaceUS int `json:"paceUS,omitempty"`
	// Batch marks the request eligible for message combining: small
	// same-pair transfers arriving within the daemon's batch window
	// coalesce into one combined session (Träff-style, behind the
	// BatchWindow config flag).
	Batch bool `json:"batch,omitempty"`
}

// Validate rejects malformed requests before they reach a session
// goroutine.
func (r TransferRequest) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("serve: transfer needs a session id")
	}
	if len(r.ID) > 128 {
		return fmt.Errorf("serve: session id longer than 128 bytes")
	}
	shape, err := parseShape(r.Shape)
	if err != nil {
		return err
	}
	tor, err := torus.New(shape)
	if err != nil {
		return err
	}
	if r.Src < 0 || r.Src >= tor.Size() || r.Dst < 0 || r.Dst >= tor.Size() {
		return fmt.Errorf("serve: transfer endpoints (%d,%d) outside torus of %d nodes", r.Src, r.Dst, tor.Size())
	}
	if r.Bytes < 1 {
		return fmt.Errorf("serve: transfer bytes %d must be >= 1", r.Bytes)
	}
	if r.MaxReplans < -1 {
		return fmt.Errorf("serve: maxReplans %d must be >= -1", r.MaxReplans)
	}
	if r.DetectFactor != 0 && r.DetectFactor < 1 {
		return fmt.Errorf("serve: detectFactor %g must be 0 (default) or >= 1", r.DetectFactor)
	}
	if r.BackoffUS < 0 {
		return fmt.Errorf("serve: negative backoffUS")
	}
	if r.PaceUS < 0 || r.PaceUS > maxPaceUS {
		return fmt.Errorf("serve: paceUS %d outside [0, %d]", r.PaceUS, maxPaceUS)
	}
	if r.Campaign != nil {
		if _, err := r.Campaign.Build(tor); err != nil {
			return err
		}
	}
	return nil
}

// canonical is the idempotency fingerprint: two POSTs of the same ID
// must carry the same canonical body to attach.
func (r TransferRequest) canonical() string {
	b, _ := json.Marshal(r)
	return string(b)
}

// recoveryConfig resolves the request's knobs onto core defaults.
func (r TransferRequest) recoveryConfig() core.RecoveryConfig {
	rc := core.DefaultRecoveryConfig()
	switch {
	case r.MaxReplans < 0:
		rc.MaxReplans = 0
	case r.MaxReplans > 0:
		rc.MaxReplans = r.MaxReplans
	}
	if r.DetectFactor > 0 {
		rc.DetectFactor = r.DetectFactor
	}
	if r.BackoffUS > 0 {
		rc.Backoff = sim.Duration(r.BackoffUS * 1e-6)
	}
	return rc
}

// SessionFrame is one ndjson line of a transfer session stream. Seq is 0
// on per-connection frames (hello, ping) and monotone from 1 on buffered
// session events; clients track the last buffered seq they saw and
// resume with ?after=N.
//
// Frame types: "hello" (per-connection preamble), "ping" (liveness,
// per-connection), "wave"/"wavedone"/"loss"/"replan"/"degrade"/
// "complete" (core.TransferEvent progress), "fault" (a daemon fault
// event pushed into the running session), "report" (terminal frame, the
// marshaled core.TransferReport).
type SessionFrame struct {
	Seq  uint64 `json:"seq,omitempty"`
	Type string `json:"type"`
	ID   string `json:"id,omitempty"`

	// hello fields. Trace is the session's trace ID (stamped by the
	// client's X-Bgq-Trace-Id or generated at session creation); every
	// resume of the session carries the same value, so one trace follows
	// the transfer across disconnects. Per-connection only — never part
	// of the canonical request or the byte-verified report.
	State      string `json:"state,omitempty"`
	ReplayFrom uint64 `json:"replayFrom,omitempty"`
	Resumed    bool   `json:"resumed,omitempty"`
	Trace      string `json:"trace,omitempty"`

	// Progress fields (see core.TransferEvent).
	Wave    int    `json:"wave,omitempty"`
	Replans int    `json:"replans,omitempty"`
	Proxies int    `json:"proxies,omitempty"`
	Mode    string `json:"mode,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
	// VTime is the event's virtual time in float64 seconds. Seconds, not
	// integer microseconds: the oracle replays pushed faults at exactly
	// this instant, and Go's shortest-representation float encoding
	// round-trips the bits exactly where a µs conversion would not.
	VTime float64 `json:"vtime,omitempty"`
	// Pushed marks a replan that follows a pushed fault frame.
	Pushed bool `json:"pushed,omitempty"`

	// Fault fields: the daemon fault event in wire form plus the link IDs
	// it resolved to on this session's torus — what a verifying client
	// feeds to PushedInterject.
	Epoch   uint64              `json:"epoch,omitempty"`
	Links   []scenario.FailLink `json:"links,omitempty"`
	LinkIDs []int               `json:"linkIDs,omitempty"`

	// Report fields.
	Report  json.RawMessage `json:"report,omitempty"`
	Error   string          `json:"error,omitempty"`
	Aborted bool            `json:"aborted,omitempty"`
	// Members lists the session IDs combined into a batched session (the
	// leader first); Bytes on the report is the combined total.
	Members []string `json:"members,omitempty"`
}

// PushedFault is a fault event as it landed inside a running session: the
// resolved link IDs and the virtual instant the session applied them.
// Extracted from "fault" frames, it lets a client replay the exact
// timeline through RunTransfer.
type PushedFault struct {
	LinkIDs []int
	VTime   float64
}

// TransferHooks are the observation/injection points RunTransfer threads
// into core.MoveResilient.
type TransferHooks struct {
	// OnEvent receives the transfer's progress timeline (synchronous,
	// virtual-time order).
	OnEvent func(core.TransferEvent)
	// Interject runs at every safe point (pre-wave and pre-clock-step);
	// it may mutate the engine (inject faults, pace) or abort the
	// transfer by returning an error.
	Interject func(e *netsim.Engine) error
	// Recorder, when set, captures this run's sim-clock spans and
	// instants (sessions record into a private recorder and merge it
	// into the daemon trace plane when the run finishes). Track names
	// the span track; empty means core's default.
	Recorder *obs.Recorder
	Track    string
}

// PushedInterject builds an Interject hook that replays recorded pushed
// faults: each lands at the first safe point whose virtual time reaches
// its recorded instant — the same rule the live session used, so the
// replayed engine walks the identical trajectory.
func PushedInterject(pushed []PushedFault) func(e *netsim.Engine) error {
	i := 0
	return func(e *netsim.Engine) error {
		for i < len(pushed) && float64(e.Now()) >= pushed[i].VTime {
			for _, l := range pushed[i].LinkIDs {
				if !e.Network().LinkFailed(l) {
					e.FailLinkAt(l, e.Now())
				}
			}
			i++
		}
		return nil
	}
}

// RunTransfer executes one resilient transfer: fresh torus + network +
// interactive engine, the daemon fault set pre-failed, the request's
// campaign scheduled, then core.MoveResilient end to end. Deterministic
// given (request, fault set) and whatever the hooks inject — the session
// layer's correctness hinges on a served session's report being
// byte-identical to a direct call of this function.
func RunTransfer(req TransferRequest, faults []scenario.FailLink, hooks TransferHooks) (core.TransferReport, error) {
	if err := req.Validate(); err != nil {
		return core.TransferReport{}, err
	}
	shape, err := torus.ParseShape(req.Shape)
	if err != nil {
		return core.TransferReport{}, err
	}
	tor, err := torus.New(shape)
	if err != nil {
		return core.TransferReport{}, err
	}
	params := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, params.LinkBandwidth)
	for _, fl := range faults {
		if id, ok := fl.LinkID(tor); ok {
			net.FailLink(id)
		}
	}
	e, err := netsim.NewEngine(net, params)
	if err != nil {
		return core.TransferReport{}, err
	}
	e.BeginInteractive()
	if req.Campaign != nil {
		camp, err := req.Campaign.Build(tor)
		if err != nil {
			return core.TransferReport{}, err
		}
		if err := camp.Apply(e); err != nil {
			return core.TransferReport{}, err
		}
	}
	pl, err := core.NewPairPlanner(tor, core.DefaultProxyConfig())
	if err != nil {
		return core.TransferReport{}, err
	}
	rc := req.recoveryConfig()
	rc.OnEvent = hooks.OnEvent
	rc.Interject = hooks.Interject
	rc.Recorder = hooks.Recorder
	rc.Track = hooks.Track
	return pl.MoveResilient(e, torus.NodeID(req.Src), torus.NodeID(req.Dst), req.Bytes, rc)
}

// progressFrame converts a core progress event to its wire form.
func progressFrame(ev core.TransferEvent) SessionFrame {
	f := SessionFrame{
		Type:  ev.Kind.String(),
		VTime: float64(ev.At),
	}
	switch ev.Kind {
	case core.EventWave:
		f.Wave = ev.Wave
		f.Proxies = ev.Proxies
		f.Mode = ev.Mode.String()
		f.Bytes = ev.Bytes
	case core.EventWaveDone:
		f.Wave = ev.Wave
	case core.EventLoss:
		f.Wave = ev.Wave
		f.Bytes = ev.Bytes
	case core.EventReplan:
		f.Replans = ev.Replans
		f.Proxies = ev.Proxies
		f.Bytes = ev.Bytes
	case core.EventDegrade:
		f.Proxies = ev.Proxies
	case core.EventComplete:
		f.Bytes = ev.Bytes
	}
	return f
}
