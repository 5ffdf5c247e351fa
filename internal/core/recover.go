package core

import (
	"fmt"
	"math"

	"bgqflow/internal/netsim"
	"bgqflow/internal/obs"
	"bgqflow/internal/sim"
	"bgqflow/internal/torus"
)

// RecoveryConfig tunes the resilient transfer loop (MoveResilient).
type RecoveryConfig struct {
	// MaxReplans bounds the recovery waves after the first attempt; past
	// it the transfer gives up with the bytes delivered so far.
	MaxReplans int

	// DetectFactor scales the Eq. 1-5 predicted transfer time into the
	// detection timeout: a lost piece is noticed DetectFactor x predicted
	// after the wave started. This is the simulated cost of discovering a
	// failure end to end rather than by oracle.
	DetectFactor float64

	// Backoff is the extra wait before the first replan; it doubles on
	// every subsequent wave (bounded exponential backoff, in simulated
	// time).
	Backoff sim.Duration

	// OnEvent, when set, receives the transfer's progress timeline as it
	// unfolds: one EventWave per released wave, EventWaveDone when the
	// wave's flows have all resolved, EventLoss/EventReplan/EventDegrade
	// along the recovery ladder, and EventComplete on success. Events are
	// emitted synchronously on the caller's goroutine in virtual-time
	// order; the streaming session layer (internal/serve) fans them out
	// to clients.
	OnEvent func(TransferEvent)

	// Interject, when set, is called on the transfer's own goroutine
	// before each wave is planned and before every clock step while a
	// wave resolves. It is the safe point for an outside party to mutate
	// the engine mid-transfer (inject a pushed fault with FailLinkAt, or
	// pace virtual time against the wall clock). Returning a non-nil
	// error aborts the transfer with the bytes delivered so far.
	Interject func(e *netsim.Engine) error

	// Recorder, when set, receives the transfer's sim-clock timeline:
	// one span for the whole transfer on Track, and on Track+"/waves"
	// one span per recovery wave and per detect-and-backoff window plus
	// degrade instants; registry counters (transport/...) ride along.
	// Each call takes its own recorder, so a daemon running many
	// concurrent sessions can give each a private engine timeline
	// (merged into the service trace when the session finishes). Attach
	// an obs.EngineSink to the engine as well to get the per-leg flow
	// spans under the same recorder. Track empty means "transport".
	Recorder *obs.Recorder
	Track    string
}

// TransferEventKind enumerates MoveResilient progress events.
type TransferEventKind int

const (
	// EventWave: a wave of flows was planned and released.
	EventWave TransferEventKind = iota
	// EventWaveDone: every flow of the wave resolved (done or aborted).
	EventWaveDone
	// EventLoss: the resolved wave lost bytes to a failure.
	EventLoss
	// EventReplan: the detection timeout and backoff have been charged;
	// the next wave will be planned with at most Proxies proxies.
	EventReplan
	// EventDegrade: the proxy ladder descended below the first wave's
	// count.
	EventDegrade
	// EventComplete: every requested byte was delivered.
	EventComplete
)

var transferEventNames = [...]string{"wave", "wavedone", "loss", "replan", "degrade", "complete"}

func (k TransferEventKind) String() string {
	if k < 0 || int(k) >= len(transferEventNames) {
		return fmt.Sprintf("TransferEventKind(%d)", int(k))
	}
	return transferEventNames[k]
}

// TransferEvent is one step of a resilient transfer's progress timeline.
type TransferEvent struct {
	Kind TransferEventKind
	// Wave is the zero-based wave index (EventWave/EventWaveDone/EventLoss).
	Wave int
	// Replans counts recovery waves so far (EventReplan).
	Replans int
	// Proxies is the wave's proxy count (EventWave) or the cap for the
	// next wave (EventReplan/EventDegrade); 0 means direct.
	Proxies int
	// Mode is the wave's transfer mode (EventWave).
	Mode TransferMode
	// Bytes is the wave's payload (EventWave), the bytes lost
	// (EventLoss), or the bytes delivered (EventComplete).
	Bytes int64
	// At is the virtual time of the event.
	At sim.Time
}

// DefaultRecoveryConfig returns the operating point used by the R1
// resilience experiment.
func DefaultRecoveryConfig() RecoveryConfig {
	return RecoveryConfig{MaxReplans: 8, DetectFactor: 1.5, Backoff: 100e-6}
}

func (c RecoveryConfig) validate() error {
	if c.MaxReplans < 0 {
		return fmt.Errorf("core: negative MaxReplans")
	}
	// The negated comparisons reject NaN, which would put the detection
	// event at a NaN virtual time, and the upper bounds +Inf, which would
	// put it at +Inf: the transfer would report Complete with an infinite
	// makespan.
	if !(c.DetectFactor >= 1 && c.DetectFactor <= math.MaxFloat64) {
		return fmt.Errorf("core: DetectFactor %g must be finite and >= 1 (detection cannot precede completion)", c.DetectFactor)
	}
	if !(c.Backoff >= 0 && c.Backoff <= math.MaxFloat64) {
		return fmt.Errorf("core: Backoff %g must be finite and >= 0", float64(c.Backoff))
	}
	return nil
}

// TransferReport is the outcome of one resilient transfer: what moved,
// what it cost, and how far the degradation ladder was descended.
type TransferReport struct {
	Bytes     int64 // requested
	Delivered int64 // bytes that reached the destination
	Complete  bool  // Delivered == Bytes

	Attempts      int   // waves submitted (first attempt + replans)
	Replans       int   // waves after a detected loss
	BytesRerouted int64 // bytes resubmitted by recovery waves

	// Degraded reports that recovery had to descend the proxy ladder
	// (k -> k-1 -> ... -> direct) below the first wave's proxy count.
	Degraded  bool
	FinalMode TransferMode // mode of the last wave that moved bytes

	// Makespan is the virtual time at which the last delivered byte
	// landed, measured from time zero; it includes detection timeouts and
	// backoff spent between waves.
	Makespan sim.Duration
}

// MoveResilient moves bytes from src to dst on an interactive engine,
// surviving failures that arrive mid-transfer: it plans against the
// network's live failure state, drives the clock until every piece either
// lands or aborts, charges a detection timeout (Eq. 1-5 predicted time x
// DetectFactor) plus doubling backoff in simulated time for every loss,
// replans the lost bytes with fault-avoiding proxy selection, and
// degrades k -> k-1 -> ... -> direct as the torus loses disjoint paths.
// Every wave decides direct versus multipath by PlanPair's rule, with
// the proxy count capped by the ladder, except that at the operating
// point the threshold is the Eq. 1-5 model's at the wave's cap. The
// engine must be in interactive mode (BeginInteractive), since recovery
// needs to interleave planning with the virtual clock.
func (p *PairPlanner) MoveResilient(e *netsim.Engine, src, dst torus.NodeID, bytes int64, rc RecoveryConfig) (TransferReport, error) {
	rep := TransferReport{Bytes: bytes, FinalMode: Direct}
	if err := rc.validate(); err != nil {
		return rep, err
	}
	if bytes < 0 {
		return rep, fmt.Errorf("core: negative transfer size %d", bytes)
	}
	if int(src) < 0 || int(src) >= p.tor.Size() || int(dst) < 0 || int(dst) >= p.tor.Size() {
		return rep, fmt.Errorf("core: endpoints (%d,%d) outside partition", src, dst)
	}
	if !e.Interactive() {
		return rep, fmt.Errorf("core: MoveResilient requires an interactive engine (call BeginInteractive)")
	}
	if bytes == 0 || src == dst {
		rep.Complete = true
		return rep, nil
	}

	model, err := NewCostModel(e.Params())
	if err != nil {
		return rep, err
	}
	net := e.Network()
	maxK := p.cfg.limit(p.tor.Dims())
	backoff := rc.Backoff
	remaining := bytes
	firstWaveProxies := -1
	rec, track := rc.Recorder, rc.Track
	if track == "" {
		track = "transport"
	}
	if rec != nil {
		defer func(begin sim.Time) {
			name := fmt.Sprintf("resilient %d->%d (%dB)", src, dst, bytes)
			if rep.Complete {
				rec.Span(track, name, begin, e.Now())
			} else {
				rec.SpanAborted(track, name+" (incomplete)", begin, e.Now())
			}
		}(e.Now())
	}

	emit := func(ev TransferEvent) {
		if rc.OnEvent != nil {
			rc.OnEvent(ev)
		}
	}
	interject := func() error {
		if rc.Interject == nil {
			return nil
		}
		return rc.Interject(e)
	}

	for {
		// The pre-wave safe point: pushed faults injected here land on the
		// engine clock before the wave is planned, so planning sees them.
		if err := interject(); err != nil {
			rep.Delivered = bytes - remaining
			return rep, fmt.Errorf("core: transfer interrupted after %d bytes: %w", rep.Delivered, err)
		}

		// Plan this wave against the live failure state. The degradation
		// ladder caps the proxy count at maxK, which drops by one after
		// every lossy wave until only the direct path is left.
		proxies, err := p.proxiesFor(e, src, dst, remaining, maxK, true)
		if err != nil {
			rep.Delivered = bytes - remaining
			return rep, err
		}
		if firstWaveProxies < 0 {
			firstWaveProxies = len(proxies)
		} else if len(proxies) < firstWaveProxies {
			rep.Degraded = true
		}

		waveStart := e.Now()
		var finals []netsim.FlowID
		finalBytes := make(map[netsim.FlowID]int64)
		var predicted sim.Duration
		if len(proxies) > 0 {
			rep.FinalMode = Proxied
			pieces := splitBytes(remaining, len(proxies))
			h1, h2 := 0, 0
			for i, pr := range proxies {
				_, fin := submitLegPair(e, p.cfg, pr, pieces[i], fmt.Sprintf("resilient/wave%d/proxy%d", rep.Attempts, i))
				for _, id := range fin {
					finals = append(finals, id)
					finalBytes[id] = pieces[i]
				}
				h1 += pr.Leg1.Hops()
				h2 += pr.Leg2.Hops()
			}
			predicted = model.ProxyTime(remaining, len(proxies), h1/len(proxies), h2/len(proxies))
		} else {
			rep.FinalMode = Direct
			r, err := net.RouteAvoiding(src, dst)
			if err != nil {
				rep.Delivered = bytes - remaining
				return rep, fmt.Errorf("core: resilient transfer cut off after %d bytes: %w", rep.Delivered, err)
			}
			id := e.Submit(netsim.FlowSpec{
				Src: src, Dst: dst, Bytes: remaining, Links: r.Links,
				Label: fmt.Sprintf("resilient/wave%d/direct", rep.Attempts),
			})
			finals = append(finals, id)
			finalBytes[id] = remaining
			predicted = model.DirectTime(remaining, len(r.Links))
		}
		rep.Attempts++
		emit(TransferEvent{Kind: EventWave, Wave: rep.Attempts - 1, Proxies: len(proxies),
			Mode: rep.FinalMode, Bytes: remaining, At: waveStart})
		var waveSpan obs.SpanID
		if rec != nil {
			mode := "direct"
			if len(proxies) > 0 {
				mode = fmt.Sprintf("proxied k=%d", len(proxies))
			}
			waveSpan = rec.SpanBegin(track+"/waves",
				fmt.Sprintf("wave %d %s (%dB)", rep.Attempts-1, mode, remaining), waveStart)
		}

		// Drive the clock until every final of this wave resolves. Aborts
		// fire at the failure instant, so each final ends Done or Aborted.
		// Each step starts from the interject safe point: a fault pushed
		// mid-wave aborts the flows it hits through the engine's own
		// failure machinery, exactly like a scheduled campaign event.
		for !resolved(e, finals) {
			if err := interject(); err != nil {
				rep.Delivered = bytes - remaining
				return rep, fmt.Errorf("core: transfer interrupted after %d bytes: %w", rep.Delivered, err)
			}
			if !e.StepClock() {
				rep.Delivered = bytes - remaining
				return rep, fmt.Errorf("core: clock ran dry with unresolved flows (wave %d)", rep.Attempts)
			}
		}
		emit(TransferEvent{Kind: EventWaveDone, Wave: rep.Attempts - 1, At: e.Now()})
		if rec != nil {
			rec.SpanEnd(waveSpan, e.Now())
		}

		var lost int64
		for _, id := range finals {
			res := e.Result(id)
			if res.Done {
				remaining -= finalBytes[id]
				if d := sim.Duration(res.Completed); d > rep.Makespan {
					rep.Makespan = d
				}
			} else {
				lost += finalBytes[id]
			}
		}
		if lost == 0 {
			rep.Delivered = bytes
			rep.Complete = true
			emit(TransferEvent{Kind: EventComplete, Bytes: bytes, At: e.Now()})
			return rep, nil
		}
		emit(TransferEvent{Kind: EventLoss, Wave: rep.Attempts - 1, Bytes: lost, At: e.Now()})

		if rep.Replans >= rc.MaxReplans {
			rep.Delivered = bytes - remaining
			return rep, fmt.Errorf("core: gave up after %d replans with %d bytes undelivered", rep.Replans, remaining)
		}

		// Charge the detection timeout: the loss is noticed DetectFactor x
		// the predicted wave time after the wave began, plus the current
		// backoff — all in simulated time.
		lossAt := e.Now()
		detectAt := waveStart + sim.Time(float64(predicted)*rc.DetectFactor) + sim.Time(backoff)
		waitUntil(e, detectAt)
		backoff *= 2

		rep.Replans++
		rep.BytesRerouted += lost
		// Descend the ladder: the next wave gets one fewer proxy than this
		// one used (direct once below the minimum).
		degraded := maxK
		if len(proxies) > 0 {
			maxK = len(proxies) - 1
		} else {
			maxK = 0
		}
		emit(TransferEvent{Kind: EventReplan, Replans: rep.Replans, Proxies: maxK, Bytes: lost, At: e.Now()})
		if maxK < degraded {
			emit(TransferEvent{Kind: EventDegrade, Proxies: maxK, At: e.Now()})
		}
		if rec != nil {
			// The replan span covers the detect-and-backoff window between
			// the loss and the next wave's release.
			rec.Span(track+"/waves",
				fmt.Sprintf("replan %d (%dB lost, k<=%d)", rep.Replans, lost, maxK), lossAt, e.Now())
			if maxK < degraded {
				rec.Instant(track+"/waves", fmt.Sprintf("degrade k<=%d", maxK), e.Now())
			}
			reg := rec.Registry()
			reg.Counter("transport/replans").Inc()
			reg.Counter("transport/bytes_rerouted").Add(lost)
			reg.Histogram("transport/detect_ms").Observe(float64(e.Now()-lossAt) * 1e3)
		}
	}
}

// resolved reports whether every listed flow is Done or Aborted.
func resolved(e *netsim.Engine, ids []netsim.FlowID) bool {
	for _, id := range ids {
		res := e.Result(id)
		if !res.Done && !res.Aborted {
			return false
		}
	}
	return true
}

// waitUntil advances the interactive clock to at least the given instant
// by parking a no-op timer there and stepping through everything before
// it. Failure events scheduled in the window fire on the way.
func waitUntil(e *netsim.Engine, at sim.Time) {
	if at <= e.Now() {
		return
	}
	reached := false
	e.ScheduleAfter(sim.Duration(at-e.Now()), func() { reached = true })
	for !reached && e.StepClock() {
	}
}
