package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"bgqflow/internal/netsim"
	"bgqflow/internal/routing"
	"bgqflow/internal/sim"
	"bgqflow/internal/torus"
)

// The resilient transfer loop: detect mid-flight aborts, replan the lost
// bytes around the failure, degrade toward direct, and report it all.

func resilientRig(t *testing.T) (*torus.Torus, *netsim.Network, *netsim.Engine, *PairPlanner) {
	t.Helper()
	tor := mira128()
	p := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, p.LinkBandwidth)
	e, err := netsim.NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	e.BeginInteractive()
	tr, err := NewPairPlanner(tor, DefaultProxyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tor, net, e, tr
}

func TestMoveResilientNoFailures(t *testing.T) {
	_, _, e, tr := resilientRig(t)
	tor := tr.tor
	const bytes = 64 << 20
	rep, err := tr.MoveResilient(e, 0, torus.NodeID(tor.Size()-1), bytes, DefaultRecoveryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || rep.Delivered != bytes {
		t.Fatalf("delivered %d of %d, complete=%v", rep.Delivered, bytes, rep.Complete)
	}
	if rep.Attempts != 1 || rep.Replans != 0 || rep.Degraded || rep.BytesRerouted != 0 {
		t.Fatalf("clean transfer reported attempts=%d replans=%d degraded=%v rerouted=%d",
			rep.Attempts, rep.Replans, rep.Degraded, rep.BytesRerouted)
	}
	if rep.FinalMode != Proxied {
		t.Fatalf("64 MB across the partition should go proxied, got %v", rep.FinalMode)
	}
	if rep.Makespan <= 0 {
		t.Fatal("no makespan reported")
	}
}

func TestMoveResilientRecoversFromMidTransferFailure(t *testing.T) {
	tor, _, e, tr := resilientRig(t)
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)

	// Fail the first hop of the first selected proxy leg mid-transfer:
	// exactly one piece aborts, and recovery must reroute those bytes.
	proxies := selectProxies(tor, src, dst, tr.cfg, nil)
	if len(proxies) == 0 {
		t.Fatal("no proxies on a healthy torus")
	}
	e.FailLinkAt(proxies[0].Leg1.Links[0], 5e-3)

	const bytes = 64 << 20
	rep, err := tr.MoveResilient(e, src, dst, bytes, DefaultRecoveryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || rep.Delivered != bytes {
		t.Fatalf("delivered %d of %d after recovery", rep.Delivered, bytes)
	}
	if rep.Replans == 0 || rep.BytesRerouted == 0 {
		t.Fatalf("failure was absorbed without a replan: %+v", rep)
	}
	if rep.BytesRerouted >= bytes {
		t.Fatalf("rerouted %d bytes; only the lost pieces should resubmit", rep.BytesRerouted)
	}
	// Detection is charged in simulated time: the makespan must exceed
	// the failure instant plus a detection window.
	if float64(rep.Makespan) <= 5e-3 {
		t.Fatalf("makespan %g predates the failure", float64(rep.Makespan))
	}
	done, aborted := e.Outcomes()
	if aborted == 0 {
		t.Fatal("no flow aborted despite a mid-transfer failure")
	}
	if done == 0 {
		t.Fatal("no flow completed")
	}
}

func TestMoveResilientDegradesToDirect(t *testing.T) {
	tor, _, e, tr := resilientRig(t)
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)

	// Schedule failures on the first hop of every initially selected
	// proxy leg1, staggered so each wave loses a piece until the ladder
	// reaches direct (whose avoiding route skips the dead first hops).
	proxies := selectProxies(tor, src, dst, tr.cfg, nil)
	if len(proxies) < minProxies {
		t.Fatalf("only %d proxies on a healthy torus", len(proxies))
	}
	for i, pr := range proxies {
		e.FailLinkAt(pr.Leg1.Links[0], sim.Time(1e-3+float64(i)*1e-3))
	}

	const bytes = 64 << 20
	rep, err := tr.MoveResilient(e, src, dst, bytes, DefaultRecoveryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete {
		t.Fatalf("transfer incomplete: %+v", rep)
	}
	if !rep.Degraded {
		t.Fatalf("losing every proxy leg must degrade the ladder: %+v", rep)
	}
	if rep.Replans == 0 {
		t.Fatal("no replans recorded")
	}
}

func TestMoveResilientErrorsWhenCut(t *testing.T) {
	// 1-D ring, sever the source completely after the transfer starts:
	// recovery must give up with a clear error and report partial bytes.
	tor := torus.MustNew(torus.Shape{8})
	p := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, p.LinkBandwidth)
	e, err := netsim.NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	e.BeginInteractive()
	tr, err := NewPairPlanner(tor, ProxyConfig{Proxies: -1})
	if err != nil {
		t.Fatal(err)
	}
	e.FailLinkAt(tor.LinkID(0, 0, torus.Plus), 1e-3)
	e.FailLinkAt(tor.LinkID(0, 0, torus.Minus), 1e-3)
	rep, err := tr.MoveResilient(e, 0, 4, 64<<20, DefaultRecoveryConfig())
	if err == nil {
		t.Fatalf("severed source completed: %+v", rep)
	}
	if !strings.Contains(err.Error(), "cut off") {
		t.Fatalf("unexpected error: %v", err)
	}
	if rep.Complete || rep.Delivered != 0 {
		t.Fatalf("severed transfer reported delivery: %+v", rep)
	}
}

func TestMoveResilientRequiresInteractive(t *testing.T) {
	tor := mira128()
	p := netsim.DefaultParams()
	e, err := netsim.NewEngine(netsim.NewNetwork(tor, p.LinkBandwidth), p)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewPairPlanner(tor, DefaultProxyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.MoveResilient(e, 0, 1, 1<<20, DefaultRecoveryConfig()); err == nil {
		t.Fatal("batch-mode engine accepted")
	}
}

// A NaN DetectFactor or Backoff slips past "< bound" checks and would
// put the detection event at a NaN virtual time; both must be rejected
// up front like any other out-of-range value.
func TestMoveResilientRejectsNaNConfig(t *testing.T) { requireConfigRejected(t, math.NaN()) }

// An infinite DetectFactor or Backoff passes a "< bound" check that NaN
// fails: a transfer that lost a piece would report Complete with an
// infinite makespan and leave the clock at +Inf. Both must be rejected.
func TestMoveResilientRejectsInfConfig(t *testing.T) { requireConfigRejected(t, math.Inf(1)) }

// requireConfigRejected checks that MoveResilient refuses a config whose
// DetectFactor, or whose Backoff, is v.
func requireConfigRejected(t *testing.T, v float64) {
	t.Helper()
	for name, mut := range map[string]func(*RecoveryConfig){
		"DetectFactor": func(rc *RecoveryConfig) { rc.DetectFactor = v },
		"Backoff":      func(rc *RecoveryConfig) { rc.Backoff = sim.Duration(v) },
	} {
		tor, _, e, tr := resilientRig(t)
		rc := DefaultRecoveryConfig()
		mut(&rc)
		if _, err := tr.MoveResilient(e, 0, torus.NodeID(tor.Size()-1), 64<<20, rc); err == nil {
			t.Errorf("%s = %g accepted", name, v)
		}
	}
}

func TestMoveResilientDeterministic(t *testing.T) {
	run := func() TransferReport {
		tor, _, e, tr := resilientRig(t)
		src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
		proxies := selectProxies(tor, src, dst, tr.cfg, nil)
		e.FailLinkAt(proxies[0].Leg1.Links[0], 5e-3)
		rep, err := tr.MoveResilient(e, src, dst, 64<<20, DefaultRecoveryConfig())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same campaign, different reports:\n%+v\n%+v", a, b)
	}
}

func TestMoveResilientProgressEvents(t *testing.T) {
	tor, _, e, tr := resilientRig(t)
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
	proxies := selectProxies(tor, src, dst, tr.cfg, nil)
	e.FailLinkAt(proxies[0].Leg1.Links[0], 5e-3)

	var events []TransferEvent
	rc := DefaultRecoveryConfig()
	rc.OnEvent = func(ev TransferEvent) { events = append(events, ev) }

	const bytes = 64 << 20
	rep, err := tr.MoveResilient(e, src, dst, bytes, rc)
	if err != nil {
		t.Fatal(err)
	}

	var waves, waveDones, losses, replans, completes int
	var lostBytes int64
	last := sim.Time(-1)
	for _, ev := range events {
		if ev.At < last {
			t.Fatalf("event timeline not monotone: %v at %g after %g", ev.Kind, float64(ev.At), float64(last))
		}
		last = ev.At
		switch ev.Kind {
		case EventWave:
			if ev.Wave != waves {
				t.Fatalf("wave %d emitted out of order (expected %d)", ev.Wave, waves)
			}
			waves++
		case EventWaveDone:
			waveDones++
		case EventLoss:
			losses++
			lostBytes += ev.Bytes
		case EventReplan:
			replans++
			if ev.Replans != replans {
				t.Fatalf("replan event numbered %d, expected %d", ev.Replans, replans)
			}
		case EventComplete:
			completes++
			if ev.Bytes != bytes {
				t.Fatalf("complete event carries %d bytes, want %d", ev.Bytes, bytes)
			}
		}
	}
	if waves != rep.Attempts {
		t.Fatalf("%d wave events, report says %d attempts", waves, rep.Attempts)
	}
	if waveDones != rep.Attempts {
		t.Fatalf("%d wavedone events for %d attempts", waveDones, rep.Attempts)
	}
	if replans != rep.Replans {
		t.Fatalf("%d replan events, report says %d replans", replans, rep.Replans)
	}
	if lostBytes != rep.BytesRerouted {
		t.Fatalf("loss events total %d bytes, report rerouted %d", lostBytes, rep.BytesRerouted)
	}
	if completes != 1 {
		t.Fatalf("%d complete events", completes)
	}
	if events[len(events)-1].Kind != EventComplete {
		t.Fatalf("timeline does not end with complete: %v", events[len(events)-1].Kind)
	}
}

func TestMoveResilientInterjectCancel(t *testing.T) {
	tor, _, e, tr := resilientRig(t)
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)

	// Cancel from the interject safe point once the first wave is in
	// flight: the transfer must stop with a clear error and report the
	// partial delivery honestly (nothing landed yet mid-wave).
	errCanceled := errors.New("client went away")
	sawWave := false
	rc := DefaultRecoveryConfig()
	rc.OnEvent = func(ev TransferEvent) {
		if ev.Kind == EventWave {
			sawWave = true
		}
	}
	rc.Interject = func(e *netsim.Engine) error {
		if sawWave {
			return errCanceled
		}
		return nil
	}
	rep, err := tr.MoveResilient(e, src, dst, 64<<20, rc)
	if err == nil {
		t.Fatalf("canceled transfer completed: %+v", rep)
	}
	if !strings.Contains(err.Error(), "transfer interrupted") {
		t.Fatalf("unexpected error: %v", err)
	}
	if rep.Complete {
		t.Fatalf("canceled transfer marked complete: %+v", rep)
	}
	if rep.Delivered != 0 {
		t.Fatalf("first-wave cancel delivered %d bytes", rep.Delivered)
	}
	if !sawWave {
		t.Fatal("cancel fired before any wave was released")
	}
}

func TestMoveResilientInterjectPushedFault(t *testing.T) {
	// Push the fault through the interject hook at a virtual instant
	// instead of scheduling it upfront: the outcome must be identical to
	// the scheduled campaign (the session layer depends on this to verify
	// streamed reports against direct replays).
	direct := func() TransferReport {
		tor, _, e, tr := resilientRig(t)
		src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
		proxies := selectProxies(tor, src, dst, tr.cfg, nil)
		e.FailLinkAt(proxies[0].Leg1.Links[0], 5e-3)
		rep, err := tr.MoveResilient(e, src, dst, 64<<20, DefaultRecoveryConfig())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	pushed := func() TransferReport {
		tor, _, e, tr := resilientRig(t)
		src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
		proxies := selectProxies(tor, src, dst, tr.cfg, nil)
		link := proxies[0].Leg1.Links[0]
		injected := false
		rc := DefaultRecoveryConfig()
		rc.Interject = func(e *netsim.Engine) error {
			// Inject as soon as the safe point passes the failure instant's
			// eve: FailLinkAt with a future time reproduces the schedule.
			if !injected {
				injected = true
				e.FailLinkAt(link, 5e-3)
			}
			return nil
		}
		rep, err := tr.MoveResilient(e, src, dst, 64<<20, rc)
		if err != nil {
			t.Fatal(err)
		}
		if !injected {
			t.Fatal("interject never ran")
		}
		return rep
	}

	a, b := direct(), pushed()
	if a != b {
		t.Fatalf("pushed fault diverges from scheduled campaign:\n%+v\n%+v", a, b)
	}
}

// A forced Proxies value decides every resilient wave, as it decides
// PlanPair: forced direct stays direct through a replan, and a forced
// two-proxy config (which the cost model would reject) proxies.
func TestMoveResilientHonoursConfigThreshold(t *testing.T) {
	waves := func(cfg ProxyConfig, fail bool) ([]TransferEvent, TransferReport) {
		t.Helper()
		tor, _, e, _ := resilientRig(t)
		pl, err := NewPairPlanner(tor, cfg)
		if err != nil {
			t.Fatal(err)
		}
		src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
		if fail {
			e.FailLinkAt(routing.DeterministicRoute(tor, src, dst).Links[0], 5e-3)
		}
		var evs []TransferEvent
		rc := DefaultRecoveryConfig()
		rc.OnEvent = func(ev TransferEvent) {
			if ev.Kind == EventWave {
				evs = append(evs, ev)
			}
		}
		rep, err := pl.MoveResilient(e, src, dst, 64<<20, rc)
		if err != nil {
			t.Fatal(err)
		}
		return evs, rep
	}

	evs, rep := waves(ProxyConfig{Proxies: -1}, true)
	if rep.Attempts < 2 {
		t.Fatalf("failing the direct route replanned nothing: %+v", rep)
	}
	for _, ev := range evs {
		if ev.Mode != Direct || ev.Proxies != 0 {
			t.Fatalf("forced direct: wave %d went %v with %d proxies", ev.Wave, ev.Mode, ev.Proxies)
		}
	}

	evs, _ = waves(ProxyConfig{Proxies: 2}, false)
	if evs[0].Mode != Proxied || evs[0].Proxies != 2 {
		t.Fatalf("forced k=2: first wave went %v with %d proxies", evs[0].Mode, evs[0].Proxies)
	}
}
