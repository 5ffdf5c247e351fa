package netsim

import (
	"math"
	"testing"

	"bgqflow/internal/routing"
	"bgqflow/internal/sim"
	"bgqflow/internal/torus"
)

// Dynamic fault injection: time-scheduled link and node failures abort
// exactly the in-flight flows whose routes cross the dead links, at the
// failure instant, and the engine reports per-flow outcomes instead of
// rejecting only at submit.

func TestFailLinkAtAbortsInFlightFlow(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	p := DefaultParams()
	net := NewNetwork(tor, p.LinkBandwidth)
	e, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
	def := routing.DeterministicRoute(tor, src, dst)

	// 64 MB at ~1.6 GB/s is ~40 ms; fail a route link at 10 ms.
	const failAt = sim.Time(10e-3)
	victim := e.Submit(FlowSpec{Src: src, Dst: dst, Bytes: 64 << 20})
	bystander := e.Submit(FlowSpec{Src: torus.NodeID(1), Dst: torus.NodeID(3), Bytes: 1 << 20})
	e.FailLinkAt(def.Links[2], failAt)

	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	vr := e.Result(victim)
	if vr.Done || !vr.Aborted {
		t.Fatalf("victim outcome done=%v aborted=%v, want aborted", vr.Done, vr.Aborted)
	}
	if vr.AbortTime != failAt {
		t.Fatalf("victim aborted at %g, want the failure instant %g", float64(vr.AbortTime), float64(failAt))
	}
	br := e.Result(bystander)
	if !br.Done || br.Aborted {
		t.Fatal("bystander flow off the failed link must complete")
	}
	done, aborted := e.Outcomes()
	if done != 1 || aborted != 1 {
		t.Fatalf("outcomes done=%d aborted=%d, want 1/1", done, aborted)
	}
}

func TestFailureCascadesToDependents(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	p := DefaultParams()
	net := NewNetwork(tor, p.LinkBandwidth)
	e, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	src, mid, dst := torus.NodeID(0), torus.NodeID(5), torus.NodeID(tor.Size()-1)
	leg1Route := routing.DeterministicRoute(tor, src, mid)
	leg1 := e.Submit(FlowSpec{Src: src, Dst: mid, Bytes: 32 << 20, Links: leg1Route.Links})
	leg2 := e.Submit(FlowSpec{Src: mid, Dst: dst, Bytes: 32 << 20, DependsOn: []FlowID{leg1}})
	e.FailLinkAt(leg1Route.Links[0], 5e-3)

	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.Result(leg1).Aborted {
		t.Fatal("leg1 crossing the failed link must abort")
	}
	r2 := e.Result(leg2)
	if !r2.Aborted {
		t.Fatal("dependent leg2 can never release; it must cascade-abort")
	}
	if r2.AbortTime != e.Result(leg1).AbortTime {
		t.Fatal("cascade must abort at the same failure instant")
	}
}

func TestDrainingFlowSurvivesLateFailure(t *testing.T) {
	// The last byte leaves the wire before the failure; the receiver
	// drain does not use the link, so the flow completes.
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	p := DefaultParams()
	net := NewNetwork(tor, p.LinkBandwidth)
	e, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := torus.NodeID(0), torus.NodeID(3)
	def := routing.DeterministicRoute(tor, src, dst)
	// 1 KB transfers in well under a millisecond; fail at 1 s.
	id := e.Submit(FlowSpec{Src: src, Dst: dst, Bytes: 1 << 10})
	e.FailLinkAt(def.Links[0], 1.0)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if r := e.Result(id); !r.Done || r.Aborted {
		t.Fatalf("flow done=%v aborted=%v, want completed before the failure", r.Done, r.Aborted)
	}
}

func TestFailureFreesCapacityForSurvivors(t *testing.T) {
	// Two flows share one link's capacity; when a failure elsewhere kills
	// one of them, the survivor must speed up from the abort instant.
	tor := torus.MustNew(torus.Shape{8})
	p := DefaultParams()
	p.PerFlowBandwidth = p.LinkBandwidth // endpoint cap off: shared link binds
	net := NewNetwork(tor, p.LinkBandwidth)
	e, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	shared := tor.LinkID(0, 0, torus.Plus)
	second := tor.LinkID(1, 0, torus.Plus)
	const bytes = 64 << 20
	survivor := e.Submit(FlowSpec{Src: 0, Dst: 1, Bytes: bytes, Links: []int{shared}})
	victim := e.Submit(FlowSpec{Src: 0, Dst: 2, Bytes: bytes, Links: []int{shared, second}})
	const failAt = sim.Time(10e-3)
	e.FailLinkAt(second, failAt)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.Result(victim).Aborted {
		t.Fatal("victim must abort")
	}
	sr := e.Result(survivor)
	if !sr.Done {
		t.Fatal("survivor must complete")
	}
	// Half rate until failAt, full rate after: finish = failAt + (bytes -
	// B/2*failAt)/B, plus endpoint overheads.
	B := p.LinkBandwidth
	sent := B / 2 * (float64(failAt) - float64(p.SenderOverhead))
	wantWire := float64(failAt) + (bytes-sent)/B
	got := float64(sr.TransferEnd)
	if math.Abs(got-wantWire) > 1e-4 {
		t.Fatalf("survivor transfer end %.6f, want ~%.6f (freed capacity not reused)", got, wantWire)
	}
}

func TestFailNodeIsolatesNode(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	p := DefaultParams()
	net := NewNetwork(tor, p.LinkBandwidth)
	victim := torus.NodeID(17)
	net.FailNode(victim)
	if !net.NodeFailed(victim) {
		t.Fatal("node not marked failed")
	}
	for _, l := range net.NodeLinks(victim) {
		if !net.LinkFailed(l) {
			t.Fatalf("node link %s survived FailNode", net.LinkName(l))
		}
	}
	// 10 outgoing + 10 incoming directed torus links on a 5-D torus
	// (fewer distinct ones along extent-2 dimensions, where the two
	// neighbors coincide but the directed links do not).
	if n := len(net.NodeLinks(victim)); n != 4*tor.Dims() {
		t.Fatalf("NodeLinks returned %d links, want %d", n, 4*tor.Dims())
	}
	// No avoiding route between healthy endpoints traverses the node.
	r, err := net.RouteAvoiding(0, torus.NodeID(tor.Size()-1))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range r.Links {
		from, _, _ := tor.LinkFrom(l)
		if from == victim {
			t.Fatal("avoiding route leaves the failed node")
		}
		if net.LinkFailed(l) {
			t.Fatal("avoiding route crosses a failed link")
		}
	}
}

func TestFailNodeAtAbortsFlowsThroughNode(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	p := DefaultParams()
	net := NewNetwork(tor, p.LinkBandwidth)
	e, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
	def := routing.DeterministicRoute(tor, src, dst)
	// Pick the node in the middle of the default route.
	from, _, _ := tor.LinkFrom(def.Links[len(def.Links)/2])
	id := e.Submit(FlowSpec{Src: src, Dst: dst, Bytes: 64 << 20})
	var observed int
	e.SetSink(hookSink{failure: func(now sim.Time, node int, isNode bool) {
		observed++
		if !isNode || node != int(from) {
			t.Errorf("observer saw node=%d isNode=%v, want node %d", node, isNode, from)
		}
	}})
	e.FailNodeAt(from, 5e-3)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.Result(id).Aborted {
		t.Fatal("flow through the failed node must abort")
	}
	if observed != 1 {
		t.Fatalf("failure observer ran %d times, want 1", observed)
	}
}

func TestScheduledFailureInInteractiveMode(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	p := DefaultParams()
	net := NewNetwork(tor, p.LinkBandwidth)
	e, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	if e.Interactive() {
		t.Fatal("fresh engine must not report interactive")
	}
	e.BeginInteractive()
	if !e.Interactive() {
		t.Fatal("Interactive() false after BeginInteractive")
	}
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
	def := routing.DeterministicRoute(tor, src, dst)
	id := e.Submit(FlowSpec{Src: src, Dst: dst, Bytes: 64 << 20})
	e.FailLinkAt(def.Links[1], 5e-3)
	for e.StepClock() {
		r := e.Result(id)
		if r.Done || r.Aborted {
			break
		}
	}
	if !e.Result(id).Aborted {
		t.Fatal("interactive flow over the failed link must abort")
	}
	// The submit-time fail-stop check still holds after the event.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Submit over the dead link did not panic")
			}
		}()
		e.Submit(FlowSpec{Src: src, Dst: dst, Bytes: 1 << 10, Links: def.Links})
	}()
}

func TestRepeatedFailureEventsAreIdempotent(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	p := DefaultParams()
	net := NewNetwork(tor, p.LinkBandwidth)
	e, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
	def := routing.DeterministicRoute(tor, src, dst)
	id := e.Submit(FlowSpec{Src: src, Dst: dst, Bytes: 64 << 20})
	e.FailLinkAt(def.Links[1], 5e-3)
	e.FailLinkAt(def.Links[1], 6e-3) // same link again: no double abort
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Result(id); !got.Aborted || got.AbortTime != 5e-3 {
		t.Fatalf("aborted=%v at %g, want abort at the first event", got.Aborted, float64(got.AbortTime))
	}
	_, aborted := e.Outcomes()
	if aborted != 1 {
		t.Fatalf("aborted count %d after repeated events, want 1", aborted)
	}
}

// TestSameInstantSubmitsAndFailureOneSweep pins the same-instant
// batching contract under faults: N simultaneous activations mixed with
// a failure at the same virtual time coalesce into ONE sweep at that
// instant, and the incremental result is bit-identical to the full
// twin's (twinRun) — byte counters included. Both event orderings are covered:
// the failure firing before the activations (victims die while still
// paying sender overhead) and after (victims activate, then abort
// mid-instant).
func TestSameInstantSubmitsAndFailureOneSweep(t *testing.T) {
	const (
		nSurvivors = 6
		nVictims   = 4
		bytes      = 1 << 20
	)
	for _, failFirst := range []bool{true, false} {
		name := "failure-after-activations"
		if failFirst {
			name = "failure-before-activations"
		}
		t.Run(name, func(t *testing.T) {
			p := DefaultParams()
			failAt := sim.Time(p.SenderOverhead) // exactly the activation instant
			logs := map[bool]*sweepLog{}
			build := func(e *Engine) {
				sl := &sweepLog{}
				logs[e.fullOnly] = sl
				e.SetSink(sl)
				submit := func() {
					for i := 0; i < nSurvivors; i++ {
						e.Submit(FlowSpec{Src: 0, Dst: 1, Bytes: bytes, Links: []int{20, 21}})
					}
					for i := 0; i < nVictims; i++ {
						e.Submit(FlowSpec{Src: 2, Dst: 3, Bytes: bytes, Links: []int{10, 11}})
					}
				}
				if failFirst {
					e.FailLinkAt(10, failAt)
					submit()
				} else {
					submit()
					e.FailLinkAt(10, failAt)
				}
			}
			inc, glb := twinRun(t, p, build)
			requireIdenticalRuns(t, inc, glb, true)

			for i := 0; i < nSurvivors; i++ {
				if r := inc.Result(FlowID(i)); !r.Done || r.Aborted {
					t.Fatalf("survivor %d: %+v, want done", i, r)
				}
			}
			for i := nSurvivors; i < nSurvivors+nVictims; i++ {
				r := inc.Result(FlowID(i))
				if !r.Aborted || r.AbortTime != failAt {
					t.Fatalf("victim %d: %+v, want aborted at %g", i, r, float64(failAt))
				}
			}
			// The six survivors share both links: rate cap/6 each.
			r0 := inc.Result(FlowID(0))
			approx(t, "survivor transfer span",
				float64(r0.TransferEnd-r0.Activated), bytes/(p.LinkBandwidth/nSurvivors), 1e-9)

			for fullOnly, sl := range logs {
				atInstant := 0
				for _, at := range sl.times {
					if at == failAt {
						atInstant++
					}
				}
				if atInstant != 1 {
					t.Fatalf("fullOnly=%v: %d sweeps at the mixed instant, want exactly 1 (times %v)",
						fullOnly, atInstant, sl.times)
				}
			}
			il := logs[false]
			if il.flows[0] != nSurvivors {
				t.Fatalf("batched sweep covered %d flows, want the %d survivors", il.flows[0], nSurvivors)
			}
			if full, incr := inc.SweepStats(); full != 0 || incr == 0 {
				t.Fatalf("incremental engine sweeps: %d full / %d incremental, want 0 full", full, incr)
			}
		})
	}
}

// A flow submitted after its dependency aborted is cut at once, at the
// current instant, as the abort cascade would have cut it: it neither
// waits forever with no clock event nor goes uncounted.
func TestSubmitAfterDependencyAbortedAborts(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	p := DefaultParams()
	e, err := NewEngine(NewNetwork(tor, p.LinkBandwidth), p)
	if err != nil {
		t.Fatal(err)
	}
	e.BeginInteractive()
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
	a := e.Submit(FlowSpec{Src: src, Dst: dst, Bytes: 64 << 20})
	e.FailLinkAt(routing.DeterministicRoute(tor, src, dst).Links[1], 5e-3)
	for !e.Result(a).Aborted && e.StepClock() {
	}
	if !e.Result(a).Aborted {
		t.Fatal("flow over the failed link did not abort")
	}
	now := e.Now()
	b := e.Submit(FlowSpec{Src: 5, Dst: 9, Bytes: 1 << 20, DependsOn: []FlowID{a}})
	if r := e.Result(b); !r.Aborted || r.AbortTime != now {
		t.Fatalf("dependent of an aborted flow: %+v, want aborted at %v", r, now)
	}
	for e.StepClock() {
	}
	if done, aborted := e.Outcomes(); done != 0 || aborted != 2 {
		t.Fatalf("outcomes: %d done, %d aborted of %d flows; want 0 and 2", done, aborted, e.NumFlows())
	}
}
