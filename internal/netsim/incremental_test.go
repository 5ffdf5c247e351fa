package netsim

import (
	"fmt"
	"testing"

	"bgqflow/internal/obs"
	"bgqflow/internal/sim"
)

// Incremental-vs-full sweep tests: the incremental waterfill
// (DESIGN.md §13) must produce runs indistinguishable from an engine
// that re-levels the whole component on every change, while touching
// only the links whose bottleneck level can actually change. The check
// package's differential suites cover random scenarios against the
// reference engine; the tests here pin the hand-constructed shapes the
// cutoff rules were derived from.

// twinRun executes the same build on two engines over identical fresh
// networks — one sweeping incrementally, one with every sweep sent to a
// full re-level (fullOnly) — and returns both after Run.
func twinRun(t *testing.T, p Params, build func(e *Engine)) (inc, glb *Engine) {
	t.Helper()
	var out [2]*Engine
	for i, fullOnly := range []bool{false, true} {
		e := newTestEngine(t, mira128(), p)
		e.fullOnly = fullOnly
		build(e)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		out[i] = e
	}
	return out[0], out[1]
}

// requireIdenticalRuns diffs two finished engines. Flow timelines must
// match bit-for-bit. Link byte counters must match bit-for-bit when
// exactBytes is set — which holds whenever both modes charge progress at
// the same instants; when the incremental engine legitimately skips
// charging flows outside its region, the final remaining-top-up at
// transferEnd rounds differently, so the counters only agree to
// relative rounding noise.
func requireIdenticalRuns(t *testing.T, inc, glb *Engine, exactBytes bool) {
	t.Helper()
	if inc.NumFlows() != glb.NumFlows() {
		t.Fatalf("flow counts diverged: %d vs %d", inc.NumFlows(), glb.NumFlows())
	}
	for i := 0; i < inc.NumFlows(); i++ {
		if a, b := inc.Result(FlowID(i)), glb.Result(FlowID(i)); a != b {
			t.Fatalf("flow %d diverged:\nincremental %+v\nglobal      %+v", i, a, b)
		}
	}
	ib, gb := inc.LinkBytes(), glb.LinkBytes()
	for l := range ib {
		if exactBytes {
			if ib[l] != gb[l] {
				t.Fatalf("link %d: incremental %g bytes, global %g", l, ib[l], gb[l])
			}
		} else {
			approx(t, fmt.Sprintf("link %d bytes", l), ib[l], gb[l], 1e-9)
		}
	}
}

// sweepLog records every SweepDone emission; the other sink events are
// ignored.
type sweepLog struct {
	times []sim.Time
	flows []int
	links []int
	full  []bool
}

var _ obs.Sink = (*sweepLog)(nil)

func (s *sweepLog) FlowActivated(now sim.Time, id int, label string) {}
func (s *sweepLog) FlowEnded(now, activated sim.Time, id int, label string, bytes int64, aborted bool) {
}
func (s *sweepLog) LinkWindow(link int, from, to sim.Time, bytes float64)         {}
func (s *sweepLog) FailureApplied(now sim.Time, node int, isNode bool, links int) {}
func (s *sweepLog) SweepDone(now sim.Time, flows, links int, full bool) {
	s.times = append(s.times, now)
	s.flows = append(s.flows, flows)
	s.links = append(s.links, links)
	s.full = append(s.full, full)
}

// hookSink hands SweepDone and FailureApplied to optional callbacks; the
// other sink events are ignored.
type hookSink struct {
	sweep   func(now sim.Time)
	failure func(now sim.Time, node int, isNode bool)
}

func (h hookSink) FlowActivated(now sim.Time, id int, label string) {}
func (h hookSink) FlowEnded(now, activated sim.Time, id int, label string, bytes int64, aborted bool) {
}
func (h hookSink) LinkWindow(link int, from, to sim.Time, bytes float64) {}
func (h hookSink) SweepDone(now sim.Time, flows, links int, full bool) {
	if h.sweep != nil {
		h.sweep(now)
	}
}
func (h hookSink) FailureApplied(now sim.Time, node int, isNode bool, links int) {
	if h.failure != nil {
		h.failure(now, node, isNode)
	}
}

// TestIncrementalCutoffScopesRegion pins the tentpole's payoff shape: a
// mid-run arrival on a lightly loaded link re-levels only the links
// whose bottleneck level can change, not the whole connected component.
// Six chain flows C_i on links {i, i+1} couple links 0..6 into one
// component at a uniform level (every interior link saturated at
// cap/2). A later arrival on link 0 fits exactly under that level: the
// incremental region must stop at link 1 — link 1 stays saturated at an
// unchanged level, so no rule fires — while the full twin re-levels all
// seven links. Results must still be bit-identical.
func TestIncrementalCutoffScopesRegion(t *testing.T) {
	p := DefaultParams()
	p.PerFlowBandwidth = p.LinkBandwidth // links, not endpoint caps, bind
	const chain = 6
	logs := map[bool]*sweepLog{}
	inc, glb := twinRun(t, p, func(e *Engine) {
		sl := &sweepLog{}
		logs[e.fullOnly] = sl
		e.SetSink(sl)
		for i := 0; i < chain; i++ {
			e.Submit(FlowSpec{Src: 0, Dst: 1, Bytes: 8 << 20, Links: []int{i, i + 1}})
		}
		e.Submit(FlowSpec{Src: 2, Dst: 3, Bytes: 1 << 20, Links: []int{0}, ExtraDelay: 100e-6})
	})
	requireIdenticalRuns(t, inc, glb, false)
	if full, _ := inc.SweepStats(); full != 0 {
		t.Fatalf("incremental engine fell back to %d full sweeps", full)
	}
	// Sweep 0 is the t=0 activation batch; sweep 1 is the arrival.
	il, gl := logs[false], logs[true]
	if len(il.links) < 2 || len(gl.links) < 2 {
		t.Fatalf("sweep logs too short: %d incremental, %d global", len(il.links), len(gl.links))
	}
	if il.flows[1] != 2 || il.links[1] != 2 {
		t.Fatalf("incremental arrival sweep touched %d flows / %d links, want 2 / 2 (the arrival, C0, links 0-1)",
			il.flows[1], il.links[1])
	}
	if gl.flows[1] != chain+1 || gl.links[1] != chain+1 {
		t.Fatalf("global arrival sweep touched %d flows / %d links, want the whole chain (%d / %d)",
			gl.flows[1], gl.links[1], chain+1, chain+1)
	}
}

// TestIncrementalSqueezeRipplesToNeighbors pins the opposite case: when
// locality would be wrong, the audit rules must expand the region. Link
// b carries w, d1, d2; link c carries d2, z1, z2, z3 (c binds first, so
// w and d1 split b's leftover above c's level). When z1 finishes, only
// c's flows are seeded — but d2's rise saturates b at a level below w
// and d1's rates, the squeeze rule marks them, and round two re-levels
// the whole component. The run must match the full twin bit-for-bit
// on every flow timeline, with no fallback to a full sweep.
func TestIncrementalSqueezeRipplesToNeighbors(t *testing.T) {
	p := DefaultParams()
	p.PerFlowBandwidth = p.LinkBandwidth
	const b, c = 3, 7 // any two distinct torus links
	logs := map[bool]*sweepLog{}
	inc, glb := twinRun(t, p, func(e *Engine) {
		sl := &sweepLog{}
		logs[e.fullOnly] = sl
		e.SetSink(sl)
		e.Submit(FlowSpec{Src: 0, Dst: 1, Bytes: 8 << 20, Links: []int{b}})    // w
		e.Submit(FlowSpec{Src: 2, Dst: 3, Bytes: 8 << 20, Links: []int{b}})    // d1
		e.Submit(FlowSpec{Src: 4, Dst: 5, Bytes: 8 << 20, Links: []int{b, c}}) // d2
		e.Submit(FlowSpec{Src: 6, Dst: 7, Bytes: 64 << 10, Links: []int{c}})   // z1, finishes first
		e.Submit(FlowSpec{Src: 8, Dst: 9, Bytes: 8 << 20, Links: []int{c}})    // z2
		e.Submit(FlowSpec{Src: 10, Dst: 11, Bytes: 8 << 20, Links: []int{c}})  // z3
	})
	requireIdenticalRuns(t, inc, glb, false)
	if full, _ := inc.SweepStats(); full != 0 {
		t.Fatalf("incremental engine fell back to %d full sweeps", full)
	}
	// Sweep 1 is z1's departure: the seed is c's three survivors, and the
	// squeeze rule must pull in w and d1 — five flows, both links.
	il := logs[false]
	if len(il.flows) < 2 {
		t.Fatalf("sweep log too short: %d sweeps", len(il.flows))
	}
	if il.flows[1] != 5 || il.links[1] != 2 {
		t.Fatalf("departure sweep touched %d flows / %d links, want 5 / 2 (squeeze must ripple to w and d1)",
			il.flows[1], il.links[1])
	}
	if il.full[1] {
		t.Fatal("departure sweep fell back to a full re-level; the squeeze rule should converge incrementally")
	}
}

// TestIncrementalRoseRuleLiftsRiders pins rule (iii): a link that stays
// saturated while its level rises must pull in the outside flows riding
// its old level. Every link carries C, caps are off. L carries d1, d2
// and the rider w; M carries d1, m1, m2; N carries d2, n1, n2; X only
// n2 — every flow at C/3. At one instant X fails (aborting n2) and two
// more flows join M. The seeds are M's and N's flows, which leaves w
// outside: M's five flows settle at C/5, so d2 would take L's remaining
// 7C/15 while w sat at its old C/3. L stays saturated at a risen level,
// the rose rule pulls w in, and d2 and w split L's 4C/5.
func TestIncrementalRoseRuleLiftsRiders(t *testing.T) {
	p := DefaultParams()
	p.PerFlowBandwidth = p.LinkBandwidth // links, not endpoint caps, bind
	const L, M, N, X = 3, 7, 11, 15      // any four distinct torus links
	const late = 1e-3                    // the M joiners' extra delay
	failAt := sim.Time(p.SenderOverhead + late)
	e := newTestEngine(t, mira128(), p)
	e.Submit(FlowSpec{Src: 0, Dst: 1, Bytes: 64 << 20, Links: []int{L, M}}) // d1
	d2 := e.Submit(FlowSpec{Src: 2, Dst: 3, Bytes: 64 << 20, Links: []int{L, N}})
	w := e.Submit(FlowSpec{Src: 4, Dst: 5, Bytes: 64 << 20, Links: []int{L}})
	e.Submit(FlowSpec{Src: 6, Dst: 7, Bytes: 64 << 20, Links: []int{M}})   // m1
	e.Submit(FlowSpec{Src: 8, Dst: 9, Bytes: 64 << 20, Links: []int{M}})   // m2
	e.Submit(FlowSpec{Src: 10, Dst: 11, Bytes: 64 << 20, Links: []int{N}}) // n1
	n2 := e.Submit(FlowSpec{Src: 12, Dst: 13, Bytes: 64 << 20, Links: []int{N, X}})
	for i := 0; i < 2; i++ {
		e.Submit(FlowSpec{Src: 14, Dst: 15, Bytes: 64 << 20, Links: []int{M}, ExtraDelay: late})
	}
	e.FailLinkAt(X, failAt)
	var rw, rd2 float64
	var sweeps int
	e.SetSink(hookSink{sweep: func(now sim.Time) {
		if now == failAt {
			sweeps++
			rw, _ = e.FlowRate(w)
			rd2, _ = e.FlowRate(d2)
		}
	}})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if r := e.Result(n2); !r.Aborted || r.AbortTime != failAt {
		t.Fatalf("n2: %+v, want aborted at %g", r, float64(failAt))
	}
	if sweeps != 1 {
		t.Fatalf("%d sweeps at the failure instant, want 1", sweeps)
	}
	C := p.LinkBandwidth
	approx(t, "rider w rate", rw, 0.4*C, 1e-9)
	approx(t, "d2 rate", rd2, 0.4*C, 1e-9)
}

// TestIncrementalFreedRuleToleratesRoundedSaturation pins the tolerance
// in rule (ii)'s "saturated before" test. Link B carries x and six
// riders, seven flows at level r = C/7; link A carries x alone. At
// C = 1.8e9 the seven rates, summed the way the audit sums them, come
// to one ulp under C, so only the tolerance sees B as saturated. Seven
// joiners on A then pull x down to C/8: B is freed, and its riders must
// rise to (C - C/8)/6. An exact test (sum >= C) would miss the freed
// link and leave them at r, where the full re-level twin lifts them.
func TestIncrementalFreedRuleToleratesRoundedSaturation(t *testing.T) {
	p := DefaultParams()
	const A, B = 3, 7    // any two distinct torus links
	const late = 1e-3    // the joiners' extra delay
	C := p.LinkBandwidth // caps are far above every level here
	r := C / 7
	var sum float64
	for i := 0; i < 7; i++ {
		sum += r
	}
	if !(sum < C) {
		t.Fatalf("seven shares of %g sum to %g, not under it: the case needs a capacity that rounds short", C, sum)
	}
	inc, full := twinRun(t, p, func(e *Engine) {
		e.Submit(FlowSpec{Src: 0, Dst: 1, Bytes: 64 << 20, Links: []int{A, B}}) // x
		for i := 0; i < 6; i++ {
			e.Submit(FlowSpec{Src: 2, Dst: 3, Bytes: 64 << 20, Links: []int{B}})
		}
		for i := 0; i < 7; i++ {
			e.Submit(FlowSpec{Src: 4, Dst: 5, Bytes: 64 << 20, Links: []int{A}, ExtraDelay: late})
		}
	})
	requireIdenticalRuns(t, inc, full, false)
	if f, _ := inc.SweepStats(); f != 0 {
		t.Fatalf("%d full re-levels; the freed audit should converge incrementally", f)
	}
}
