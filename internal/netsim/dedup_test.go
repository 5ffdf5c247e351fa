package netsim

import (
	"testing"

	"bgqflow/internal/routing"
	"bgqflow/internal/torus"
)

// Regression for the duplicate-link corruption found by the check
// package's differential oracle (seed 9, archived under
// internal/check/testdata/divergences/seed9-duplicate-links.json): an
// explicit route listing a link twice put the flow into that link's
// active-flow list twice, which halved the flow's waterfill share,
// double-charged the link's byte counter, and left a stale entry in
// the list behind when the flow ended (removeFromLink removes one
// instance). A route is a set of occupied links; duplicates must
// collapse.
func TestSubmitDedupsExplicitLinks(t *testing.T) {
	tor := mira128()
	p := DefaultParams()
	src := tor.ID(torus.Coord{0, 0, 0, 0, 0})
	dst := tor.ID(torus.Coord{0, 0, 1, 0, 0})
	route := routing.DeterministicRoute(tor, src, dst).Links
	const bytes = 1 << 20

	run := func(links []int) (FlowResult, []float64) {
		e := newTestEngine(t, tor, p)
		id := e.Submit(FlowSpec{Src: src, Dst: dst, Bytes: bytes, Links: links})
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Result(id), append([]float64(nil), e.LinkBytes()...)
	}

	clean, cleanBytes := run(append([]int(nil), route...))
	dup := append(append([]int(nil), route...), route...) // every link twice
	got, gotBytes := run(dup)

	if got.Completed != clean.Completed || got.TransferEnd != clean.TransferEnd {
		t.Fatalf("duplicated route changed the timeline: completed %v vs %v", got.Completed, clean.Completed)
	}
	for l := range gotBytes {
		if gotBytes[l] != cleanBytes[l] {
			t.Fatalf("link %d carried %g bytes with duplicated route, %g with clean route", l, gotBytes[l], cleanBytes[l])
		}
	}
	for _, l := range route {
		if gotBytes[l] != bytes {
			t.Fatalf("link %d carried %g bytes, want %d", l, gotBytes[l], bytes)
		}
	}
}

// A flow over a duplicated link must not leave stale link state
// behind: a second flow submitted over the same link after the first
// completes must see the full link to itself.
func TestDedupNoStaleLinkStateAcrossFlows(t *testing.T) {
	tor := mira128()
	p := DefaultParams()
	src := tor.ID(torus.Coord{0, 0, 0, 0, 0})
	dst := tor.ID(torus.Coord{0, 0, 1, 0, 0})
	route := routing.DeterministicRoute(tor, src, dst).Links
	dup := append(append([]int(nil), route...), route[0])
	const bytes = 1 << 20

	e := newTestEngine(t, tor, p)
	first := e.Submit(FlowSpec{Src: src, Dst: dst, Bytes: bytes, Links: dup})
	second := e.Submit(FlowSpec{Src: src, Dst: dst, Bytes: bytes, Links: append([]int(nil), route...),
		DependsOn: []FlowID{first}})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	r1, r2 := e.Result(first), e.Result(second)
	if !r1.Done || !r2.Done {
		t.Fatalf("flows not done: %+v, %+v", r1, r2)
	}
	// Both flows run alone on the route, so their transfer spans must be
	// identical.
	span1 := float64(r1.TransferEnd - r1.Activated)
	span2 := float64(r2.TransferEnd - r2.Activated)
	approx(t, "second flow transfer span", span2, span1, 1e-9)
}

func TestDedupLinksLeavesCleanRoutesAlone(t *testing.T) {
	clean := []int{3, 1, 4, 15, 9, 2, 6}
	if got := dedupLinks(clean); &got[0] != &clean[0] || len(got) != len(clean) {
		t.Fatalf("dedupLinks copied a duplicate-free route")
	}
	cases := []struct {
		in, want []int
	}{
		{[]int{5, 5}, []int{5}},
		{[]int{1, 2, 1, 3, 2, 4}, []int{1, 2, 3, 4}},
		{[]int{7, 7, 7, 7}, []int{7}},
		{[]int{0, 1, 2, 0}, []int{0, 1, 2}},
	}
	for _, c := range cases {
		got := dedupLinks(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("dedupLinks(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("dedupLinks(%v) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

// TestSameInstantDedupBatchMatchesGlobal crosses the duplicate-link
// regression with the same-instant batching contract: a batch of flows
// activating at one virtual instant — some over routes listing links
// multiple times — must trigger exactly one sweep, and that sweep's
// outcome must be bit-identical to the full twin's (twinRun),
// with each duplicated link counted once in rate shares and byte
// charges.
func TestSameInstantDedupBatchMatchesGlobal(t *testing.T) {
	const (
		nDup   = 4
		nClean = 2
		bytes  = 1 << 20
	)
	p := DefaultParams()
	logs := map[bool]*sweepLog{}
	inc, glb := twinRun(t, p, func(e *Engine) {
		sl := &sweepLog{}
		logs[e.fullOnly] = sl
		e.SetSink(sl)
		for i := 0; i < nDup; i++ {
			e.Submit(FlowSpec{Src: 0, Dst: 1, Bytes: bytes, Links: []int{5, 5, 9, 9, 5}})
		}
		for i := 0; i < nClean; i++ {
			e.Submit(FlowSpec{Src: 2, Dst: 3, Bytes: bytes, Links: []int{9}})
		}
	})
	requireIdenticalRuns(t, inc, glb, true)

	// Link 9 carries all six flows (the batch's bottleneck), link 5 only
	// the four deduplicated routes; each flow's full size crosses each
	// route link exactly once.
	lb := inc.LinkBytes()
	if lb[5] != nDup*bytes || lb[9] != (nDup+nClean)*bytes {
		t.Fatalf("link bytes 5=%g 9=%g, want %d and %d", lb[5], lb[9], nDup*bytes, (nDup+nClean)*bytes)
	}
	r0 := inc.Result(FlowID(0))
	approx(t, "dup flow transfer span",
		float64(r0.TransferEnd-r0.Activated), float64(bytes)/(p.LinkBandwidth/(nDup+nClean)), 1e-9)

	activateAt := r0.Activated
	for fullOnly, sl := range logs {
		atInstant := 0
		for _, at := range sl.times {
			if at == activateAt {
				atInstant++
			}
		}
		if atInstant != 1 {
			t.Fatalf("fullOnly=%v: %d sweeps at the activation instant, want exactly 1 (times %v)",
				fullOnly, atInstant, sl.times)
		}
	}
	if il := logs[false]; il.flows[0] != nDup+nClean {
		t.Fatalf("batched sweep covered %d flows, want %d", il.flows[0], nDup+nClean)
	}
	if full, _ := inc.SweepStats(); full != 0 {
		t.Fatalf("incremental engine fell back to %d full sweeps", full)
	}
}
