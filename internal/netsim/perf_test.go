package netsim

import (
	"testing"

	"bgqflow/internal/routing"
	"bgqflow/internal/torus"
)

// drain steps the interactive clock until no events remain.
func drain(e *Engine) {
	for e.StepClock() {
	}
}

// BenchmarkEngineSubmitRelease measures the steady-state cost of pushing
// one flow through its whole lifecycle (submit, release, activate,
// transfer, finish) on a warm engine: cached route, arena-backed flow
// struct, freelisted clock events, reused waterfill scratch.
func BenchmarkEngineSubmitRelease(b *testing.B) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	p := DefaultParams()
	e, err := NewEngine(NewNetwork(tor, p.LinkBandwidth), p)
	if err != nil {
		b.Fatal(err)
	}
	e.BeginInteractive()
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
	// Warm caches, scratch, and the event freelist.
	e.Reserve(64 + b.N)
	for i := 0; i < 64; i++ {
		e.Submit(FlowSpec{Src: src, Dst: dst, Bytes: 1 << 20})
		drain(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Submit(FlowSpec{Src: src, Dst: dst, Bytes: 1 << 20})
		drain(e)
	}
}

// TestSubmitReleaseZeroAlloc is the allocation regression guard for the
// engine hot path: once routes are cached and capacity is reserved,
// driving a flow from Submit to completion must not allocate at all.
func TestSubmitReleaseZeroAlloc(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	p := DefaultParams()
	e, err := NewEngine(NewNetwork(tor, p.LinkBandwidth), p)
	if err != nil {
		t.Fatal(err)
	}
	e.BeginInteractive()
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
	const runs = 100
	e.Reserve(64 + runs + 8)
	for i := 0; i < 64; i++ {
		e.Submit(FlowSpec{Src: src, Dst: dst, Bytes: 1 << 20})
		drain(e)
	}
	avg := testing.AllocsPerRun(runs, func() {
		e.Submit(FlowSpec{Src: src, Dst: dst, Bytes: 1 << 20})
		drain(e)
	})
	if avg != 0 {
		t.Fatalf("steady-state Submit/release allocates %.2f objects/op, want 0", avg)
	}
}

// TestFailLinkPurgesRouteCache covers the route cache's invalidation rule
// (DESIGN.md §8): every failure event purges the memoized routes and
// bumps the failure epoch — no pre-failure entry survives — while the
// cache stays live so post-failure lookups repopulate it. The engine's
// fail-stop check still fires on default routes over the dead link, and
// the planning layer's fault-aware routes still submit cleanly.
func TestFailLinkPurgesRouteCache(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	p := DefaultParams()
	net := NewNetwork(tor, p.LinkBandwidth)
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)

	// Warm the cache through both entry points.
	def := net.Route(src, dst)
	if net.RouteCache().Len() == 0 {
		t.Fatal("route cache not populated")
	}

	net.FailLink(def.Links[0])

	if net.RouteCache().Len() != 0 {
		t.Fatalf("FailLink left %d cached routes behind", net.RouteCache().Len())
	}
	if net.RouteCache().Epoch() != 1 {
		t.Fatalf("epoch = %d after one failure event, want 1", net.RouteCache().Epoch())
	}

	// Lookups resume and repopulate the cache from post-failure state;
	// a second failure event must purge again (the regression this test
	// pins: invalidation is per event, not once).
	net.Route(src, torus.NodeID(3))
	if net.RouteCache().Len() == 0 {
		t.Fatal("post-failure lookups must repopulate the cache")
	}
	net.FailLink(def.Links[1])
	if net.RouteCache().Len() != 0 {
		t.Fatal("second failure event did not purge the repopulated cache")
	}
	if net.RouteCache().Epoch() != 2 {
		t.Fatalf("epoch = %d after two failure events, want 2", net.RouteCache().Epoch())
	}

	// Default-route submission over the failed link must still fail stop.
	e, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Submit over failed link did not panic")
			}
		}()
		e.Submit(FlowSpec{Src: src, Dst: dst, Bytes: 1 << 20})
	}()

	// The fault-aware planning path still works and is never cached.
	r, err := net.RouteAvoiding(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	e2.Submit(FlowSpec{Src: src, Dst: dst, Bytes: 1 << 20, Links: r.Links})
	if _, err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	// Post-failure cache entries are legitimate: the memoized default
	// routes are pure functions of the unchanged topology.
	want := routing.DeterministicRoute(tor, src, dst).Links
	got := net.Route(src, dst).Links
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-failure cached route diverges at hop %d", i)
		}
	}
}

// TestRouteCacheSharedAcrossEngines checks that successive engines over
// one network reuse the same memoized routes (the per-run reuse the
// experiment rigs rely on) and that cached and fresh routes agree.
func TestRouteCacheSharedAcrossEngines(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	p := DefaultParams()
	net := NewNetwork(tor, p.LinkBandwidth)
	src, dst := torus.NodeID(1), torus.NodeID(100)
	for i := 0; i < 3; i++ {
		e, err := NewEngine(net, p)
		if err != nil {
			t.Fatal(err)
		}
		id := e.Submit(FlowSpec{Src: src, Dst: dst, Bytes: 4 << 10})
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		want := routing.DeterministicRoute(tor, src, dst).Links
		got := e.FlowRouteLinks(id)
		if len(got) != len(want) {
			t.Fatalf("engine %d: %d hops, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("engine %d: cached route differs at hop %d", i, j)
			}
		}
	}
	hits, _, _ := net.RouteCache().Counts()
	if hits < 2 {
		t.Fatalf("route cache hits = %d, want >= 2 (reuse across engines)", hits)
	}
}
