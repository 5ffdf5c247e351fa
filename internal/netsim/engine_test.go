package netsim

import (
	"math"
	"math/rand"
	"testing"

	"bgqflow/internal/routing"
	"bgqflow/internal/sim"
	"bgqflow/internal/torus"
)

func mira128() *torus.Torus { return torus.MustNew(torus.Shape{2, 2, 4, 4, 2}) }

func newTestEngine(t *testing.T, tor *torus.Torus, p Params) *Engine {
	t.Helper()
	net := NewNetwork(tor, p.LinkBandwidth)
	e, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func approx(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if want == 0 {
		if math.Abs(got) > relTol {
			t.Fatalf("%s = %g, want 0", name, got)
		}
		return
	}
	if math.Abs(got-want)/math.Abs(want) > relTol {
		t.Fatalf("%s = %g, want %g (tol %g)", name, got, want, relTol)
	}
}

func TestSingleFlowTiming(t *testing.T) {
	tor := mira128()
	p := DefaultParams()
	e := newTestEngine(t, tor, p)
	src := tor.ID(torus.Coord{0, 0, 0, 0, 0})
	dst := tor.ID(torus.Coord{0, 0, 1, 0, 0}) // 1 hop
	const bytes = 1 << 20
	id := e.Submit(FlowSpec{Src: src, Dst: dst, Bytes: bytes})
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := float64(p.SenderOverhead) + bytes/p.PerFlowBandwidth +
		float64(p.ReceiverOverhead) + float64(p.HopLatency)
	approx(t, "makespan", float64(mk), want, 1e-9)
	r := e.Result(id)
	if !r.Done {
		t.Fatal("flow not done")
	}
	if r.Activated <= r.Released && p.SenderOverhead > 0 {
		t.Fatal("activation did not pay sender overhead")
	}
}

// TestEndpointArithmeticExact pins, bit for bit, the expressions the
// engine charges for a flow's endpoints: the release wait
// SenderOverhead + ExtraDelay, the tail ReceiverOverhead +
// HopLatency·hops, and the lone-flow rates PerFlowBandwidth (links)
// and LocalCopyBandwidth (local copy). The constants, and a multi-hop
// flow released and finished within microseconds, are chosen so that
// reassociating either sum, summing the hop latencies one by one, or
// capping at the wrong rate changes the result bits.
func TestEndpointArithmeticExact(t *testing.T) {
	tor := mira128()
	p := DefaultParams()
	p.PerFlowBandwidth = 1.3e9 // below the link rate: the flow cap binds
	p.LocalCopyBandwidth = 7.3e9
	p.SenderOverhead = 13.7e-6
	p.ReceiverOverhead = 11.3e-6
	p.HopLatency = 29.9e-9
	const extra = 7.9e-6
	const multiBytes, copyBytes = 777, 9<<20 + 13
	e := newTestEngine(t, tor, p)
	src := tor.ID(torus.Coord{0, 0, 0, 0, 0})
	dst := tor.ID(torus.Coord{1, 1, 2, 2, 1})
	// A zero-byte feeder gives the multi-hop flow a non-zero release time.
	feeder := e.Submit(FlowSpec{Src: src, Dst: src})
	multi := e.Submit(FlowSpec{Src: src, Dst: dst, Bytes: multiBytes,
		DependsOn: []FlowID{feeder}, ExtraDelay: extra})
	local := e.Submit(FlowSpec{Src: 9, Dst: 9, Bytes: copyBytes})
	emptyRoute := e.Submit(FlowSpec{Src: 11, Dst: 11, Bytes: copyBytes, Links: []int{}})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	hops := len(e.Network().Route(src, dst).Links)
	if hops != 7 {
		t.Fatalf("multi-hop flow crosses %d links, want 7", hops)
	}

	m := e.Result(multi)
	if m.Released == 0 {
		t.Fatal("multi-hop flow released at 0; the feeder should delay it")
	}
	if want := m.Released + sim.Time(p.SenderOverhead+extra); m.Activated != want {
		t.Errorf("multi-hop Activated = %v, want Released + (SenderOverhead + ExtraDelay) = %v", m.Activated, want)
	}
	if want := m.Activated + sim.Time(float64(multiBytes)/p.PerFlowBandwidth); m.TransferEnd != want {
		t.Errorf("multi-hop TransferEnd = %v, want Activated + bytes/PerFlowBandwidth = %v", m.TransferEnd, want)
	}
	if want := m.TransferEnd + sim.Time(p.ReceiverOverhead+p.HopLatency*sim.Duration(hops)); m.Completed != want {
		t.Errorf("multi-hop Completed = %v, want TransferEnd + (ReceiverOverhead + HopLatency·%d) = %v", m.Completed, hops, want)
	}

	// A local copy, by endpoints or by an explicit empty route.
	for _, id := range []FlowID{local, emptyRoute} {
		l := e.Result(id)
		if want := l.Released + sim.Time(p.SenderOverhead); l.Activated != want {
			t.Errorf("local copy %d Activated = %v, want Released + SenderOverhead = %v", id, l.Activated, want)
		}
		if want := l.Activated + sim.Time(float64(copyBytes)/p.LocalCopyBandwidth); l.TransferEnd != want {
			t.Errorf("local copy %d TransferEnd = %v, want Activated + bytes/LocalCopyBandwidth = %v", id, l.TransferEnd, want)
		}
		if want := l.TransferEnd + sim.Time(p.ReceiverOverhead); l.Completed != want {
			t.Errorf("local copy %d Completed = %v, want TransferEnd + ReceiverOverhead = %v", id, l.Completed, want)
		}
	}
}

func TestTwoFlowsShareOneLinkEqually(t *testing.T) {
	tor := mira128()
	p := DefaultParams()
	p.SenderOverhead, p.ReceiverOverhead, p.HopLatency = 0, 0, 0
	p.PerFlowBandwidth = p.LinkBandwidth * 10 // caps off: link is the constraint
	e := newTestEngine(t, tor, p)
	src := tor.ID(torus.Coord{0, 0, 0, 0, 0})
	dst := tor.ID(torus.Coord{0, 0, 1, 0, 0})
	const bytes = 10 << 20
	// Same route: both flows share the single +C link.
	e.Submit(FlowSpec{Src: src, Dst: dst, Bytes: bytes})
	e.Submit(FlowSpec{Src: src, Dst: dst, Bytes: bytes})
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * bytes / p.LinkBandwidth
	approx(t, "shared-link makespan", float64(mk), want, 1e-9)
}

func TestDisjointFlowsRunAtFullRate(t *testing.T) {
	tor := mira128()
	p := DefaultParams()
	p.SenderOverhead, p.ReceiverOverhead, p.HopLatency = 0, 0, 0
	e := newTestEngine(t, tor, p)
	src := tor.ID(torus.Coord{0, 0, 0, 0, 0})
	const bytes = 8 << 20
	// Two flows leaving the same node in different dimensions: disjoint links.
	e.Submit(FlowSpec{Src: src, Dst: tor.ID(torus.Coord{0, 0, 1, 0, 0}), Bytes: bytes})
	e.Submit(FlowSpec{Src: src, Dst: tor.ID(torus.Coord{0, 0, 0, 1, 0}), Bytes: bytes})
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := bytes / p.PerFlowBandwidth // both finish together, no sharing
	approx(t, "disjoint makespan", float64(mk), want, 1e-9)
}

func TestMaxMinUnequalShare(t *testing.T) {
	// Three flows: A and B share link L1; B also crosses L2 with C.
	// On a simple path graph, max-min gives everyone 1/2 a link here.
	tor := torus.MustNew(torus.Shape{8})
	p := DefaultParams()
	p.SenderOverhead, p.ReceiverOverhead, p.HopLatency = 0, 0, 0
	p.PerFlowBandwidth = p.LinkBandwidth * 10
	e := newTestEngine(t, tor, p)
	const bytes = 1 << 20
	// Flow A: 0->1 (link 0+). Flow B: 0->2 (links 0+,1+), twice the size.
	// Flow C: 1->2 (link 1+).
	a := e.Submit(FlowSpec{Src: 0, Dst: 1, Bytes: bytes})
	b := e.Submit(FlowSpec{Src: 0, Dst: 2, Bytes: 2 * bytes})
	c := e.Submit(FlowSpec{Src: 1, Dst: 2, Bytes: bytes})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// All three start at rate L/2 (both links saturate). A and C finish at
	// 2b/L having moved b; B has moved b and continues alone at the full
	// link rate for its remaining b: ends at 3b/L.
	L := p.LinkBandwidth
	tAC := 2 * bytes / L
	tB := 3 * bytes / L
	approx(t, "A end", float64(e.Result(a).TransferEnd), tAC, 1e-9)
	approx(t, "C end", float64(e.Result(c).TransferEnd), tAC, 1e-9)
	approx(t, "B end", float64(e.Result(b).TransferEnd), tB, 1e-9)
}

func TestPerFlowCapBinds(t *testing.T) {
	tor := mira128()
	p := DefaultParams()
	p.SenderOverhead, p.ReceiverOverhead, p.HopLatency = 0, 0, 0
	e := newTestEngine(t, tor, p)
	src := tor.ID(torus.Coord{0, 0, 0, 0, 0})
	dst := tor.ID(torus.Coord{0, 0, 1, 0, 0})
	const bytes = 16 << 20
	e.Submit(FlowSpec{Src: src, Dst: dst, Bytes: bytes})
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := bytes / p.PerFlowBandwidth // cap < link bandwidth
	approx(t, "capped makespan", float64(mk), want, 1e-9)
}

func TestLocalCopyUsesMemcpyRate(t *testing.T) {
	tor := mira128()
	p := DefaultParams()
	p.SenderOverhead, p.ReceiverOverhead = 0, 0
	e := newTestEngine(t, tor, p)
	const bytes = 64 << 20
	e.Submit(FlowSpec{Src: 5, Dst: 5, Bytes: bytes})
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "local copy makespan", float64(mk), bytes/p.LocalCopyBandwidth, 1e-9)
}

func TestZeroByteFlowCompletes(t *testing.T) {
	tor := mira128()
	p := DefaultParams()
	e := newTestEngine(t, tor, p)
	id := e.Submit(FlowSpec{Src: 0, Dst: 1, Bytes: 0})
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !e.Result(id).Done {
		t.Fatal("zero-byte flow not done")
	}
	if mk <= 0 {
		t.Fatal("zero-byte flow took zero time (overheads must apply)")
	}
}

func TestDependencyOrdering(t *testing.T) {
	tor := mira128()
	p := DefaultParams()
	e := newTestEngine(t, tor, p)
	src := tor.ID(torus.Coord{0, 0, 0, 0, 0})
	mid := tor.ID(torus.Coord{0, 0, 2, 0, 0})
	dst := tor.ID(torus.Coord{0, 0, 2, 2, 0})
	const bytes = 4 << 20
	first := e.Submit(FlowSpec{Src: src, Dst: mid, Bytes: bytes})
	second := e.Submit(FlowSpec{Src: mid, Dst: dst, Bytes: bytes,
		DependsOn: []FlowID{first}, ExtraDelay: p.ProxyForwardOverhead})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	r1, r2 := e.Result(first), e.Result(second)
	if r2.Released != r1.Completed {
		t.Fatalf("dependent released at %v, dependency completed at %v", r2.Released, r1.Completed)
	}
	minGap := float64(p.SenderOverhead + p.ProxyForwardOverhead)
	if float64(r2.Activated-r2.Released) < minGap-1e-12 {
		t.Fatalf("dependent activated %v after release, want >= %v",
			r2.Activated-r2.Released, minGap)
	}
}

func TestDependencyFanOutAndIn(t *testing.T) {
	tor := mira128()
	p := DefaultParams()
	e := newTestEngine(t, tor, p)
	root := e.Submit(FlowSpec{Src: 0, Dst: 1, Bytes: 1 << 20})
	var mids []FlowID
	for i := 2; i < 6; i++ {
		mids = append(mids, e.Submit(FlowSpec{Src: 1, Dst: torus.NodeID(i * 8), Bytes: 1 << 20, DependsOn: []FlowID{root}}))
	}
	sink := e.Submit(FlowSpec{Src: 48, Dst: 90, Bytes: 1 << 20, DependsOn: mids})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rs := e.Result(sink)
	for _, m := range mids {
		if rs.Released < e.Result(m).Completed {
			t.Fatal("sink released before a dependency completed")
		}
	}
}

func TestForwardDependencyRejected(t *testing.T) {
	// Cycles would require forward references, which Submit forbids:
	// a dependency on a not-yet-submitted flow panics.
	tor := mira128()
	p := DefaultParams()
	e := newTestEngine(t, tor, p)
	a := e.Submit(FlowSpec{Src: 0, Dst: 1, Bytes: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("forward dependency accepted")
		}
	}()
	e.Submit(FlowSpec{Src: 1, Dst: 2, Bytes: 1, DependsOn: []FlowID{a, FlowID(2)}})
}

func TestUnknownDependencyPanics(t *testing.T) {
	tor := mira128()
	e := newTestEngine(t, tor, DefaultParams())
	defer func() {
		if recover() == nil {
			t.Fatal("unknown dependency accepted")
		}
	}()
	e.Submit(FlowSpec{Src: 0, Dst: 1, Bytes: 1, DependsOn: []FlowID{99}})
}

func TestNegativeBytesPanics(t *testing.T) {
	tor := mira128()
	e := newTestEngine(t, tor, DefaultParams())
	defer func() {
		if recover() == nil {
			t.Fatal("negative size accepted")
		}
	}()
	e.Submit(FlowSpec{Src: 0, Dst: 1, Bytes: -5})
}

func TestExtraLinkFlows(t *testing.T) {
	tor := mira128()
	p := DefaultParams()
	p.SenderOverhead, p.ReceiverOverhead, p.HopLatency = 0, 0, 0
	net := NewNetwork(tor, p.LinkBandwidth)
	const ionBandwidth = 1.8e9
	ion := net.AddLink("bridge0->ion0", ionBandwidth)
	e, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	src := tor.ID(torus.Coord{0, 0, 0, 0, 0})
	bridge := tor.ID(torus.Coord{0, 0, 1, 0, 0})
	route := routing.DeterministicRoute(tor, src, bridge)
	links := append(append([]int(nil), route.Links...), ion)
	const bytes = 32 << 20
	// Two flows over the same ION link contend there.
	e.Submit(FlowSpec{Src: src, Dst: bridge, Bytes: bytes, Links: links})
	e.Submit(FlowSpec{Src: tor.ID(torus.Coord{0, 1, 0, 0, 0}), Dst: bridge, Bytes: bytes,
		Links: append(append([]int(nil), routing.DeterministicRoute(tor, tor.ID(torus.Coord{0, 1, 0, 0, 0}), bridge).Links...), ion)})
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * bytes / ionBandwidth
	approx(t, "ION-shared makespan", float64(mk), want, 1e-9)
}

func TestLinkBytesConservation(t *testing.T) {
	tor := mira128()
	p := DefaultParams()
	e := newTestEngine(t, tor, p)
	rng := rand.New(rand.NewSource(5))
	type sub struct {
		bytes int64
		hops  int
	}
	var subs []sub
	for i := 0; i < 40; i++ {
		src := torus.NodeID(rng.Intn(tor.Size()))
		dst := torus.NodeID(rng.Intn(tor.Size()))
		bytes := int64(rng.Intn(1<<22) + 1)
		e.Submit(FlowSpec{Src: src, Dst: dst, Bytes: bytes})
		subs = append(subs, sub{bytes, tor.HopDistance(src, dst)})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, s := range subs {
		want += float64(s.bytes) * float64(s.hops)
	}
	var got float64
	for _, b := range e.LinkBytes() {
		got += b
	}
	approx(t, "total link bytes", got, want, 1e-6)
}

func TestLinkBytesNeverExceedCapacityTimesTime(t *testing.T) {
	tor := mira128()
	p := DefaultParams()
	e := newTestEngine(t, tor, p)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		e.Submit(FlowSpec{
			Src:   torus.NodeID(rng.Intn(tor.Size())),
			Dst:   torus.NodeID(rng.Intn(tor.Size())),
			Bytes: int64(rng.Intn(1<<23) + 1),
		})
	}
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for l, b := range e.LinkBytes() {
		max := e.Network().Capacity(l) * float64(mk) * (1 + 1e-9)
		if b > max {
			t.Fatalf("link %d carried %g bytes, exceeds capacity*makespan %g", l, b, max)
		}
	}
}

// Integration: the store-and-forward mechanics of the paper's Fig. 5 at
// small scale. A large message split over 4 link-disjoint proxy paths (two
// dependent legs each) should roughly double throughput versus the direct
// single path; a small message should not benefit. Routes are built by
// hand here; the paper's placement heuristic lives in package core.
func TestProxyTransferBeatsDirectForLargeMessages(t *testing.T) {
	direct := runPointToPoint(t, 128<<20, false)
	proxied := runPointToPoint(t, 128<<20, true)
	gain := proxied / direct
	if gain < 1.7 || gain > 2.3 {
		t.Fatalf("large-message proxy gain = %.2f, want ~2x", gain)
	}

	directSmall := runPointToPoint(t, 16<<10, false)
	proxiedSmall := runPointToPoint(t, 16<<10, true)
	if proxiedSmall >= directSmall {
		t.Fatalf("small message should not benefit from proxies: direct %.3g, proxy %.3g",
			directSmall, proxiedSmall)
	}
}

// runPointToPoint moves bytes from (0,0) to (2,1) on a 4x4 torus, either
// directly or via 4 proxies over hand-built link-disjoint two-leg routes.
func runPointToPoint(t *testing.T, bytes int64, useProxies bool) float64 {
	t.Helper()
	tor := torus.MustNew(torus.Shape{4, 4})
	p := DefaultParams()
	e := newTestEngine(t, tor, p)
	id := func(a, b int) torus.NodeID { return tor.ID(torus.Coord{a, b}) }
	link := func(a, b, dim int, dir torus.Direction) int { return tor.LinkID(id(a, b), dim, dir) }
	src, dst := id(0, 0), id(2, 1)
	if !useProxies {
		e.Submit(FlowSpec{Src: src, Dst: dst, Bytes: bytes})
	} else {
		type legs struct {
			proxy torus.NodeID
			l1    []int
			l2    []int
		}
		routes := []legs{
			// P1=(0,1): out +B; in via +A at (1,1)->(2,1).
			{id(0, 1), []int{link(0, 0, 1, torus.Plus)},
				[]int{link(0, 1, 0, torus.Plus), link(1, 1, 0, torus.Plus)}},
			// P2=(0,3): out -B; A+ on row 3, then in via -B (2,3)->(2,2)->(2,1).
			{id(0, 3), []int{link(0, 0, 1, torus.Minus)},
				[]int{link(0, 3, 0, torus.Plus), link(1, 3, 0, torus.Plus),
					link(2, 3, 1, torus.Minus), link(2, 2, 1, torus.Minus)}},
			// P3=(1,0): out +A; A+ then in via +B at (2,0)->(2,1).
			{id(1, 0), []int{link(0, 0, 0, torus.Plus)},
				[]int{link(1, 0, 0, torus.Plus), link(2, 0, 1, torus.Plus)}},
			// P4=(3,0): out -A; B+ on column... then in via -A (3,1)->(2,1).
			{id(3, 0), []int{link(0, 0, 0, torus.Minus)},
				[]int{link(3, 0, 1, torus.Plus), link(3, 1, 0, torus.Minus)}},
		}
		// Sanity: all routes pairwise link-disjoint.
		seen := map[int]bool{}
		for _, r := range routes {
			for _, l := range append(append([]int(nil), r.l1...), r.l2...) {
				if seen[l] {
					t.Fatalf("test routes share link %d", l)
				}
				seen[l] = true
			}
		}
		per := bytes / int64(len(routes))
		rem := bytes - per*int64(len(routes))
		for i, r := range routes {
			sz := per
			if i == 0 {
				sz += rem
			}
			leg1 := e.Submit(FlowSpec{Src: src, Dst: r.proxy, Bytes: sz, Links: r.l1})
			e.Submit(FlowSpec{Src: r.proxy, Dst: dst, Bytes: sz, Links: r.l2,
				DependsOn: []FlowID{leg1}, ExtraDelay: p.ProxyForwardOverhead})
		}
	}
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return Throughput(bytes, mk)
}

func TestSubmitAfterRunPanics(t *testing.T) {
	tor := mira128()
	e := newTestEngine(t, tor, DefaultParams())
	e.Submit(FlowSpec{Src: 0, Dst: 1, Bytes: 1})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Submit after Run accepted")
		}
	}()
	e.Submit(FlowSpec{Src: 0, Dst: 1, Bytes: 1})
}

func TestInvalidParamsRejected(t *testing.T) {
	tor := mira128()
	p := DefaultParams()
	p.LinkBandwidth = 0
	net := NewNetwork(tor, 1)
	if _, err := NewEngine(net, p); err == nil {
		t.Fatal("zero link bandwidth accepted")
	}
	p = DefaultParams()
	p.SenderOverhead = -1
	if _, err := NewEngine(net, p); err == nil {
		t.Fatal("negative overhead accepted")
	}
}

func TestThroughputHelper(t *testing.T) {
	if Throughput(100, 0) != 0 {
		t.Fatal("zero duration should report zero throughput")
	}
	if got := Throughput(1<<30, sim.Duration(1)); got != float64(1<<30) {
		t.Fatalf("Throughput = %g", got)
	}
}

// Property-like stress: random DAGs of flows complete, makespan respects
// simple lower bounds.
func TestRandomDAGsComplete(t *testing.T) {
	tor := torus.MustNew(torus.Shape{4, 4, 4, 4, 2})
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		p := DefaultParams()
		e := newTestEngine(t, tor, p)
		n := rng.Intn(80) + 20
		var ids []FlowID
		var totalBytes int64
		var maxSingle float64
		for i := 0; i < n; i++ {
			var deps []FlowID
			if len(ids) > 0 && rng.Intn(2) == 0 {
				for d := 0; d < rng.Intn(3); d++ {
					deps = append(deps, ids[rng.Intn(len(ids))])
				}
			}
			bytes := int64(rng.Intn(1 << 22))
			totalBytes += bytes
			lower := float64(bytes) / p.PerFlowBandwidth
			if lower > maxSingle {
				maxSingle = lower
			}
			ids = append(ids, e.Submit(FlowSpec{
				Src:       torus.NodeID(rng.Intn(tor.Size())),
				Dst:       torus.NodeID(rng.Intn(tor.Size())),
				Bytes:     bytes,
				DependsOn: deps,
			}))
		}
		mk, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if float64(mk) < maxSingle {
			t.Fatalf("makespan %g below single-flow lower bound %g", float64(mk), maxSingle)
		}
		for _, id := range ids {
			r := e.Result(id)
			if !r.Done {
				t.Fatalf("flow %d not done", id)
			}
			if r.TransferEnd < r.Activated || r.Completed < r.TransferEnd {
				t.Fatalf("flow %d timeline out of order: %+v", id, r)
			}
		}
	}
}

func BenchmarkEngineConvergingFlows(b *testing.B) {
	tor := torus.MustNew(torus.Shape{4, 4, 4, 4, 2})
	p := DefaultParams()
	for i := 0; i < b.N; i++ {
		net := NewNetwork(tor, p.LinkBandwidth)
		e, _ := NewEngine(net, p)
		dst := torus.NodeID(0)
		for s := 1; s < tor.Size(); s++ {
			e.Submit(FlowSpec{Src: torus.NodeID(s), Dst: dst, Bytes: 1 << 20})
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
