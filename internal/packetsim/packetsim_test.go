package packetsim

import (
	"math"
	"testing"

	"bgqflow/internal/core"
	"bgqflow/internal/netsim"
	"bgqflow/internal/routing"
	"bgqflow/internal/torus"
)

func mira128() *torus.Torus { return torus.MustNew(torus.Shape{2, 2, 4, 4, 2}) }

// noOverheads is the flow model's calibration without the per-message
// software costs, so timings read the wire alone.
func noOverheads() netsim.Params {
	p := netsim.DefaultParams()
	p.SenderOverhead, p.ReceiverOverhead = 0, 0
	return p
}

func TestSingleMessageThroughputMatchesWireRate(t *testing.T) {
	tor := mira128()
	p := noOverheads()
	s, err := New(tor, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	const bytes = 8 << 20
	id := s.Submit(MessageSpec{Src: 0, Dst: torus.NodeID(tor.Size() - 1), Bytes: bytes, Zone: routing.ZoneDeterministic})
	mk, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Result(id).Done {
		t.Fatal("message not delivered")
	}
	got := netsim.Throughput(bytes, mk)
	want := p.LinkBandwidth * payloadBytes / (payloadBytes + headerBytes) // payload share of the wire
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("single-path throughput %.3g, want ~%.3g", got, want)
	}
}

func TestTwoMessagesShareALink(t *testing.T) {
	tor := torus.MustNew(torus.Shape{8})
	p := noOverheads()
	s, _ := New(tor, p, 1)
	const bytes = 4 << 20
	// Both cross link 0->1.
	s.Submit(MessageSpec{Src: 0, Dst: 1, Bytes: bytes, Zone: routing.ZoneDeterministic})
	s.Submit(MessageSpec{Src: 0, Dst: 2, Bytes: bytes, Zone: routing.ZoneDeterministic})
	mk, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The shared link carries 2*bytes of payload: lower bound on time.
	minTime := 2 * bytes * (payloadBytes + headerBytes) / payloadBytes / p.LinkBandwidth
	if float64(mk) < minTime*0.99 {
		t.Fatalf("makespan %.3g below shared-link bound %.3g", float64(mk), minTime)
	}
}

func TestDependentMessageWaits(t *testing.T) {
	tor := mira128()
	s, _ := New(tor, netsim.DefaultParams(), 1)
	first := s.Submit(MessageSpec{Src: 0, Dst: 8, Bytes: 1 << 20, Zone: routing.ZoneDeterministic})
	second := s.Submit(MessageSpec{Src: 8, Dst: 16, Bytes: 1 << 20, Zone: routing.ZoneDeterministic,
		DependsOn: []MessageID{first}, ExtraDelay: 25e-6})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	r1, r2 := s.Result(first), s.Result(second)
	if r2.Released != r1.Delivered {
		t.Fatalf("dependent released at %v, dependency delivered at %v", r2.Released, r1.Delivered)
	}
	if r2.Injected < r2.Released+15e-6+25e-6-1e-12 {
		t.Fatal("dependent did not pay sender+forward overheads")
	}
}

func TestZeroByteMessage(t *testing.T) {
	tor := mira128()
	s, _ := New(tor, netsim.DefaultParams(), 1)
	id := s.Submit(MessageSpec{Src: 0, Dst: 5, Bytes: 0})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !s.Result(id).Done {
		t.Fatal("zero-byte message not delivered")
	}
}

func TestExplicitRouteUsed(t *testing.T) {
	tor := torus.MustNew(torus.Shape{8})
	s, _ := New(tor, netsim.DefaultParams(), 1)
	// Force the long way around: 0 -> 7 going + (7 hops instead of 1).
	var links []int
	for i := 0; i < 7; i++ {
		links = append(links, tor.LinkID(torus.NodeID(i), 0, torus.Plus))
	}
	s.Submit(MessageSpec{Src: 0, Dst: 7, Bytes: 1 << 20, Links: links})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, l := range links {
		if s.LinkPayloadBytes(l) < 1<<20 {
			t.Fatalf("forced link %d carried %g payload bytes", l, s.LinkPayloadBytes(l))
		}
	}
}

func TestPacketBudgetGuard(t *testing.T) {
	tor := mira128()
	s, _ := New(tor, netsim.DefaultParams(), 1)
	s.packetsBudget = 10
	s.Submit(MessageSpec{Src: 0, Dst: 1, Bytes: 1 << 20, Zone: routing.ZoneDeterministic})
	defer func() {
		if recover() == nil {
			t.Fatal("packet budget exhaustion did not panic")
		}
	}()
	_, _ = s.Run()
}

func TestLinkPayloadConservation(t *testing.T) {
	tor := mira128()
	s, _ := New(tor, netsim.DefaultParams(), 1)
	src, dst := torus.NodeID(0), torus.NodeID(9)
	const bytes = 3<<20 + 123 // non-multiple of packet size
	s.Submit(MessageSpec{Src: src, Dst: dst, Bytes: bytes, Zone: routing.ZoneDeterministic})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	hops := tor.HopDistance(src, dst)
	var total float64
	for l := 0; l < tor.NumTorusLinks(); l++ {
		total += s.LinkPayloadBytes(l)
	}
	want := float64(bytes) * float64(hops)
	if math.Abs(total-want)/want > 1e-9 {
		t.Fatalf("links carried %g payload bytes, want %g", total, want)
	}
}

// Zone-randomized routing spreads one message's packets across several
// paths, improving throughput between far nodes — the hardware-level
// counterpart of the paper's user-space multipath.
func TestZoneRoutingSpreadsPackets(t *testing.T) {
	tor := torus.MustNew(torus.Shape{4, 4, 4, 4, 2})
	p := noOverheads()
	run := func(zone routing.Zone) float64 {
		s, _ := New(tor, p, 99)
		const bytes = 4 << 20
		src := tor.ID(torus.Coord{0, 0, 0, 0, 0})
		dst := tor.ID(torus.Coord{2, 2, 2, 2, 1})
		s.Submit(MessageSpec{Src: src, Dst: dst, Bytes: bytes, Zone: zone})
		mk, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return netsim.Throughput(bytes, mk)
	}
	det := run(routing.ZoneDeterministic)
	unr := run(routing.ZoneUnrestricted)
	if unr <= det*1.5 {
		t.Fatalf("zone 1 (%.3g) should spread a single message well beyond zone 2 (%.3g)", unr, det)
	}
}

// Cross-validation: the packet model and the flow model agree on the
// paper's Fig. 5 scenario — direct and 4-proxy transfers — within a few
// percent.
func TestCrossValidationAgainstFlowModel(t *testing.T) {
	tor := mira128()
	const bytes = 8 << 20
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)

	pl, err := core.NewPairPlanner(tor, core.ProxyConfig{Proxies: 4})
	if err != nil {
		t.Fatal(err)
	}
	proxies := pl.SelectProxies(src, dst)
	if len(proxies) != 4 {
		t.Fatalf("expected 4 proxies, got %d", len(proxies))
	}

	// Flow model.
	flowP := netsim.DefaultParams()
	runFlow := func(proxied bool) float64 {
		e, err := netsim.NewEngine(netsim.NewNetwork(tor, flowP.LinkBandwidth), flowP)
		if err != nil {
			t.Fatal(err)
		}
		if !proxied {
			e.Submit(netsim.FlowSpec{Src: src, Dst: dst, Bytes: bytes})
		} else {
			per := int64(bytes / 4)
			for _, pr := range proxies {
				l1 := e.Submit(netsim.FlowSpec{Src: src, Dst: pr.Proxy, Bytes: per, Links: pr.Leg1.Links})
				e.Submit(netsim.FlowSpec{Src: pr.Proxy, Dst: dst, Bytes: per, Links: pr.Leg2.Links,
					DependsOn: []netsim.FlowID{l1}, ExtraDelay: flowP.ProxyForwardOverhead})
			}
		}
		mk, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return netsim.Throughput(bytes, mk)
	}

	// Packet model, under the same calibration.
	runPacket := func(proxied bool) float64 {
		s, err := New(tor, flowP, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !proxied {
			s.Submit(MessageSpec{Src: src, Dst: dst, Bytes: bytes, Zone: routing.ZoneDeterministic})
		} else {
			per := int64(bytes / 4)
			for _, pr := range proxies {
				l1 := s.Submit(MessageSpec{Src: src, Dst: pr.Proxy, Bytes: per, Links: pr.Leg1.Links})
				s.Submit(MessageSpec{Src: pr.Proxy, Dst: dst, Bytes: per, Links: pr.Leg2.Links,
					DependsOn: []MessageID{l1}, ExtraDelay: flowP.ProxyForwardOverhead})
			}
		}
		mk, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return netsim.Throughput(bytes, mk)
	}

	for _, proxied := range []bool{false, true} {
		f := runFlow(proxied)
		pk := runPacket(proxied)
		diff := math.Abs(f-pk) / f
		if diff > 0.08 {
			t.Fatalf("proxied=%v: flow %.4g vs packet %.4g (%.1f%% apart)", proxied, f, pk, diff*100)
		}
	}
}

func BenchmarkPacketSim8MB(b *testing.B) {
	tor := mira128()
	p := netsim.DefaultParams()
	for i := 0; i < b.N; i++ {
		s, _ := New(tor, p, 1)
		s.Submit(MessageSpec{Src: 0, Dst: torus.NodeID(tor.Size() - 1), Bytes: 8 << 20, Zone: routing.ZoneDeterministic})
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
