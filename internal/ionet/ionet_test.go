package ionet

import (
	"testing"

	"bgqflow/internal/netsim"
	"bgqflow/internal/torus"
)

func build(t *testing.T, shape torus.Shape) (*System, *netsim.Network) {
	t.Helper()
	tor := torus.MustNew(shape)
	net := netsim.NewNetwork(tor, 1.8e9)
	s, err := Build(net)
	if err != nil {
		t.Fatal(err)
	}
	return s, net
}

func TestBuildMira2K(t *testing.T) {
	s, _ := build(t, torus.Shape{4, 4, 4, 16, 2})
	if s.NumPsets() != 16 {
		t.Fatalf("2048 nodes / 128 = 16 psets, got %d", s.NumPsets())
	}
	for i := 0; i < s.NumPsets(); i++ {
		ps := s.Pset(i)
		if ps.Box.Size() != 128 {
			t.Fatalf("pset %d has %d nodes", i, ps.Box.Size())
		}
		if len(ps.Bridges) != 2 {
			t.Fatalf("pset %d has %d bridges", i, len(ps.Bridges))
		}
	}
}

func TestEveryNodeAssignedToItsOwnPset(t *testing.T) {
	s, _ := build(t, torus.Shape{4, 4, 4, 16, 2})
	tor := torus.MustNew(torus.Shape{4, 4, 4, 16, 2})
	counts := make(map[int]int)
	for n := torus.NodeID(0); int(n) < tor.Size(); n++ {
		ps := s.PsetOf(n)
		if !ps.Box.Contains(tor.Coord(n)) {
			t.Fatalf("node %d assigned to pset %d whose box %v excludes it", n, ps.Index, ps.Box)
		}
		counts[ps.Index]++
		if pi, _ := s.DefaultPath(n); pi != ps.Index {
			t.Fatalf("node %d default path leads to pset %d, not its own %d", n, pi, ps.Index)
		}
	}
	for pi, c := range counts {
		if c != 128 {
			t.Fatalf("pset %d has %d assigned nodes", pi, c)
		}
	}
}

func TestBridgeIsInsideItsPset(t *testing.T) {
	s, _ := build(t, torus.Shape{2, 2, 4, 4, 2})
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	for i := 0; i < s.NumPsets(); i++ {
		ps := s.Pset(i)
		for _, b := range ps.Bridges {
			if !ps.Box.Contains(tor.Coord(b)) {
				t.Fatalf("bridge %d outside pset %d", b, i)
			}
		}
	}
}

func TestDefaultBridgeIsLocal(t *testing.T) {
	s, _ := build(t, torus.Shape{4, 4, 4, 16, 2})
	tor := torus.MustNew(torus.Shape{4, 4, 4, 16, 2})
	for n := torus.NodeID(0); int(n) < tor.Size(); n += 7 {
		pi, bi := s.DefaultPath(n)
		b := s.Pset(pi).Bridges[bi]
		if s.PsetOf(b).Index != s.PsetOf(n).Index {
			t.Fatalf("node %d default bridge %d is in a different pset", n, b)
		}
	}
}

func TestWriteRouteEndsOnUplink(t *testing.T) {
	s, net := build(t, torus.Shape{2, 2, 4, 4, 2})
	tor := net.Torus()
	for n := torus.NodeID(0); int(n) < tor.Size(); n += 5 {
		pi, bi := s.DefaultPath(n)
		links, bridge := s.WriteRouteVia(n, pi, bi)
		if len(links) == 0 {
			t.Fatalf("node %d write route empty", n)
		}
		last := links[len(links)-1]
		if last < net.NumTorusLinks() || last != s.Pset(pi).Uplink(bi) {
			t.Fatalf("node %d write route does not end on its default 11th link", n)
		}
		if bridge != s.Pset(pi).Bridges[bi] {
			t.Fatalf("node %d write route bridge mismatch", n)
		}
		// Torus prefix must be exactly the deterministic route to the bridge.
		if got, want := len(links)-1, tor.HopDistance(n, bridge); got != want {
			t.Fatalf("node %d torus prefix %d hops, want %d", n, got, want)
		}
	}
}

func TestWriteRouteViaSelectsBridge(t *testing.T) {
	s, net := build(t, torus.Shape{2, 2, 4, 4, 2})
	ps := s.Pset(0)
	n := torus.NodeID(0)
	for bi := range ps.Bridges {
		links, bridge := s.WriteRouteVia(n, 0, bi)
		if bridge != ps.Bridges[bi] {
			t.Fatalf("WriteRouteVia bridge = %d, want %d", bridge, ps.Bridges[bi])
		}
		if links[len(links)-1] != ps.Uplink(bi) {
			t.Fatalf("WriteRouteVia does not end on uplink %d", ps.Uplink(bi))
		}
	}
	// Build registers each 11th link as owned by its bridge, so failing
	// the bridge node takes its uplink down and leaves the other's up.
	net.FailNode(ps.Bridges[0])
	if !net.LinkFailed(ps.Uplink(0)) || net.LinkFailed(ps.Uplink(1)) {
		t.Fatal("bridge node failure must take exactly its own 11th link down")
	}
}

func TestUplinksDistinct(t *testing.T) {
	s, _ := build(t, torus.Shape{4, 4, 4, 16, 2})
	seen := map[int]bool{}
	for i := 0; i < s.NumPsets(); i++ {
		ps := s.Pset(i)
		for bi := range ps.Bridges {
			l := ps.Uplink(bi)
			if seen[l] {
				t.Fatalf("uplink %d reused", l)
			}
			seen[l] = true
		}
	}
	if len(seen) != s.NumPsets()*2 {
		t.Fatalf("%d uplinks, want %d", len(seen), s.NumPsets()*2)
	}
}

func TestPsetAggregateIOBandwidth(t *testing.T) {
	s, _ := build(t, torus.Shape{2, 2, 4, 4, 2})
	if got := s.PsetAggregateIOBandwidth(); got != 2*1.8e9 {
		t.Fatalf("pset aggregate I/O bandwidth = %g, want 3.6e9", got)
	}
}

func TestBuildValidation(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 3, 2}) // 96 nodes
	net := netsim.NewNetwork(tor, 1.8e9)
	if _, err := Build(net); err == nil {
		t.Error("pset size not dividing partition accepted")
	}
}

func TestSmallPartitionSinglePset(t *testing.T) {
	s, _ := build(t, torus.Shape{2, 2, 4, 4, 2})
	if s.NumPsets() != 1 {
		t.Fatalf("128-node partition should have 1 pset, got %d", s.NumPsets())
	}
}

// End-to-end: two compute nodes writing through the same default bridge
// contend on the 11th link.
func TestWritesShareUplink(t *testing.T) {
	s, net := build(t, torus.Shape{2, 2, 4, 4, 2})
	p := netsim.DefaultParams()
	p.SenderOverhead, p.ReceiverOverhead, p.HopLatency = 0, 0, 0
	p.PerFlowBandwidth = 100e9 // uplink is the constraint
	e, err := netsim.NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	// Find two distinct nodes with the same default bridge and disjoint
	// torus routes to it (pick nodes adjacent to the bridge).
	bridge := s.Pset(0).Bridges[0]
	tor := net.Torus()
	var writers []torus.NodeID
	for n := torus.NodeID(0); int(n) < tor.Size() && len(writers) < 2; n++ {
		if pi, bi := s.DefaultPath(n); pi == 0 && bi == 0 && tor.HopDistance(n, bridge) == 1 {
			writers = append(writers, n)
		}
	}
	if len(writers) < 2 {
		t.Fatal("could not find two 1-hop writers")
	}
	const bytes = 32 << 20
	for _, w := range writers {
		links, br := s.WriteRouteVia(w, 0, 0)
		e.Submit(netsim.FlowSpec{Src: w, Dst: br, Bytes: bytes, Links: links})
	}
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * float64(bytes) / 1.8e9
	if got := float64(mk); got < want*(1-1e-9) || got > want*(1+1e-9) {
		t.Fatalf("shared-uplink makespan %g, want %g", got, want)
	}
}
