package netsim

import (
	"slices"
	"testing"

	"bgqflow/internal/topo"
	"bgqflow/internal/torus"
)

// TestTopoNetworkRouteCache pins the one-memo rule off the torus: a
// dragonfly or fat-tree network serves routes through the same
// routing.Cache a torus network does. Cached routes equal the
// topology's oracle and are exactly sized (appending must copy), the
// cache counts hits and misses, and every failure event purges it and
// bumps its epoch.
func TestTopoNetworkRouteCache(t *testing.T) {
	for _, spec := range []string{"dragonfly:6x4x2", "fattree:8x4x2"} {
		tp, err := topo.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		net := NewNetworkTopo(tp, DefaultParams().LinkBandwidth)
		c := net.RouteCache()
		if c == nil {
			t.Fatalf("%s: RouteCache is nil", spec)
		}
		var pairs int
		for src := torus.NodeID(0); int(src) < tp.NumNodes(); src++ {
			for dst := torus.NodeID(0); int(dst) < tp.NumNodes(); dst += 3 {
				want := tp.Route(src, dst)
				for pass := 0; pass < 2; pass++ { // miss, then hit
					got := net.Route(src, dst).Links
					if !slices.Equal(got, want) {
						t.Fatalf("%s: route %d->%d = %v, oracle says %v", spec, src, dst, got, want)
					}
					if cap(got) != len(got) {
						t.Fatalf("%s: route %d->%d has cap %d > len %d", spec, src, dst, cap(got), len(got))
					}
				}
				pairs++
			}
		}
		if h, m, inv := c.Counts(); h != uint64(pairs) || m != uint64(pairs) || inv != 0 {
			t.Fatalf("%s: counts (%d, %d, %d), want (%d, %d, 0)", spec, h, m, inv, pairs, pairs)
		}
		if c.Len() != pairs {
			t.Fatalf("%s: cache holds %d routes, want %d", spec, c.Len(), pairs)
		}

		net.FailLink(net.Route(0, 1).Links[0])
		if c.Len() != 0 || c.Epoch() != 1 {
			t.Fatalf("%s: after FailLink len=%d epoch=%d, want 0/1", spec, c.Len(), c.Epoch())
		}
		if h, m, _ := c.Counts(); h != 0 || m != 0 {
			t.Fatalf("%s: counts (%d, %d) after FailLink, want a cold epoch", spec, h, m)
		}
		net.FailNode(2)
		if c.Epoch() != 2 {
			t.Fatalf("%s: epoch %d after FailNode, want 2", spec, c.Epoch())
		}
	}
}
