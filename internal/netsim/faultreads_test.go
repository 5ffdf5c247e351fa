package netsim

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"bgqflow/internal/routing"
	"bgqflow/internal/topo"
	"bgqflow/internal/torus"
)

// readLinks returns the links r recorded, in ascending order.
func readLinks(r *FaultReads) []int {
	var out []int
	r.ForEachLink(func(id int) { out = append(out, id) })
	return out
}

// A recording network marks every link whose failed flag is read —
// through LinkFailed directly, through RouteAvoiding, and through the
// engine's fail-stop check at Submit.
func TestFaultReadsRecordEveryReadSite(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	p := DefaultParams()
	net := NewNetwork(tor, p.LinkBandwidth)
	var r FaultReads
	net.RecordFaultReads(&r)

	net.LinkFailed(7)
	if _, err := net.RouteAvoiding(3, 5); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	e.Submit(FlowSpec{Src: 0, Dst: 97, Bytes: 1 << 20})
	want := map[int]bool{7: true}
	for _, l := range append(routing.DeterministicRoute(tor, 0, 97).Links, routing.DeterministicRoute(tor, 3, 5).Links...) {
		want[l] = true
	}
	got := readLinks(&r)
	if len(got) != len(want) || r.NumLinks() != len(want) {
		t.Fatalf("recorded %v (NumLinks %d), want the %d links %v", got, r.NumLinks(), len(want), want)
	}
	for i, l := range got {
		if !want[l] {
			t.Fatalf("recorded link %d was never read", l)
		}
		if i > 0 && got[i-1] >= l {
			t.Fatalf("ForEachLink not ascending: %v", got)
		}
	}

	// Detached, reads leave the record alone.
	net.RecordFaultReads(nil)
	before := got
	net.LinkFailed(net.NumLinks() - 1)
	got = readLinks(&r)
	if !reflect.DeepEqual(got, before) {
		t.Fatalf("detached network still records: %v -> %v", before, got)
	}
}

// Network.RouteAvoiding checks the default route's links in order and
// stops at the first failed one. On a clean route it returns the cached
// default route and records exactly its links; with failed links it
// returns the route routing.RouteAvoiding finds and records the links
// that search reads, cut or not.
func TestNetworkRouteAvoiding(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
	def := routing.DeterministicRoute(tor, src, dst).Links
	net := NewNetwork(tor, DefaultParams().LinkBandwidth)
	var r FaultReads
	net.RecordFaultReads(&r)
	got, err := net.RouteAvoiding(src, dst)
	if err != nil || !slices.Equal(got.Links, def) {
		t.Fatalf("clean route: %v, %v; want the default route %v", got.Links, err, def)
	}
	if &got.Links[0] != &net.Route(src, dst).Links[0] {
		t.Fatal("clean route is not the cached default route")
	}
	want := slices.Clone(def)
	sort.Ints(want)
	if rl := readLinks(&r); !slices.Equal(rl, want) {
		t.Fatalf("clean route read %v, want its links %v", rl, want)
	}

	var cut []int // every link out of src: no route survives
	for d := 0; d < tor.Dims(); d++ {
		cut = append(cut, tor.LinkID(src, d, torus.Plus), tor.LinkID(src, d, torus.Minus))
	}
	for _, failed := range [][]int{{def[2]}, {def[0], def[len(def)-1]}, cut} {
		net := NewNetwork(tor, DefaultParams().LinkBandwidth)
		for _, l := range failed {
			net.FailLink(l)
		}
		var r FaultReads
		net.RecordFaultReads(&r)
		got, err := net.RouteAvoiding(src, dst)
		net.RecordFaultReads(nil)
		var oracle FaultReads
		wantR, werr := routing.RouteAvoiding(tor, src, dst, func(l int) bool {
			oracle.addLink(l)
			return net.LinkFailed(l)
		})
		if (err == nil) != (werr == nil) || !slices.Equal(got.Links, wantR.Links) {
			t.Fatalf("failed %v: route %v (err %v), routing.RouteAvoiding %v (err %v)", failed, got.Links, err, wantR.Links, werr)
		}
		if rl, ol := readLinks(&r), readLinks(&oracle); !slices.Equal(rl, ol) {
			t.Fatalf("failed %v: read %v, routing.RouteAvoiding reads %v", failed, rl, ol)
		}
	}

	// Off the torus a failed default route has no detour search.
	tp, err := topo.Parse("dragonfly:4x4x2")
	if err != nil {
		t.Fatal(err)
	}
	dnet := NewNetworkTopo(tp, DefaultParams().LinkBandwidth)
	dr := dnet.Route(1, 9).Links
	dnet.FailLink(dr[0])
	if _, err := dnet.RouteAvoiding(1, 9); err == nil {
		t.Fatal("dragonfly route over a failed link accepted")
	}
}
