package topo

import (
	"slices"
	"strings"
	"testing"

	"bgqflow/internal/routing"
	"bgqflow/internal/torus"
)

// testTopologies builds one instance of every family for the generic
// suites.
func testTopologies(t *testing.T) []Topology {
	t.Helper()
	specs := []string{
		"torus:2x2x4",
		"torus:2x3x2x2",
		"dragonfly:4x4",
		"dragonfly:6x4x2",
		"fattree:8x4",
		"fattree:16x4x2",
	}
	tops := make([]Topology, 0, len(specs))
	for _, s := range specs {
		tp, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if tp.Spec() != canonical(s) {
			t.Fatalf("Parse(%q).Spec() = %q, want %q", s, tp.Spec(), canonical(s))
		}
		tops = append(tops, tp)
	}
	return tops
}

// canonical expands the optional rails suffix.
func canonical(spec string) string {
	switch spec {
	case "dragonfly:4x4":
		return "dragonfly:4x4x1"
	case "fattree:8x4":
		return "fattree:8x4x1"
	}
	return spec
}

func TestParseRejectsBadSpecs(t *testing.T) {
	bad := []string{
		"", "torus", "2x2x4", "torus:", "torus:0x2", "torus:2xhi",
		"dragonfly:4", "dragonfly:1x4", "dragonfly:4x1", "dragonfly:4x4x0",
		"dragonfly:4x4x2x2", "fattree:4", "fattree:1x2", "fattree:4x0",
		"fattree:4x4x0", "mesh:2x2",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) must fail", s)
		}
	}
}

// LinkCount must agree with NumLinks on every family without building
// the fabric, and saturate on any extents.
func TestLinkCount(t *testing.T) {
	const limit = 1 << 21
	count := func(spec string) int {
		t.Helper()
		kind, dims, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		return LinkCount(kind, dims, limit)
	}
	for _, tp := range testTopologies(t) {
		if n := count(tp.Spec()); n != tp.NumLinks() {
			t.Fatalf("LinkCount(%q) = %d; NumLinks %d", tp.Spec(), n, tp.NumLinks())
		}
	}
	for _, spec := range []string{
		"torus:1048576x1048576x1048576",
		"torus:4611686018427387904x4611686018427387904",
		"dragonfly:4294967296x4294967296",
		"dragonfly:2x3037000500",
		"fattree:1048576x1048576x1",
	} {
		if n := count(spec); n != limit+1 {
			t.Errorf("LinkCount(%q) = %d; want saturated %d", spec, n, limit+1)
		}
	}
	if n := count("torus:16x16x16x12x2"); n != 983040 {
		t.Errorf("Sequoia torus: %d links, want 983040", n)
	}
}

// Every topology's links must be densely numbered, positively
// capacitated, and printable.
func TestLinkSpaceDense(t *testing.T) {
	for _, tp := range testTopologies(t) {
		if tp.NumNodes() < 2 || tp.NumLinks() < 1 {
			t.Fatalf("%s: degenerate sizes %d/%d", tp.Spec(), tp.NumNodes(), tp.NumLinks())
		}
		for l := 0; l < tp.NumLinks(); l++ {
			if c := tp.LinkCapacity(l); c < 1 {
				t.Fatalf("%s: link %d capacity %g < 1", tp.Spec(), l, c)
			}
			if tp.LinkString(l) == "" {
				t.Fatalf("%s: link %d has no diagnostic name", tp.Spec(), l)
			}
		}
	}
}

// Routes must be deterministic, stay inside the link ID space, visit no
// link twice, and be empty exactly for self-routes.
func TestRoutesWellFormed(t *testing.T) {
	for _, tp := range testTopologies(t) {
		n := tp.NumNodes()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				r := tp.Route(torus.NodeID(src), torus.NodeID(dst))
				if src == dst {
					if len(r) != 0 {
						t.Fatalf("%s: self-route %d has %d links", tp.Spec(), src, len(r))
					}
					continue
				}
				if len(r) == 0 {
					t.Fatalf("%s: route %d->%d is empty", tp.Spec(), src, dst)
				}
				seen := make(map[int]bool, len(r))
				for _, l := range r {
					if l < 0 || l >= tp.NumLinks() {
						t.Fatalf("%s: route %d->%d uses link %d outside [0,%d)", tp.Spec(), src, dst, l, tp.NumLinks())
					}
					if seen[l] {
						t.Fatalf("%s: route %d->%d repeats link %d", tp.Spec(), src, dst, l)
					}
					seen[l] = true
				}
				again := tp.Route(torus.NodeID(src), torus.NodeID(dst))
				if len(again) != len(r) {
					t.Fatalf("%s: route %d->%d not deterministic", tp.Spec(), src, dst)
				}
				for i := range r {
					if again[i] != r[i] {
						t.Fatalf("%s: route %d->%d not deterministic at hop %d", tp.Spec(), src, dst, i)
					}
				}
			}
		}
	}
}

// Route continuity, checked with per-family structural knowledge: each
// consecutive link pair must chain through a shared switch/router.
func TestDragonflyRouteContinuity(t *testing.T) {
	d, err := NewDragonfly(6, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Decode a link into (fromNode, toNode) in router coordinates; for
	// globals those are the gateway routers.
	ends := func(id int) (from, to int) {
		if id < d.localN {
			g := id / (d.size * (d.size - 1))
			rem := id % (d.size * (d.size - 1))
			i := rem / (d.size - 1)
			j := rem % (d.size - 1)
			if j >= i {
				j++
			}
			return g*d.size + i, g*d.size + j
		}
		rem := id - d.localN
		gi := rem / (d.groups - 1)
		gj := rem % (d.groups - 1)
		if gj >= gi {
			gj++
		}
		return gi*d.size + d.gatewayOut(gi, gj), gj*d.size + d.gatewayIn(gi, gj)
	}
	for src := 0; src < d.NumNodes(); src++ {
		for dst := 0; dst < d.NumNodes(); dst++ {
			r := d.Route(torus.NodeID(src), torus.NodeID(dst))
			if src == dst {
				continue
			}
			if len(r) > 3 {
				t.Fatalf("dragonfly route %d->%d has %d hops, want <= 3", src, dst, len(r))
			}
			cur := src
			for _, l := range r {
				from, to := ends(l)
				if from != cur {
					t.Fatalf("dragonfly route %d->%d: link %s starts at %d, want %d", src, dst, d.LinkString(l), from, cur)
				}
				cur = to
			}
			if cur != dst {
				t.Fatalf("dragonfly route %d->%d ends at %d", src, dst, cur)
			}
		}
	}
}

func TestFatTreeRouteContinuity(t *testing.T) {
	ft, err := NewFatTree(16, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < ft.NumNodes(); src++ {
		for dst := 0; dst < ft.NumNodes(); dst++ {
			if src == dst {
				continue
			}
			r := ft.Route(torus.NodeID(src), torus.NodeID(dst))
			if len(r) != 2 {
				t.Fatalf("fattree route %d->%d has %d hops, want 2", src, dst, len(r))
			}
			upLeaf, upSpine := r[0]/ft.spines, r[0]%ft.spines
			downSpine := (r[1] - ft.leaves*ft.spines) / ft.leaves
			downLeaf := (r[1] - ft.leaves*ft.spines) % ft.leaves
			if upLeaf != src || downLeaf != dst || upSpine != downSpine {
				t.Fatalf("fattree route %d->%d chains %d^%d then %d_v%d", src, dst, upLeaf, upSpine, downSpine, downLeaf)
			}
		}
	}
}

// The torus adapter must agree with the raw torus/routing primitives:
// identical link space and identical deterministic routes.
func TestTorusAdapterMatchesTorus(t *testing.T) {
	tor, err := torus.New([]int{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	tt := NewTorus(tor)
	if tt.NumNodes() != tor.Size() || tt.NumLinks() != tor.NumTorusLinks() {
		t.Fatalf("adapter sizes %d/%d, want %d/%d", tt.NumNodes(), tt.NumLinks(), tor.Size(), tor.NumTorusLinks())
	}
	if tt.Spec() != "torus:2x3x4" {
		t.Fatalf("Spec = %q", tt.Spec())
	}
	for l := 0; l < tt.NumLinks(); l++ {
		if tt.LinkString(l) != tor.LinkString(l) {
			t.Fatalf("link %d renders %q, want %q", l, tt.LinkString(l), tor.LinkString(l))
		}
	}
	for src := torus.NodeID(0); int(src) < tor.Size(); src++ {
		for dst := torus.NodeID(0); int(dst) < tor.Size(); dst++ {
			got, want := tt.Route(src, dst), routing.DeterministicRoute(tor, src, dst).Links
			if !slices.Equal(got, want) || cap(got) != len(got) {
				t.Fatalf("route %d->%d = %v (cap %d), want %v exactly sized", src, dst, got, cap(got), want)
			}
		}
	}
	if TorusOf(tt) != tor {
		t.Fatal("TorusOf lost the wrapped torus")
	}
}

// NodeLinks must cover exactly the links whose removal isolates the node:
// every route in or out of n must traverse at least one of them, and each
// listed link must be unique and in range.
func TestNodeLinksCoverRoutes(t *testing.T) {
	for _, tp := range testTopologies(t) {
		n := tp.NumNodes()
		for node := 0; node < n; node++ {
			nl := tp.NodeLinks(torus.NodeID(node))
			if len(nl) == 0 {
				t.Fatalf("%s: node %d has no links", tp.Spec(), node)
			}
			owned := make(map[int]bool, len(nl))
			for _, l := range nl {
				if l < 0 || l >= tp.NumLinks() {
					t.Fatalf("%s: node %d link %d out of range", tp.Spec(), node, l)
				}
				if owned[l] {
					t.Fatalf("%s: node %d lists link %d twice", tp.Spec(), node, l)
				}
				owned[l] = true
			}
			for other := 0; other < n; other++ {
				if other == node {
					continue
				}
				for _, r := range [][]int{
					tp.Route(torus.NodeID(node), torus.NodeID(other)),
					tp.Route(torus.NodeID(other), torus.NodeID(node)),
				} {
					hit := false
					for _, l := range r {
						if owned[l] {
							hit = true
							break
						}
					}
					if !hit {
						t.Fatalf("%s: route touching node %d avoids all its NodeLinks", tp.Spec(), node)
					}
				}
			}
		}
	}
}

func TestMultiRailCapacity(t *testing.T) {
	d, err := NewDragonfly(6, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c := d.LinkCapacity(0); c != 1 {
		t.Fatalf("dragonfly local rail count = %g, want 1", c)
	}
	if c := d.LinkCapacity(d.localN); c != 2 {
		t.Fatalf("dragonfly global rail count = %g, want 2", c)
	}
	ft, err := NewFatTree(8, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []int{0, ft.NumLinks() - 1} {
		if c := ft.LinkCapacity(l); c != 3 {
			t.Fatalf("fattree link %d rail count = %g, want 3", l, c)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, tp := range testTopologies(t) {
		again, err := Parse(tp.Spec())
		if err != nil {
			t.Fatalf("Parse(%q): %v", tp.Spec(), err)
		}
		if again.Spec() != tp.Spec() || again.NumNodes() != tp.NumNodes() || again.NumLinks() != tp.NumLinks() {
			t.Fatalf("round trip of %q changed the topology", tp.Spec())
		}
		if !strings.HasPrefix(tp.Spec(), tp.Kind()+":") {
			t.Fatalf("Spec %q does not start with kind %q", tp.Spec(), tp.Kind())
		}
	}
}
