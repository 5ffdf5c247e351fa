package topo

import (
	"bgqflow/internal/routing"
	"bgqflow/internal/torus"
)

// TorusTopo adapts a *torus.Torus (the BG/Q 5D fabric) to the Topology
// interface. Link IDs, routes, and node-link enumeration order are
// exactly those of torus.LinkID / routing.DeterministicRoute /
// netsim.Network.NodeLinks, so every layer that learns the torus through
// the adapter behaves as the BG/Q does.
type TorusTopo struct {
	t     *torus.Torus
	order []int // default dimension order: longest extent first
}

// NewTorus wraps t.
func NewTorus(t *torus.Torus) *TorusTopo {
	return &TorusTopo{t: t, order: t.DimsByExtentDesc()}
}

// TorusOf returns the torus behind a topology, or nil when the fabric
// is not a torus. Torus-specific layers (planners, ionet, zone routing,
// torus-shaped fault campaigns) learn the torus through it.
func TorusOf(tp Topology) *torus.Torus {
	if tt, ok := tp.(*TorusTopo); ok {
		return tt.t
	}
	return nil
}

// Kind returns "torus".
func (tt *TorusTopo) Kind() string { return "torus" }

// Spec renders "torus:2x2x4x4x2".
func (tt *TorusTopo) Spec() string { return "torus:" + tt.t.Shape().String() }

// NumNodes reports the partition size.
func (tt *TorusTopo) NumNodes() int { return tt.t.Size() }

// NumLinks reports the number of directed torus links.
func (tt *TorusTopo) NumLinks() int { return tt.t.NumTorusLinks() }

// LinkCapacity is 1.0 for every torus link: the BG/Q torus is single-rail
// at the fabric's base bandwidth.
func (tt *TorusTopo) LinkCapacity(id int) float64 { return 1.0 }

// Route is the BG/Q default deterministic route: dimension-ordered,
// longest extent first, minimal way around each ring. The route is
// walked into a stack buffer and returned exactly sized, so a route
// cache can keep it without copying.
func (tt *TorusTopo) Route(src, dst torus.NodeID) []int {
	var buf [64]int
	walked := routing.AppendRouteLinks(buf[:0], tt.t, src, dst, tt.order)
	if len(walked) == 0 {
		return nil
	}
	links := make([]int, len(walked))
	copy(links, walked)
	return links
}

// NodeLinks enumerates the node's outgoing and incoming directed links in
// the same order as netsim.Network.NodeLinks (dim-major, Plus then Minus,
// out then in, first occurrence wins).
func (tt *TorusTopo) NodeLinks(n torus.NodeID) []int {
	links := make([]int, 0, 4*tt.t.Dims())
	seen := make(map[int]struct{}, 4*tt.t.Dims())
	add := func(l int) {
		if _, dup := seen[l]; !dup {
			seen[l] = struct{}{}
			links = append(links, l)
		}
	}
	for dim := 0; dim < tt.t.Dims(); dim++ {
		for _, dir := range []torus.Direction{torus.Plus, torus.Minus} {
			add(tt.t.LinkID(n, dim, dir))
			add(tt.t.LinkID(tt.t.Neighbor(n, dim, dir), dim, -dir))
		}
	}
	return links
}

// LinkString renders the link in torus notation.
func (tt *TorusTopo) LinkString(id int) string { return tt.t.LinkString(id) }
