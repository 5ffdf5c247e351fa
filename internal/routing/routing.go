// Package routing implements the Blue Gene/Q's user-visible routing
// behaviour on a torus from package torus.
//
// The BG/Q routes every packet dimension-ordered. Deterministic routing
// orders the dimensions longest extent first ("longest to shortest") and,
// within each dimension, travels the minimal way around the ring. Dynamic
// routing is still dimension ordered but the order is programmable through
// four "zone" IDs (0-3, selectable via the PAMI_ROUTING environment
// variable on the real machine):
//
//	zone 0: longest-to-shortest, dimensions of equal length in random order
//	zone 1: unrestricted - dimensions traversed in a random order
//	zone 2: deterministic longest-to-shortest (stable tie-break)
//	zone 3: deterministic fixed A,B,C,D,E order
//
// Zones 2 and 3 are fully deterministic: given the message size the path
// is known before the message is routed. That property is what the paper's
// user-space multipath mechanism exploits: because the default single path
// is known a priori, intermediate nodes can be placed so that the two-leg
// routes do not share links.
//
// The real machine picks a zone from the message size and a "flexibility"
// metric computed from the torus size and the hop distance; the selection
// table is experiment-derived and hard coded in the low-level libraries.
// SelectZone implements a documented approximation with the same shape:
// small messages use the fully deterministic zones, large messages between
// far-apart nodes use the more flexible zones.
package routing

import (
	"fmt"
	"math/rand"
	"strings"

	"bgqflow/internal/torus"
)

// Zone is a BG/Q routing zone ID.
type Zone int

const (
	// ZoneLongestRandomTies routes longest-to-shortest; dimensions of
	// equal length are ordered randomly per message.
	ZoneLongestRandomTies Zone = 0
	// ZoneUnrestricted routes dimensions in a random order per message.
	ZoneUnrestricted Zone = 1
	// ZoneDeterministic routes longest-to-shortest with a stable
	// tie-break (ascending dimension index). This is the default
	// deterministic routing the paper's algorithms assume.
	ZoneDeterministic Zone = 2
	// ZoneFixedOrder routes dimensions in fixed A,B,C,D,E order.
	ZoneFixedOrder Zone = 3
)

// String names the zone.
func (z Zone) String() string {
	switch z {
	case ZoneLongestRandomTies:
		return "zone0(longest,random-ties)"
	case ZoneUnrestricted:
		return "zone1(unrestricted)"
	case ZoneDeterministic:
		return "zone2(deterministic)"
	case ZoneFixedOrder:
		return "zone3(fixed-order)"
	}
	return fmt.Sprintf("zone%d(invalid)", int(z))
}

// Route is the directed-link path a message takes from Src to Dst.
type Route struct {
	Src, Dst torus.NodeID
	// Links holds torus link IDs (see torus.LinkID) in traversal order.
	// Empty when Src == Dst.
	Links []int
}

// Hops returns the number of links traversed.
func (r Route) Hops() int { return len(r.Links) }

// String renders the route for diagnostics.
func (r Route) String() string {
	return fmt.Sprintf("route %d->%d (%d hops)", r.Src, r.Dst, len(r.Links))
}

// SharesLink reports whether two routes traverse any common directed link.
func SharesLink(a, b Route) bool {
	if len(a.Links) == 0 || len(b.Links) == 0 {
		return false
	}
	var small, large []int
	if len(a.Links) < len(b.Links) {
		small, large = a.Links, b.Links
	} else {
		small, large = b.Links, a.Links
	}
	set := make(map[int]struct{}, len(small))
	for _, l := range small {
		set[l] = struct{}{}
	}
	for _, l := range large {
		if _, ok := set[l]; ok {
			return true
		}
	}
	return false
}

// RouteWithOrder computes the dimension-ordered route from src to dst
// visiting dimensions in dimOrder. Within each dimension the message takes
// the minimal way around the ring (ties broken toward the positive
// direction, matching torus.Displacement).
func RouteWithOrder(t *torus.Torus, src, dst torus.NodeID, dimOrder []int) Route {
	return Route{Src: src, Dst: dst, Links: AppendRouteLinks(nil, t, src, dst, dimOrder)}
}

// AppendRouteLinks appends the links of RouteWithOrder(t, src, dst,
// dimOrder) to links and returns the extended slice. It allocates only to
// grow links, so searches that try many orders can reuse one buffer.
func AppendRouteLinks(links []int, t *torus.Torus, src, dst torus.NodeID, dimOrder []int) []int {
	if len(dimOrder) != t.Dims() {
		panic(fmt.Sprintf("routing: dim order of %d dimensions on a %d-D torus", len(dimOrder), t.Dims()))
	}
	var cb, tb [torus.MaxDims]int
	cur, target := torus.Coord(cb[:t.Dims()]), torus.Coord(tb[:t.Dims()])
	t.CoordInto(src, cur)
	t.CoordInto(dst, target)
	for _, dim := range dimOrder {
		hops, dir := t.Displacement(dim, cur[dim], target[dim])
		for h := 0; h < hops; h++ {
			links = append(links, t.LinkID(t.ID(cur), dim, dir))
			cur[dim] = t.Wrap(dim, cur[dim]+int(dir))
		}
	}
	if !cur.Equal(target) {
		panic(fmt.Sprintf("routing: route from %d did not reach %d", src, dst))
	}
	return links
}

// Permuter enumerates the permutations of a dimension order with Heap's
// algorithm, the order itself first, without allocating. Reset starts an
// enumeration; Next returns each permutation in turn.
type Permuter struct {
	perm, c [torus.MaxDims]int
	n, i    int
	started bool
}

// Reset starts enumerating the permutations of base (at most
// torus.MaxDims entries; base is copied, not retained).
func (p *Permuter) Reset(base []int) {
	p.n = copy(p.perm[:], base)
	p.c = [torus.MaxDims]int{}
	p.i = 0
	p.started = false
}

// Next returns the next permutation, or false after the last of the n!.
// The slice is the permuter's own buffer, valid until the next call.
func (p *Permuter) Next() ([]int, bool) {
	if !p.started {
		p.started = true
		return p.perm[:p.n], true
	}
	for p.i < p.n {
		i := p.i
		if p.c[i] < i {
			if i%2 == 0 {
				p.perm[0], p.perm[i] = p.perm[i], p.perm[0]
			} else {
				p.perm[p.c[i]], p.perm[i] = p.perm[i], p.perm[p.c[i]]
			}
			p.c[i]++
			p.i = 0
			return p.perm[:p.n], true
		}
		p.c[i] = 0
		p.i++
	}
	return nil, false
}

// DeterministicRoute computes the BG/Q default deterministic route:
// longest-to-shortest dimension order with a stable tie-break. This is the
// path the paper's algorithms assume is known a priori.
func DeterministicRoute(t *torus.Torus, src, dst torus.NodeID) Route {
	return RouteWithOrder(t, src, dst, t.DimsByExtentDesc())
}

// Router routes messages under a chosen zone. Routers using the random
// zones (0 and 1) draw from their own seeded RNG, so runs remain
// reproducible.
type Router struct {
	t    *torus.Torus
	zone Zone
	rng  *rand.Rand
}

// NewRouter returns a router for torus t under the given zone. seed feeds
// the RNG used by the random zones; it is ignored for zones 2 and 3.
func NewRouter(t *torus.Torus, zone Zone, seed int64) (*Router, error) {
	if zone < 0 || zone > 3 {
		return nil, fmt.Errorf("routing: invalid zone %d", int(zone))
	}
	return &Router{t: t, zone: zone, rng: rand.New(rand.NewSource(seed))}, nil
}

// Route computes the path from src to dst under the router's zone.
// For zones 2 and 3 the result is a pure function of (src, dst); for zones
// 0 and 1 successive calls may return different dimension orders.
func (r *Router) Route(src, dst torus.NodeID) Route {
	return RouteWithOrder(r.t, src, dst, r.dimOrder())
}

func (r *Router) dimOrder() []int {
	switch r.zone {
	case ZoneFixedOrder:
		order := make([]int, r.t.Dims())
		for i := range order {
			order[i] = i
		}
		return order
	case ZoneDeterministic:
		return r.t.DimsByExtentDesc()
	case ZoneLongestRandomTies:
		order := r.t.DimsByExtentDesc()
		// Shuffle runs of equal extent.
		i := 0
		for i < len(order) {
			j := i + 1
			for j < len(order) && r.t.Extent(order[j]) == r.t.Extent(order[i]) {
				j++
			}
			run := order[i:j]
			r.rng.Shuffle(len(run), func(a, b int) { run[a], run[b] = run[b], run[a] })
			i = j
		}
		return order
	case ZoneUnrestricted:
		order := make([]int, r.t.Dims())
		for i := range order {
			order[i] = i
		}
		r.rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		return order
	}
	panic("routing: invalid zone")
}

// Flexibility approximates the BG/Q flexibility metric for a node pair:
// the number of dimensions the message must traverse, plus one for every
// traversed dimension whose ring offers genuine two-way choice (hop
// distance strictly less than half the extent). Higher values mean the
// network has more routing freedom for this pair.
func Flexibility(t *torus.Torus, src, dst torus.NodeID) int {
	cs, cd := t.Coord(src), t.Coord(dst)
	f := 0
	for dim := range cs {
		hops, _ := t.Displacement(dim, cs[dim], cd[dim])
		if hops == 0 {
			continue
		}
		f++
		if 2*hops < t.Extent(dim) {
			f++
		}
	}
	return f
}

// Zone-selection size thresholds (bytes). The real table is
// experiment-derived and hard coded in the BG/Q system software; these
// values give the same qualitative behaviour: short messages stay fully
// deterministic, long messages between flexible pairs spread out.
const (
	zoneSmallMessage = 2 << 10  // below this: fixed-order zone 3
	zoneMediumMsg    = 64 << 10 // below this: deterministic zone 2
)

// SelectZone returns the zone the system software would route a message of
// msgSize bytes between src and dst with, per the approximation documented
// on the package.
func SelectZone(t *torus.Torus, src, dst torus.NodeID, msgSize int64) Zone {
	switch {
	case msgSize < zoneSmallMessage:
		return ZoneFixedOrder
	case msgSize < zoneMediumMsg:
		return ZoneDeterministic
	}
	if Flexibility(t, src, dst) >= t.Dims() {
		return ZoneUnrestricted
	}
	return ZoneLongestRandomTies
}

// DescribeRoute renders the hop-by-hop path for diagnostics and the
// toruscalc tool.
func DescribeRoute(t *torus.Torus, r Route) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v", t.Coord(r.Src))
	for _, l := range r.Links {
		_, dim, dir := t.LinkFrom(l)
		fmt.Fprintf(&b, " %s%s", dir, torus.DimNames[dim])
	}
	fmt.Fprintf(&b, " %v", t.Coord(r.Dst))
	return b.String()
}
