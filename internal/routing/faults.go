package routing

import (
	"fmt"

	"bgqflow/internal/torus"
)

// RouteAvoiding computes a minimal dimension-ordered route from src to
// dst that traverses no link for which failed returns true. It searches
// the dimension orders the zone-routing hardware can realize
// (longest-to-shortest first) and, within each dimension, both ring
// directions when the displacement allows a choice. It returns an error
// when no minimal dimension-ordered route avoids the failed links — the
// BG/Q's low-level fault masking can then still deliver packets over
// non-minimal escape paths, but those are outside this package's model.
func RouteAvoiding(t *torus.Torus, src, dst torus.NodeID, failed func(int) bool) (Route, error) {
	if failed == nil {
		return DeterministicRoute(t, src, dst), nil
	}
	var perms Permuter
	perms.Reset(t.DimsByExtentDesc())
	for order, more := perms.Next(); more; order, more = perms.Next() {
		if r, good := routeWithOrderAvoiding(t, src, dst, order, failed); good {
			return r, nil
		}
	}
	return Route{}, fmt.Errorf("routing: no minimal fault-free route from %d to %d", src, dst)
}

// routeWithOrderAvoiding walks one dimension order, preferring the
// minimal ring direction per dimension but taking the opposite (equally
// long or longer is not allowed — only direction ties give a choice)
// when the minimal side is blocked.
func routeWithOrderAvoiding(t *torus.Torus, src, dst torus.NodeID, order []int, failed func(int) bool) (Route, bool) {
	cur := t.Coord(src)
	target := t.Coord(dst)
	var links []int
	for _, dim := range order {
		hops, dir := t.Displacement(dim, cur[dim], target[dim])
		if hops == 0 {
			continue
		}
		// Candidate directions: the minimal one, plus the opposite when
		// the two ways around the ring are equally long.
		dirs := []torus.Direction{dir}
		if 2*hops == t.Extent(dim) {
			dirs = append(dirs, -dir)
		}
		routed := false
		for _, d := range dirs {
			seg, ok := walkRing(t, cur, dim, d, hops, failed)
			if ok {
				links = append(links, seg...)
				cur[dim] = target[dim]
				routed = true
				break
			}
		}
		if !routed {
			return Route{}, false
		}
	}
	return Route{Src: src, Dst: dst, Links: links}, true
}

// walkRing collects the directed links of a fixed-length ring walk,
// failing if any is failed. cur is not modified.
func walkRing(t *torus.Torus, cur torus.Coord, dim int, dir torus.Direction, hops int, failed func(int) bool) ([]int, bool) {
	c := cur.Clone()
	links := make([]int, 0, hops)
	for h := 0; h < hops; h++ {
		l := t.LinkID(t.ID(c), dim, dir)
		if failed(l) {
			return nil, false
		}
		links = append(links, l)
		c[dim] = t.Wrap(dim, c[dim]+int(dir))
	}
	return links, true
}
